// NetGateway: a reusable front-end tile that exposes one backend accelerator
// to external clients through the network service.
//
// External request frame (after the network service strips its routing
// word): u64 client_id, u16 opcode, request bytes.
// External response frame: u64 client_id, u8 status, response bytes.
//
// This is the "service within a microservice application" shape from the
// paper's Section 1: network-facing, stateful, part of a call chain.
#ifndef SRC_SERVICES_GATEWAY_H_
#define SRC_SERVICES_GATEWAY_H_

#include <map>

#include "src/core/accelerator.h"
#include "src/services/opcodes.h"
#include "src/stats/summary.h"

namespace apiary {

class NetGateway : public Accelerator {
 public:
  // The kernel wires the backend endpoint capability after deployment.
  void SetBackend(CapRef endpoint) { backend_ = endpoint; }

  void OnBoot(TileApi& api) override;
  void OnMessage(const Message& msg, TileApi& api) override;
  // No Tick: the gateway only forwards messages.
  // APIARY-WAKE(tile): purely reactive service — the owning Tile's NI sink
  // wake ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    (void)now;
    return kNoActivity;
  }

  std::string name() const override { return "net_gateway"; }
  uint32_t LogicCellCost() const override { return 7000; }

  const CounterSet& counters() const { return counters_; }

 private:
  struct InFlight {
    uint32_t client_endpoint;
    uint64_t client_id;
  };

  void HandleInbound(const Message& msg, TileApi& api);
  void HandleBackendResponse(const Message& msg, TileApi& api);
  void SendToClient(uint32_t endpoint, uint64_t client_id, MsgStatus status,
                    const PayloadBuf& data, TileApi& api);

  CapRef netsvc_ = kInvalidCapRef;
  CapRef backend_ = kInvalidCapRef;
  bool registered_ = false;
  uint64_t next_forward_id_ = 1;
  std::map<uint64_t, InFlight> in_flight_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_GATEWAY_H_
