// The Apiary remote bridge: location-transparent service invocation across
// boards (or to remote CPU-hosted services).
//
// Section 6, open question 3: "Ideally, we could take advantage of the
// network capabilities of Apiary and place the service on any remote CPU,
// maintaining the ability to use an FPGA independent of its on-node CPU."
// The bridge realizes that: a local accelerator calls the bridge exactly
// like any service; the bridge tunnels the request in an Ethernet frame to
// the peer board's bridge, which invokes the target service with a local
// capability and tunnels the response back. Neither endpoint accelerator
// changes — the call chain is
//   app -> bridgeA -> netsvcA ==wire== netsvcB -> bridgeB -> service (and back).
//
// Exposure is explicit: a board's kernel decides which services the bridge
// may invoke on behalf of remote callers (ExposeService), so the capability
// discipline extends across the wire.
#ifndef SRC_SERVICES_REMOTE_BRIDGE_H_
#define SRC_SERVICES_REMOTE_BRIDGE_H_

#include <map>

#include "src/core/accelerator.h"
#include "src/services/opcodes.h"
#include "src/stats/summary.h"

namespace apiary {

class RemoteBridge : public Accelerator {
 public:
  // Kernel-side wiring: allow remote callers to reach `service` through the
  // endpoint capability this tile holds for it.
  void ExposeService(ServiceId service, CapRef endpoint) {
    exposed_[service] = endpoint;
  }

  void OnBoot(TileApi& api) override;
  void OnMessage(const Message& msg, TileApi& api) override;
  // No Tick: the bridge only relays messages.
  // APIARY-WAKE(tile): purely reactive service — local calls, peer frames
  // and service responses all arrive through the owning Tile's NI sink,
  // whose wake ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    (void)now;
    return kNoActivity;
  }

  std::string name() const override { return "remote_bridge"; }
  uint32_t LogicCellCost() const override { return 10000; }

  const CounterSet& counters() const { return counters_; }

 private:
  // Wire format inside frames (after the u32 board-routing word consumed by
  // the network service): u8 type, u64 tunnel_id, then per type:
  //   kCall:     u32 reply_bridge_service, u32 target_service, u16 opcode,
  //              payload
  //   kResponse: u8 status, payload
  enum WireType : uint8_t { kCall = 1, kResponse = 2 };

  struct OutboundCall {
    Message local_request;  // For Reply() to the local caller.
  };
  struct InboundCall {
    uint32_t peer_board;
    uint32_t reply_bridge_service;
    uint64_t tunnel_id;
  };

  void HandleLocalCall(const Message& msg, TileApi& api);
  void HandleFrame(const Message& msg, TileApi& api);
  void HandleServiceResponse(const Message& msg, TileApi& api);
  void SendFrame(uint32_t peer_board, uint32_t peer_service,
                 const std::vector<uint8_t>& body, TileApi& api);
  void ReplyError(const Message& request, TileApi& api, MsgStatus status);

  CapRef netsvc_ = kInvalidCapRef;
  bool registered_ = false;
  ServiceId my_service_ = kInvalidService;
  std::map<ServiceId, CapRef> exposed_;
  uint64_t next_tunnel_ = 1;
  uint64_t next_local_ = 1;
  std::map<uint64_t, OutboundCall> outbound_;  // tunnel_id -> caller.
  std::map<uint64_t, InboundCall> inbound_;    // local request_id -> peer.
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_REMOTE_BRIDGE_H_
