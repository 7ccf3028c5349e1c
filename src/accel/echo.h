// Echo accelerator: replies with its request payload after a configurable
// service time. The workhorse of latency/throughput microbenchmarks.
#ifndef SRC_ACCEL_ECHO_H_
#define SRC_ACCEL_ECHO_H_

#include "src/accel/accel_opcodes.h"
#include "src/accel/serial_engine.h"
#include "src/core/accelerator.h"

namespace apiary {

class EchoAccelerator : public Accelerator {
 public:
  explicit EchoAccelerator(Cycle service_cycles = 0) : service_cycles_(service_cycles) {}

  void OnMessage(const Message& msg, TileApi& api) override {
    if (msg.kind != MsgKind::kRequest) {
      return;
    }
    engine_.Submit(api.now(), service_cycles_, msg, msg.opcode, msg.payload);
  }

  void Tick(TileApi& api) override { engine_.Drain(api); }

  // APIARY-WAKE(tile): hosted accelerator — requests arrive through the
  // owning Tile, whose NI sink wake ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override { return engine_.NextActivity(now); }

  std::string name() const override { return "echo"; }
  uint32_t LogicCellCost() const override { return 3000; }
  uint64_t served() const { return engine_.done(); }

 private:
  Cycle service_cycles_;
  SerialEngine engine_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_ECHO_H_
