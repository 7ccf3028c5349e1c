// Multi-context accelerator host: Apiary's process abstraction.
//
// Section 4.2: "we define our process granularity as one user context
// running on one accelerator... Processes or contexts on the same physical
// accelerator are mutually trusting, but should still be fault-isolated."
// Section 4.4: "If an error occurs in one user context within an
// accelerator, other independent processes on the accelerator can keep
// running" — achievable because this host is preemptible: each context's
// architectural state is externalized, so a faulty context is swapped out
// (marked dead and answered with errors) while its siblings continue.
//
// Messages are routed to contexts by the Message::dst_process field.
#ifndef SRC_ACCEL_MULTI_CONTEXT_H_
#define SRC_ACCEL_MULTI_CONTEXT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/core/accelerator.h"
#include "src/stats/summary.h"

namespace apiary {

struct ContextResult {
  MsgStatus status = MsgStatus::kOk;
  PayloadBuf payload;
  // True when the context hit an unrecoverable internal error; the host
  // fault policy decides whether only this context dies or the whole tile.
  bool fault = false;
};

// One user context: pure request->response logic with externalizable state.
class ContextLogic {
 public:
  virtual ~ContextLogic() = default;
  virtual ContextResult OnRequest(uint16_t opcode, const PayloadBuf& payload) = 0;
  virtual std::vector<uint8_t> SaveState() { return {}; }
  virtual void RestoreState(std::span<const uint8_t> state) { (void)state; }
  virtual std::string name() const = 0;
};

class MultiContextHost : public Accelerator {
 public:
  // When true (the preemptible model), a faulting context is individually
  // killed; when false (concurrent-only), any context fault fail-stops the
  // whole tile via RaiseFault — the two models of Section 4.4.
  explicit MultiContextHost(bool per_context_isolation = true)
      : per_context_isolation_(per_context_isolation) {}

  // Returns the ProcessId messages must carry to reach this context.
  ProcessId AddContext(std::unique_ptr<ContextLogic> logic);

  void OnMessage(const Message& msg, TileApi& api) override;

  std::string name() const override { return "multi_context_host"; }
  uint32_t LogicCellCost() const override { return 25000; }

  bool IsPreemptible() const override { return per_context_isolation_; }
  std::vector<uint8_t> SaveState() override;
  void RestoreState(std::span<const uint8_t> state) override;

  bool context_alive(ProcessId pid) const;
  const CounterSet& counters() const { return counters_; }

 private:
  struct Slot {
    std::unique_ptr<ContextLogic> logic;
    bool alive = true;
    uint64_t served = 0;
  };

  bool per_context_isolation_;
  std::vector<Slot> contexts_;
  CounterSet counters_;
};

// --- Stock contexts used by tests, benches and examples. ---

// Echoes request payloads.
class EchoContext : public ContextLogic {
 public:
  ContextResult OnRequest(uint16_t opcode, const PayloadBuf& payload) override {
    (void)opcode;
    return ContextResult{MsgStatus::kOk, payload, false};
  }
  std::string name() const override { return "echo_ctx"; }
};

// Stateful accumulator: payload u64 delta -> reply u64 running total. State
// survives preemption via Save/Restore.
class CounterContext : public ContextLogic {
 public:
  ContextResult OnRequest(uint16_t opcode, const PayloadBuf& payload) override;
  std::vector<uint8_t> SaveState() override;
  void RestoreState(std::span<const uint8_t> state) override;
  std::string name() const override { return "counter_ctx"; }
  uint64_t total() const { return total_; }

 private:
  uint64_t total_ = 0;
};

// Faults after serving N requests.
class FaultyContext : public ContextLogic {
 public:
  explicit FaultyContext(uint64_t healthy_requests) : healthy_(healthy_requests) {}
  ContextResult OnRequest(uint16_t opcode, const PayloadBuf& payload) override;
  std::string name() const override { return "faulty_ctx"; }

 private:
  uint64_t healthy_;
  uint64_t served_ = 0;
};

}  // namespace apiary

#endif  // SRC_ACCEL_MULTI_CONTEXT_H_
