// The accelerator programming model.
//
// An accelerator is untrusted application (or service) logic occupying a
// tile's dynamically reconfigurable slot. It interacts with the rest of the
// system exclusively through the TileApi its monitor exposes — Apiary's
// standard, portable API-level interface (Section 4.3).
//
// Fault model (Section 4.4): every accelerator is at least *concurrent*
// (cooperative, fail-stop on error). An accelerator may additionally be
// *preemptible* by externalizing its architectural state via
// SaveState/RestoreState, which lets the monitor swap a faulty process out
// while its siblings keep running.
#ifndef SRC_CORE_ACCELERATOR_H_
#define SRC_CORE_ACCELERATOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/capability.h"
#include "src/core/message.h"
#include "src/sim/clocked.h"
#include "src/sim/types.h"

namespace apiary {

// Result of TileApi::Send. kOk means the message was accepted for delivery;
// every other value is a local, synchronous rejection by the monitor.
struct SendResult {
  MsgStatus status = MsgStatus::kOk;
  bool ok() const { return status == MsgStatus::kOk; }
};

// The portable interface an accelerator sees. Implemented by the monitor;
// identical on every tile and every board (the paper's portability goal).
// Call it only from the owning tile's callbacks (OnBoot, OnMessage, Tick):
// a send queued from outside sits in the monitor's outbox with nothing to
// wake the parked tile and flush it. Harness code drives a tile through an
// accelerator instead (e.g. ProbeAccelerator::EnqueueSend).
class TileApi {
 public:
  virtual ~TileApi() = default;

  // Sends `msg` using endpoint capability `endpoint`. If `mem` (and
  // optionally `mem2`) name memory capabilities, the monitor attaches the
  // corresponding segment grants to the message (capability presentation,
  // e.g. for the memory service, or source+destination for a DMA copy).
  virtual SendResult Send(Message msg, CapRef endpoint, CapRef mem, CapRef mem2) = 0;
  SendResult Send(Message msg, CapRef endpoint) {
    return Send(std::move(msg), endpoint, kInvalidCapRef, kInvalidCapRef);
  }
  SendResult Send(Message msg, CapRef endpoint, CapRef mem) {
    return Send(std::move(msg), endpoint, mem, kInvalidCapRef);
  }

  // Replies to a previously received request. Delivery of a request confers
  // an implicit, single-use reply right, so services answer requesters they
  // hold no explicit endpoint capability for.
  virtual SendResult Reply(const Message& request, Message response, CapRef mem) = 0;
  SendResult Reply(const Message& request, Message response) {
    return Reply(request, std::move(response), kInvalidCapRef);
  }
  // Replies with `status` and no payload, under the request's opcode.
  SendResult ReplyStatus(const Message& request, MsgStatus status) {
    Message response;
    response.opcode = request.opcode;
    response.status = status;
    return Reply(request, std::move(response), kInvalidCapRef);
  }

  // Pops the next delivered message, if any.
  virtual std::optional<Message> Receive() = 0;

  // Resolves a logical service name to an endpoint capability reference
  // (searching this tile's capability table).
  virtual CapRef LookupService(ServiceId service) = 0;

  // Introspection.
  virtual Cycle now() const = 0;
  virtual TileId tile() const = 0;
  virtual AppId app() const = 0;
  // This tile's own logical service name (set by the kernel at deploy).
  virtual ServiceId service() const = 0;

  // Cooperative error reporting: the accelerator detected an internal error
  // it cannot recover from. The monitor applies the fault policy
  // (fail-stop, or context swap when preemptible).
  virtual void RaiseFault(const std::string& reason) = 0;
};

class Accelerator {
 public:
  virtual ~Accelerator() = default;

  // Called once when the tile comes out of (re)configuration.
  virtual void OnBoot(TileApi& api) { (void)api; }

  // Called for each delivered message.
  virtual void OnMessage(const Message& msg, TileApi& api) = 0;

  // Called every cycle for autonomous compute (pipelines, timers).
  virtual void Tick(TileApi& api) { (void)api; }

  // Quiescence hook mirroring Clocked::NextActivity, forwarded by the tile:
  // the earliest future cycle this accelerator's Tick() matters again, a
  // value <= now for "active every cycle" (the safe default), or
  // kNoActivity (~Cycle{0}) when it only reacts to messages. Message
  // arrival re-arms the tile through its NI's sink wake.
  [[nodiscard]] virtual Cycle NextActivity(Cycle now) const { return now; }

  // No caller: the simulator's clock is the only clock, so nothing is
  // brought forward across a skipped window. Kept only because
  // perfbench/trace.h overrides it.
  virtual void OnFastForward(Cycle resume_cycle) { (void)resume_cycle; }

  // No reader: there is one scheduling contract, and every accelerator
  // honors it (whoever changes what its NextActivity reads wakes its tile).
  // Kept only because perfbench/trace.h overrides it.
  [[nodiscard]] virtual Clocked::SchedPolicy SchedulingPolicy() const {
    return Clocked::SchedPolicy::kActiveSet;
  }

  virtual std::string name() const = 0;

  // Logic-cell footprint charged against the tile region.
  virtual uint32_t LogicCellCost() const { return 20000; }

  // --- Preemption support (Section 4.4). ---
  virtual bool IsPreemptible() const { return false; }
  virtual std::vector<uint8_t> SaveState() { return {}; }
  virtual void RestoreState(std::span<const uint8_t> state) { (void)state; }
};

}  // namespace apiary

#endif  // SRC_CORE_ACCELERATOR_H_
