// The Apiary memory service: segment allocation and access, hosted on a
// tile and reached by messages like any other service (Sections 4.3, 4.6).
//
// Allocation mints a memory capability into the *requester's* monitor (the
// service is trusted OS logic and uses the kernel's management interface).
// Read/write requests must present the capability: the sending monitor
// attaches a SegmentGrant, and this service enforces segment bounds — a wild
// access is answered with kSegFault, never performed.
#ifndef SRC_SERVICES_MEMORY_SERVICE_H_
#define SRC_SERVICES_MEMORY_SERVICE_H_

#include <deque>
#include <map>
#include <memory>

#include "src/core/accelerator.h"
#include "src/core/kernel.h"
#include "src/mem/memory_controller.h"
#include "src/services/opcodes.h"
#include "src/sim/rate_limiter.h"
#include "src/stats/summary.h"

namespace apiary {

class MemoryService : public Accelerator {
 public:
  MemoryService(ApiaryOs* os, MemoryBackend* memory) : os_(os), memory_(memory) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // The tick only submits/completes in-flight DRAM operations; the memory
  // model itself (registered separately) pins the completion cycles. With
  // deferred (quota-blocked) accesses queued, the next window boundary is
  // when allowance returns.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;

  std::string name() const override { return "memory_service"; }
  uint32_t LogicCellCost() const override { return 15000; }

  // Memory-channel share for one app: at most `ops_per_window` read/write
  // operations per `window_cycles` window. Accesses beyond the share are
  // deferred (bounded queue) and served when the window rolls — quota
  // pressure degrades to latency, not loss. A zero `ops_per_window` clears
  // the share. Alloc/free/share are control-plane and stay unmetered.
  void SetAppShare(AppId app, uint64_t ops_per_window, Cycle window_cycles);

  // Data-plane operations admitted for `app` since boot (for per-tenant
  // metering; deterministic).
  uint64_t AppOps(AppId app) const;

  const CounterSet& counters() const { return counters_; }

 private:
  struct PendingAccess {
    Message request;           // Retained so we can Reply on completion.
    std::vector<uint8_t> buffer;
    bool is_write = false;
    bool submitted = false;
    bool complete = false;
    uint64_t addr = 0;
  };

  void HandleAlloc(const Message& msg, TileApi& api);
  void HandleFree(const Message& msg, TileApi& api);
  void HandleShare(const Message& msg, TileApi& api);
  void HandleAccess(const Message& msg, TileApi& api, bool is_write);
  void ReplyError(const Message& msg, TileApi& api, MsgStatus status);

  // True when `app` has share allowance at `now` (unmetered apps always do).
  bool ShareAllows(AppId app, Cycle now);
  // Validated access admitted past the share check: charge and queue it.
  void AdmitAccess(const Message& msg, bool is_write, Cycle now);

  ApiaryOs* os_;
  MemoryBackend* memory_;
  // In-flight DRAM operations, replied to in completion order.
  std::deque<std::shared_ptr<PendingAccess>> pending_;
  // Per-app channel shares and the deferral queue for over-quota accesses.
  // Bounded: past the bound the service answers kBackpressure so a flooding
  // app throttles itself instead of wedging the service.
  std::map<AppId, WindowMeter> shares_;
  struct DeferredAccess {
    Message request;
    bool is_write = false;
  };
  std::deque<DeferredAccess> deferred_;
  static constexpr size_t kMaxDeferred = 64;
  std::map<AppId, uint64_t> app_ops_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_MEMORY_SERVICE_H_
