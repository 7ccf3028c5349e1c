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
#include "src/stats/summary.h"

namespace apiary {

class MemoryService : public Accelerator {
 public:
  MemoryService(ApiaryOs* os, MemoryBackend* memory) : os_(os), memory_(memory) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // The tick only submits/completes in-flight DRAM operations; the memory
  // model itself (registered separately) pins the completion cycles.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;

  std::string name() const override { return "memory_service"; }
  uint32_t LogicCellCost() const override { return 15000; }

  // Data-plane (read/write) operations admitted for `app` since boot (for
  // per-tenant metering; deterministic). Alloc/free/share are control-plane
  // and stay unmetered.
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

  ApiaryOs* os_;
  MemoryBackend* memory_;
  // In-flight DRAM operations, replied to in completion order.
  std::deque<std::shared_ptr<PendingAccess>> pending_;
  std::map<AppId, uint64_t> app_ops_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_MEMORY_SERVICE_H_
