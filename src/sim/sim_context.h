// SimContext: the explicit per-simulator domain context.
//
// Everything a simulation domain allocates or observes in its hot path —
// payload chunks, packet pools, trace sinks — hangs off this object instead
// of process globals. One Simulator owns one SimContext; the Simulator
// installs it as the current thread's domain (src/sim/thread_domain.h) for
// the duration of Run()/RunUntil(), and test harnesses install it around
// construction when they build boards off the run path.
//
// This is the confinement boundary that lets one process run several
// simulators: two Simulators on two threads share no mutable state, which
// the two-thread TSan smoke harness (tests/parallel_smoke_test.cc) proves on
// every CI run.
//
// Layering note: sim is the root layer, so SimContext cannot name types
// from noc/core (PacketPool lives in noc). Higher layers attach their
// domain-local singletons through the typed-erased slot registry below;
// PacketPool::ForContext() in src/noc is the canonical user.
#ifndef SRC_SIM_SIM_CONTEXT_H_
#define SRC_SIM_SIM_CONTEXT_H_

#include "src/sim/logging.h"
#include "src/sim/payload_arena.h"

namespace apiary {

class SimContext {
 public:
  using SlotDtor = void (*)(void*);

  // Fixed slot assignments (keep unique; collisions are a build-time review
  // concern, not a runtime one):
  //   0  noc PacketPool (PacketPool::ForContext)
  static constexpr int kSlotPacketPool = 0;
  static constexpr int kMaxSlots = 8;

  SimContext();
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;
  ~SimContext();

  // The domain-local payload chunk arena. Every PayloadBuf grown while this
  // context is installed draws from (and returns to) it.
  PayloadArena& arena() { return *arena_; }

  // Typed-erased domain-singleton registry for layers above sim. The
  // context runs `dtor(value)` for occupied slots at destruction, in
  // reverse slot order, before retiring the arena (so slot teardown may
  // still release payload chunks into it).
  void* slot(int id) const;
  void set_slot(int id, void* value, SlotDtor dtor);

  // Per-domain log sink. When set, log lines emitted while this context is
  // installed go here instead of the process-wide sink — each simulator
  // of a multi-simulator process captures its own byte-exact trace.
  void SetLogSink(LogSink sink, void* user);
  LogSink log_sink() const { return log_sink_; }
  void* log_sink_user() const { return log_sink_user_; }

 private:
  struct SlotEntry {
    void* value = nullptr;
    SlotDtor dtor = nullptr;
  };

  PayloadArena* arena_;  // Heap-allocated; Retire()d (not deleted) on teardown.
  SlotEntry slots_[kMaxSlots];
  LogSink log_sink_ = nullptr;
  void* log_sink_user_ = nullptr;
};

}  // namespace apiary

#endif  // SRC_SIM_SIM_CONTEXT_H_
