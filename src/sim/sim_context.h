// SimContext: the explicit per-simulator domain context.
//
// What a simulation domain allocates or observes in its hot path — payload
// chunks and the trace sink — hangs off this object instead of process
// globals (packet pools belong to each Mesh). One Simulator owns one
// SimContext; the Simulator installs it as the current thread's domain
// (src/sim/thread_domain.h) for the duration of Run()/RunUntil(), and test
// harnesses install it around construction when they build boards off the
// run path.
//
// This is the confinement boundary that lets one process run several
// simulators: two Simulators on two threads share no mutable state, which
// the two-thread TSan smoke harness (tests/parallel_smoke_test.cc) proves on
// every CI run.
#ifndef SRC_SIM_SIM_CONTEXT_H_
#define SRC_SIM_SIM_CONTEXT_H_

#include "src/sim/logging.h"
#include "src/sim/payload_arena.h"

namespace apiary {

class SimContext {
 public:
  SimContext();
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;
  ~SimContext();

  // The domain-local payload chunk arena. Every PayloadBuf grown while this
  // context is installed draws from (and returns to) it.
  PayloadArena& arena() { return *arena_; }

  // Per-domain log sink. When set, log lines emitted while this context is
  // installed go here instead of the process-wide sink — each simulator
  // of a multi-simulator process captures its own byte-exact trace.
  void SetLogSink(LogSink sink, void* user);
  LogSink log_sink() const { return log_sink_; }
  void* log_sink_user() const { return log_sink_user_; }

 private:
  PayloadArena* arena_;  // Heap-allocated; Retire()d (not deleted) on teardown.
  LogSink log_sink_ = nullptr;
  void* log_sink_user_ = nullptr;
};

}  // namespace apiary

#endif  // SRC_SIM_SIM_CONTEXT_H_
