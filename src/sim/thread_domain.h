// ThreadDomain: which simulation domain the current thread belongs to.
//
// These two files (src/sim/thread_domain.{h,cc}) are the one place in the
// tree allowed to hold synchronization and thread-affine state —
// apiary-sync-discipline enforces it. The rest of the simulator stays
// single-threaded code that merely *asks* for its current domain: each
// Simulator owns one SimContext, and a process may run several simulators
// (one per thread, or interleaved on one), so pools, arenas and log sinks
// are found through the installed context, never through a global.
//
// Install is scoped and nestable: Simulator::Run()/RunUntil() install the
// simulator's own context automatically, and threaded harnesses (e.g.
// tests/parallel_smoke_test.cc) install one around an entire build+run so
// construction-time allocations land in the right domain too.
#ifndef SRC_SIM_THREAD_DOMAIN_H_
#define SRC_SIM_THREAD_DOMAIN_H_

namespace apiary {

class SimContext;

class ThreadDomain {
 public:
  // The context installed on this thread, or nullptr outside any domain
  // (then PayloadBuf falls back to the process arena).
  static SimContext* Current();

  // RAII install; restores the previous context on destruction.
  class ScopedInstall {
   public:
    explicit ScopedInstall(SimContext* context);
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;
    ~ScopedInstall();

   private:
    SimContext* previous_;
  };
};

}  // namespace apiary

#endif  // SRC_SIM_THREAD_DOMAIN_H_
