#include "src/sim/thread_domain.h"

namespace apiary {
namespace {

// The confinement mechanism itself: each thread sees only its own
// installed context, so domain-local state never crosses threads.
// APIARY-SHARED(thread): per-thread current-domain pointer; thread_local by design.
thread_local SimContext* t_current = nullptr;

}  // namespace

SimContext* ThreadDomain::Current() { return t_current; }

ThreadDomain::ScopedInstall::ScopedInstall(SimContext* context) : previous_(t_current) {
  t_current = context;
}

ThreadDomain::ScopedInstall::~ScopedInstall() { t_current = previous_; }

}  // namespace apiary
