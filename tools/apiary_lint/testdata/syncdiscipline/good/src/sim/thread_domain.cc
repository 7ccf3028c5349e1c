// Good: the current-domain pointer is thread-affine by design and lives in
// the one allow-listed home.
namespace apiary {

class SimContext;

namespace {
// APIARY-SHARED(thread): per-thread current-domain pointer; thread_local by design.
thread_local SimContext* t_current = nullptr;
}  // namespace

SimContext* CurrentDomain() { return t_current; }

}  // namespace apiary
