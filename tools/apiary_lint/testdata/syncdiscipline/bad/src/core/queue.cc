// Bad: ad-hoc synchronization outside src/sim/thread_domain.*.
#include <atomic>
#include <mutex>

namespace apiary {

class Queue {
 public:
  void Push(int v);

 private:
  std::mutex mu_;
  std::atomic<int> depth_{0};
};

void Spin() {
  thread_local int depth = 0;
  (void)depth;
}

}  // namespace apiary
