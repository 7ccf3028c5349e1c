// Fixed-capacity FIFO ring buffer.
//
// The router input VCs and NI injection queues are bounded by construction
// (buffer_depth / inject_queue_flits), yet were modeled with std::deque —
// which heap-allocates block nodes as it churns on every executed cycle.
// RingBuffer allocates its slots exactly once and then pushes/pops with two
// index updates, keeping the per-flit cost allocation-free.
//
// pop_front() resets the vacated slot to a default-constructed T so that
// reference-holding elements (Flit's PacketRef) release their target the
// moment they leave the queue, not when the slot is later overwritten —
// the packet pool's acquire/release balance depends on this.
//
// Ownership contract: RingBuffer is a SINGLE-OWNER queue — producer and
// consumer are the same simulation domain, so there is no synchronization
// and no atomics (apiary-sync-discipline bans them at this layer). Debug
// builds enforce the structural half of the contract: Init() exactly once,
// capacity never exceeded, never pop from empty (the asserts below).
#ifndef SRC_SIM_RING_BUFFER_H_
#define SRC_SIM_RING_BUFFER_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

namespace apiary {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  explicit RingBuffer(uint32_t capacity) { Init(capacity); }

  // Sets the logical capacity and allocates slot storage (power-of-two
  // rounded so the index wrap is a mask). Called once at wiring time.
  void Init(uint32_t capacity) {
    assert(capacity > 0);
    assert(slots_ == nullptr && size_ == 0 && "RingBuffer::Init must run exactly once");
    capacity_ = capacity;
    uint32_t slots = 1;
    while (slots < capacity) {
      slots <<= 1;
    }
    mask_ = slots - 1;
    slots_ = std::make_unique<T[]>(slots);
    head_ = 0;
  }

  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  void push_back(T value) {
    assert(size_ < capacity_);
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  // Moves the head element out and pops — one fewer copy than
  // front()+pop_front() for reference-holding elements.
  T take_front() {
    assert(size_ > 0);
    T value = std::move(slots_[head_]);
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
    return value;
  }

  void clear() {
    while (size_ > 0) {
      pop_front();
    }
  }

 private:
  std::unique_ptr<T[]> slots_;
  uint32_t capacity_ = 0;
  uint32_t mask_ = 0;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
};

}  // namespace apiary

#endif  // SRC_SIM_RING_BUFFER_H_
