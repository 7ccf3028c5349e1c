#include "src/sim/payload_buf.h"

#include "src/sim/thread_domain.h"
#include "src/sim/sim_context.h"

namespace apiary {
namespace {

// The arena a freshly growing buf binds to: the installed domain's arena,
// or the process fallback outside any domain.
PayloadArena& CurrentArena() {
  SimContext* context = ThreadDomain::Current();
  return context != nullptr ? context->arena() : FallbackPayloadArena();
}

}  // namespace

void PayloadBuf::Grow(size_t min_capacity) {
  if (arena_ == nullptr) {
    arena_ = &CurrentArena();
  }
  // Geometric growth, then rounded up to the arena's size class.
  size_t want = capacity_ * 2;
  if (want < min_capacity) {
    want = min_capacity;
  }
  size_t new_capacity = 0;
  uint8_t* chunk = arena_->Acquire(want, &new_capacity);
  std::memcpy(chunk, data_, size_);
  if (data_ != inline_) {
    arena_->Release(data_, capacity_);
  }
  data_ = chunk;
  capacity_ = new_capacity;
}

void PayloadBuf::ReleaseHeap() {
  if (data_ != inline_) {
    arena_->Release(data_, capacity_);
    data_ = inline_;
    capacity_ = kInlineBytes;
    size_ = 0;
    arena_ = nullptr;  // A reused buf re-binds to the then-current domain.
  }
}

const PayloadArenaStats& PayloadBuf::ArenaStats() {
  return FallbackPayloadArena().stats();
}

void PayloadBuf::ResetArenaStats() { FallbackPayloadArena().ResetStats(); }

void PayloadBuf::TrimArena() { FallbackPayloadArena().Trim(); }

}  // namespace apiary
