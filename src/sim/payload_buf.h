// PayloadBuf: the flat byte buffer carried by messages and NoC packets.
//
// The executed-cycle hot path must not touch the heap in steady state
// (DESIGN.md "Hot-path memory discipline"). PayloadBuf replaces
// std::vector<uint8_t> on that path with two tiers:
//   * small-buffer optimization: payloads up to kInlineBytes (two flits'
//     worth — the overwhelmingly common control-message size) live inline
//     in the object, so moving them is a bounded memcpy and they never
//     allocate at all;
//   * pooled backing: larger payloads borrow a chunk from a size-classed
//     freelist (a PayloadArena), so after warmup a growing buffer reuses a
//     previously retired chunk instead of calling operator new.
// Moves steal the chunk pointer, which is what lets Serialize/Deserialize
// pass a payload through the wire stack without copying it.
//
// Domain confinement: the backing arena is the *current thread's installed
// SimContext* arena (src/sim/thread_domain.h), falling back to the
// process arena outside any domain. A buf records its birth arena and
// always releases back to it, so chunks never migrate between domains and
// two Simulators on two threads share no allocator state.
//
// Determinism: the arena only changes *where* bytes live, never their
// values or any simulation-visible ordering; seeded runs are byte-identical
// with the arena enabled or disabled (tests/determinism_test.cc).
#ifndef SRC_SIM_PAYLOAD_BUF_H_
#define SRC_SIM_PAYLOAD_BUF_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "src/sim/payload_arena.h"

namespace apiary {

class PayloadBuf {
 public:
  using value_type = uint8_t;
  using iterator = uint8_t*;
  using const_iterator = const uint8_t*;

  // Inline capacity: two flits (2 x 32B). Covers the fixed message header
  // plus the PutU64-style control payloads services exchange.
  static constexpr size_t kInlineBytes = 64;

  PayloadBuf() = default;
  PayloadBuf(size_t n, uint8_t fill) { resize(n, fill); }
  PayloadBuf(std::initializer_list<uint8_t> init) {
    append(init.begin(), init.size());
  }
  PayloadBuf(const uint8_t* first, const uint8_t* last) {
    append(first, static_cast<size_t>(last - first));
  }
  explicit PayloadBuf(const std::vector<uint8_t>& v) { append(v.data(), v.size()); }

  PayloadBuf(const PayloadBuf& other) { append(other.data(), other.size()); }
  PayloadBuf(PayloadBuf&& other) noexcept { MoveFrom(other); }

  PayloadBuf& operator=(const PayloadBuf& other) {
    if (this != &other) {
      clear();
      append(other.data(), other.size());
    }
    return *this;
  }
  PayloadBuf& operator=(PayloadBuf&& other) noexcept {
    if (this != &other) {
      ReleaseHeap();
      MoveFrom(other);
    }
    return *this;
  }
  PayloadBuf& operator=(const std::vector<uint8_t>& v) {
    assign(v.data(), v.size());
    return *this;
  }
  PayloadBuf& operator=(std::initializer_list<uint8_t> init) {
    clear();
    append(init.begin(), init.size());
    return *this;
  }

  ~PayloadBuf() { ReleaseHeap(); }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint8_t* begin() { return data_; }
  uint8_t* end() { return data_ + size_; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t& operator[](size_t i) { return data_[i]; }
  const uint8_t& operator[](size_t i) const { return data_[i]; }
  uint8_t& front() { return data_[0]; }
  uint8_t& back() { return data_[size_ - 1]; }

  void reserve(size_t n) {
    if (n > capacity_) {
      Grow(n);
    }
  }

  void clear() { size_ = 0; }  // Keeps the backing chunk for reuse.

  void resize(size_t n, uint8_t fill = 0) {
    if (n > size_) {
      reserve(n);
      std::memset(data_ + size_, fill, n - size_);
    }
    size_ = n;
  }

  void push_back(uint8_t byte) {
    if (size_ == capacity_) {
      Grow(size_ + 1);
    }
    data_[size_++] = byte;
  }

  void append(const uint8_t* src, size_t n) {
    if (n == 0) {
      return;
    }
    reserve(size_ + n);
    std::memcpy(data_ + size_, src, n);
    size_ += n;
  }

  void assign(const uint8_t* src, size_t n) {
    clear();
    append(src, n);
  }
  void assign(size_t n, uint8_t fill) {
    clear();
    resize(n, fill);
  }
  template <typename It>
    requires(!std::is_integral_v<It>)
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) {
      push_back(static_cast<uint8_t>(*first));
    }
  }

  // Vector-compatible range insert. The common case (appending at end()) is
  // a bulk copy; mid-buffer inserts shift the tail first.
  template <typename It>
    requires(!std::is_integral_v<It>)
  void insert(uint8_t* pos, It first, It last) {
    const size_t at = static_cast<size_t>(pos - data_);
    const size_t n = static_cast<size_t>(std::distance(first, last));
    if (n == 0) {
      return;
    }
    reserve(size_ + n);
    if (at < size_) {
      std::memmove(data_ + at + n, data_ + at, size_ - at);
    }
    uint8_t* out = data_ + at;
    for (; first != last; ++first) {
      *out++ = static_cast<uint8_t>(*first);
    }
    size_ += n;
  }

  void insert(uint8_t* pos, std::initializer_list<uint8_t> init) {
    insert(pos, init.begin(), init.end());
  }

  // Fill insert (vector's iterator-count-value form).
  void insert(uint8_t* pos, size_t n, uint8_t value) {
    const size_t at = static_cast<size_t>(pos - data_);
    if (n == 0) {
      return;
    }
    reserve(size_ + n);
    if (at < size_) {
      std::memmove(data_ + at + n, data_ + at, size_ - at);
    }
    std::memset(data_ + at, value, n);
    size_ += n;
  }

  std::vector<uint8_t> ToVector() const { return std::vector<uint8_t>(begin(), end()); }

  friend bool operator==(const PayloadBuf& a, const PayloadBuf& b) {
    return a.size_ == b.size_ && std::memcmp(a.data_, b.data_, a.size_) == 0;
  }
  friend bool operator!=(const PayloadBuf& a, const PayloadBuf& b) { return !(a == b); }
  friend bool operator==(const PayloadBuf& a, const std::vector<uint8_t>& b) {
    // An empty vector's data() may be null, which memcmp must never see.
    return a.size_ == b.size() && (a.size_ == 0 || std::memcmp(a.data_, b.data(), a.size_) == 0);
  }
  friend bool operator==(const std::vector<uint8_t>& a, const PayloadBuf& b) {
    return b == a;
  }

  // --- Fallback-arena observability (tests). ---
  // These operate on the process fallback arena — the one serving bufs
  // created outside any installed SimContext. Code running under a
  // Simulator reaches its domain arena via sim.context().arena() instead.
  static const PayloadArenaStats& ArenaStats();
  static void ResetArenaStats();
  // Frees every parked freelist chunk (leak-audit hook for tests).
  static void TrimArena();

 private:
  void MoveFrom(PayloadBuf& other) noexcept {
    if (other.data_ == other.inline_) {
      data_ = inline_;
      capacity_ = kInlineBytes;
      size_ = other.size_;
      // An inline payload always fits the inline buffer. Saying so lets GCC
      // drop the out-of-bounds copy it otherwise sees (and warns about,
      // -Warray-bounds) when a moved Message's heap payload size is known.
      if (size_ > kInlineBytes) {
        __builtin_unreachable();
      }
      std::memcpy(inline_, other.inline_, size_);
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      arena_ = other.arena_;  // The chunk's birth arena rides with it.
      other.data_ = other.inline_;
      other.capacity_ = kInlineBytes;
      other.arena_ = nullptr;
    }
    other.size_ = 0;
  }

  // Out-of-line slow paths (payload_buf.cc): arena acquire/release.
  void Grow(size_t min_capacity);
  void ReleaseHeap();

  size_t size_ = 0;
  size_t capacity_ = kInlineBytes;
  uint8_t* data_ = inline_;
  // Birth arena of the current heap chunk (null while inline). Chosen at
  // first Grow from the installed SimContext; releases always return here.
  PayloadArena* arena_ = nullptr;
  uint8_t inline_[kInlineBytes];
};

}  // namespace apiary

#endif  // SRC_SIM_PAYLOAD_BUF_H_
