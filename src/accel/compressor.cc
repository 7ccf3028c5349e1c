#include "src/accel/compressor.h"

#include <span>

#include <algorithm>
#include <cstring>

#include "src/core/message.h"

namespace apiary {
namespace {

// Token stream format:
//   0x00 len  <len literal bytes>           (len in [1,255])
//   0x01 len  dist_lo dist_hi               (match of len in [4,255] at dist)
constexpr uint8_t kTokLiteral = 0x00;
constexpr uint8_t kTokMatch = 0x01;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 255;
constexpr size_t kMaxDistance = 0xffff;
constexpr int kHashBits = 15;
constexpr int kMaxChain = 32;

uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

std::vector<uint8_t> LzCompress(const uint8_t* input_data, size_t input_size) {
  const std::span<const uint8_t> input(input_data, input_size);
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  // Header: u32 uncompressed size.
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(input.size() >> (8 * i)));
  }

  std::vector<int32_t> head(1u << kHashBits, -1);
  std::vector<int32_t> chain(input.size(), -1);

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    size_t pos = literal_start;
    while (pos < end) {
      const size_t len = std::min<size_t>(255, end - pos);
      out.push_back(kTokLiteral);
      out.push_back(static_cast<uint8_t>(len));
      out.insert(out.end(), input.begin() + static_cast<ptrdiff_t>(pos),
                 input.begin() + static_cast<ptrdiff_t>(pos + len));
      pos += len;
    }
    literal_start = end;
  };

  size_t i = 0;
  while (i + kMinMatch <= input.size()) {
    const uint32_t h = HashAt(&input[i]);
    // Walk the hash chain looking for the longest usable match.
    size_t best_len = 0;
    size_t best_dist = 0;
    int32_t cand = head[h];
    for (int steps = 0; cand >= 0 && steps < kMaxChain; ++steps) {
      const size_t dist = i - static_cast<size_t>(cand);
      if (dist > kMaxDistance) {
        break;
      }
      size_t len = 0;
      const size_t max_len = std::min(kMaxMatch, input.size() - i);
      while (len < max_len && input[static_cast<size_t>(cand) + len] == input[i + len]) {
        ++len;
      }
      if (len > best_len) {
        best_len = len;
        best_dist = dist;
      }
      cand = chain[static_cast<size_t>(cand)];
    }
    chain[i] = head[h];
    head[h] = static_cast<int32_t>(i);
    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.push_back(kTokMatch);
      out.push_back(static_cast<uint8_t>(best_len));
      out.push_back(static_cast<uint8_t>(best_dist));
      out.push_back(static_cast<uint8_t>(best_dist >> 8));
      // Insert hash entries inside the match so later data can reference it.
      const size_t match_end = i + best_len;
      for (size_t j = i + 1; j + kMinMatch <= input.size() && j < match_end; ++j) {
        const uint32_t hj = HashAt(&input[j]);
        chain[j] = head[hj];
        head[hj] = static_cast<int32_t>(j);
      }
      i = match_end;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(input.size());
  return out;
}

std::vector<uint8_t> LzDecompress(const uint8_t* compressed_data, size_t compressed_size) {
  const std::span<const uint8_t> compressed(compressed_data, compressed_size);
  if (compressed.size() < 4) {
    return {};
  }
  size_t expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected |= static_cast<size_t>(compressed[i]) << (8 * i);
  }
  std::vector<uint8_t> out;
  out.reserve(expected);
  size_t i = 4;
  while (i < compressed.size()) {
    const uint8_t tok = compressed[i++];
    if (tok == kTokLiteral) {
      if (i >= compressed.size()) {
        return {};
      }
      const size_t len = compressed[i++];
      if (i + len > compressed.size()) {
        return {};
      }
      out.insert(out.end(), compressed.begin() + static_cast<ptrdiff_t>(i),
                 compressed.begin() + static_cast<ptrdiff_t>(i + len));
      i += len;
    } else if (tok == kTokMatch) {
      if (i + 3 > compressed.size()) {
        return {};
      }
      const size_t len = compressed[i];
      const size_t dist = static_cast<size_t>(compressed[i + 1]) |
                          (static_cast<size_t>(compressed[i + 2]) << 8);
      i += 3;
      if (dist == 0 || dist > out.size()) {
        return {};
      }
      // Byte-at-a-time copy handles overlapping matches (RLE-style).
      for (size_t k = 0; k < len; ++k) {
        out.push_back(out[out.size() - dist]);
      }
    } else {
      return {};
    }
  }
  return out.size() == expected ? out : std::vector<uint8_t>{};
}

void CompressorAccelerator::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  if (msg.opcode != kOpCompress && msg.opcode != kOpDecompress) {
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  const bool decompress = msg.opcode == kOpDecompress;
  // Compressed output goes down the pipeline when a next stage is wired;
  // decompressed output always answers its requester.
  const CapRef forward_to = decompress ? kInvalidCapRef : next_stage_;
  PayloadBuf out(decompress ? LzDecompress(msg.payload) : LzCompress(msg.payload));
  bytes_in_ += msg.payload.size();
  bytes_out_ += out.size();
  const Cycle compute =
      std::max<Cycle>(1, msg.payload.size() / std::max<uint32_t>(1, bytes_per_cycle_));
  const uint16_t opcode = forward_to != kInvalidCapRef ? next_opcode_ : msg.opcode;
  engine_.Submit(api.now(), compute, msg, opcode, std::move(out), forward_to);
}

CounterSet CompressorAccelerator::counters() const {
  CounterSet set;
  set.AddNonzero("compressor.chunks_in", engine_.submitted());
  set.AddNonzero("compressor.chunks_out", engine_.done());
  set.AddNonzero("compressor.output_failures", engine_.dropped());
  return set;
}

}  // namespace apiary
