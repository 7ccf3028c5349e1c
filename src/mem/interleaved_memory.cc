#include "src/mem/interleaved_memory.h"

#include <algorithm>
#include <cstring>

namespace apiary {

InterleavedMemory::InterleavedMemory(DramConfig per_channel, uint32_t channels)
    : capacity_(static_cast<uint64_t>(channels) * per_channel.capacity_bytes) {
  for (uint32_t c = 0; c < channels; ++c) {
    channels_.push_back(std::make_unique<MemoryController>(per_channel));
  }
}

std::vector<InterleavedMemory::Chunk> InterleavedMemory::Split(uint64_t addr,
                                                               uint64_t len) const {
  std::vector<Chunk> chunks;
  const uint32_t n = num_channels();
  uint64_t offset = 0;
  while (offset < len) {
    const uint64_t global = addr + offset;
    const uint64_t stripe_index = global / kInterleaveStripeBytes;
    const uint32_t channel = static_cast<uint32_t>(stripe_index % n);
    const uint64_t local =
        (stripe_index / n) * kInterleaveStripeBytes + global % kInterleaveStripeBytes;
    const uint64_t room = kInterleaveStripeBytes - global % kInterleaveStripeBytes;
    const uint64_t chunk_len = std::min(room, len - offset);
    chunks.push_back(Chunk{channel, local, offset, chunk_len});
    offset += chunk_len;
  }
  return chunks;
}

bool InterleavedMemory::SubmitRead(uint64_t addr, std::span<uint8_t> out,
                                   std::function<void(Cycle)> done) {
  if (!InBounds(addr, out.size())) {
    return false;
  }
  auto op = std::make_shared<Op>();
  op->is_write = false;
  op->addr = addr;
  op->out = out;
  op->done = std::move(done);
  op->chunks = Split(addr, out.size());
  op->remaining = std::make_shared<size_t>(op->chunks.size());
  pending_.push_back(std::move(op));
  counters_.Add("hbm.reads");
  RequestWake();
  return true;
}

bool InterleavedMemory::SubmitWrite(uint64_t addr, std::span<const uint8_t> data,
                                    std::function<void(Cycle)> done) {
  if (!InBounds(addr, data.size())) {
    return false;
  }
  auto op = std::make_shared<Op>();
  op->is_write = true;
  op->addr = addr;
  op->data.assign(data.begin(), data.end());
  op->done = std::move(done);
  op->chunks = Split(addr, data.size());
  op->remaining = std::make_shared<size_t>(op->chunks.size());
  pending_.push_back(std::move(op));
  counters_.Add("hbm.writes");
  RequestWake();
  return true;
}

BitFlipResult InterleavedMemory::InjectBitFlip(uint64_t addr, uint32_t bit) {
  if (!InBounds(addr, 1)) {
    return BitFlipResult::kOutOfRange;
  }
  const Chunk chunk = Split(addr, 1).front();
  return channels_[chunk.channel]->InjectBitFlip(chunk.local_addr, bit);
}

void InterleavedMemory::SetEccEnabled(bool enabled) {
  for (auto& channel : channels_) {
    channel->SetEccEnabled(enabled);
  }
}

void InterleavedMemory::Tick(Cycle now) {
  // Issue as many pending chunks as the channels will take this cycle; ops
  // issue in order but their chunks complete channel-parallel.
  for (auto& op : pending_) {
    while (op->next_chunk < op->chunks.size()) {
      const Chunk& chunk = op->chunks[op->next_chunk];
      MemoryController& mc = *channels_[chunk.channel];
      auto op_ref = op;
      auto on_done = [op_ref](Cycle when) {
        if (--*op_ref->remaining == 0 && op_ref->done) {
          op_ref->done(when);
        }
      };
      bool accepted;
      if (op->is_write) {
        accepted = mc.SubmitWrite(
            chunk.local_addr,
            std::span<const uint8_t>(op->data.data() + chunk.global_offset, chunk.len),
            on_done);
      } else {
        accepted = mc.SubmitRead(
            chunk.local_addr,
            std::span<uint8_t>(op->out.data() + chunk.global_offset, chunk.len), on_done);
      }
      if (!accepted) {
        counters_.Add("hbm.channel_backpressure");
        break;
      }
      ++op->next_chunk;
    }
    if (op->next_chunk < op->chunks.size()) {
      break;  // Preserve inter-op issue order on the stalled channel.
    }
  }
  // Drop fully issued ops from the front (completion is tracked by the
  // shared countdown, so the queue only gates issue order).
  while (!pending_.empty() && pending_.front()->next_chunk == pending_.front()->chunks.size()) {
    pending_.pop_front();
  }
  for (auto& channel : channels_) {
    channel->Tick(now);
  }
}

void InterleavedMemory::DebugWrite(uint64_t addr, std::span<const uint8_t> data) {
  for (const Chunk& chunk : Split(addr, data.size())) {
    channels_[chunk.channel]->DebugWrite(
        chunk.local_addr,
        std::span<const uint8_t>(data.data() + chunk.global_offset, chunk.len));
  }
}

std::vector<uint8_t> InterleavedMemory::DebugRead(uint64_t addr, uint64_t len) const {
  if (!InBounds(addr, len)) {
    return {};
  }
  std::vector<uint8_t> out(len);
  for (const Chunk& chunk : Split(addr, len)) {
    const auto part = channels_[chunk.channel]->DebugRead(chunk.local_addr, chunk.len);
    std::memcpy(out.data() + chunk.global_offset, part.data(), chunk.len);
  }
  return out;
}

}  // namespace apiary
