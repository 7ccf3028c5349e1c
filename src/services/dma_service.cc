#include "src/services/dma_service.h"

#include <algorithm>

namespace apiary {

void DmaService::ReplyError(const Message& msg, TileApi& api, MsgStatus status) {
  counters_.Add("dma.errors");
  api.ReplyStatus(msg, status);
}

void DmaService::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  if (msg.opcode != kOpDmaCopy) {
    ReplyError(msg, api, MsgStatus::kBadRequest);
    return;
  }
  if (msg.payload.size() < 20) {
    ReplyError(msg, api, MsgStatus::kBadRequest);
    return;
  }
  // Both segments must have been presented as capabilities: the monitor
  // attached grant (source) and grant2 (destination).
  if (!msg.grant.valid || !msg.grant.can_read) {
    counters_.Add("dma.no_src_grant");
    ReplyError(msg, api, MsgStatus::kNoCapability);
    return;
  }
  if (!msg.grant2.valid || !msg.grant2.can_write) {
    counters_.Add("dma.no_dst_grant");
    ReplyError(msg, api, MsgStatus::kNoCapability);
    return;
  }
  const uint64_t src_offset = GetU64(msg.payload, 0);
  const uint64_t dst_offset = GetU64(msg.payload, 8);
  const uint32_t len = GetU32(msg.payload, 16);
  if (len == 0 || src_offset >= msg.grant.segment.length ||
      len > msg.grant.segment.length - src_offset ||
      dst_offset >= msg.grant2.segment.length ||
      len > msg.grant2.segment.length - dst_offset) {
    counters_.Add("dma.seg_faults");
    ReplyError(msg, api, MsgStatus::kSegFault);
    return;
  }
  auto job = std::make_shared<Job>();
  job->request = msg;
  job->src_addr = msg.grant.segment.base + src_offset;
  job->dst_addr = msg.grant2.segment.base + dst_offset;
  job->total = len;
  job->staging.resize(len);
  jobs_.push_back(std::move(job));
  counters_.Add("dma.copies");
  counters_.Add("dma.bytes", len);
  (void)api;
}

void DmaService::Tick(TileApi& api) {
  for (auto& job : jobs_) {
    // Issue chunked reads; each completed read chains a write of the chunk.
    while (job->read_issued < job->total) {
      const uint32_t offset = job->read_issued;
      const uint32_t chunk = std::min(kDmaChunkBytes, job->total - offset);
      auto span = std::span<uint8_t>(job->staging.data() + offset, chunk);
      auto job_ref = job;
      const bool ok = memory_->SubmitRead(
          job->src_addr + offset, span, [this, job_ref, offset, chunk](Cycle) {
            auto data = std::span<const uint8_t>(job_ref->staging.data() + offset, chunk);
            const bool accepted = memory_->SubmitWrite(
                job_ref->dst_addr + offset, data,
                [job_ref, chunk](Cycle) { job_ref->written_done += chunk; });
            if (!accepted) {
              // Bank queue full: account it as pending and let Tick retry by
              // leaving written_done short; mark for rewrite.
              job_ref->rewrites.push_back({offset, chunk});
            }
          });
      if (!ok) {
        break;  // DRAM backpressure: resume next cycle.
      }
      job->read_issued += chunk;
    }
    // Retry any writes that hit bank backpressure.
    while (!job->rewrites.empty()) {
      auto [offset, chunk] = job->rewrites.front();
      auto data = std::span<const uint8_t>(job->staging.data() + offset, chunk);
      auto job_ref = job;
      if (!memory_->SubmitWrite(job->dst_addr + offset, data,
                                [job_ref, chunk = chunk](Cycle) {
                                  job_ref->written_done += chunk;
                                })) {
        break;
      }
      job->rewrites.pop_front();
    }
  }
  // Complete jobs in FIFO order once fully written.
  while (!jobs_.empty() && jobs_.front()->written_done >= jobs_.front()->total) {
    auto job = jobs_.front();
    jobs_.pop_front();
    Message reply;
    reply.opcode = kOpDmaCopy;
    PutU32(reply.payload, job->total);
    if (!api.Reply(job->request, std::move(reply)).ok()) {
      counters_.Add("dma.reply_failures");
    }
    counters_.Add("dma.completions");
  }
}

}  // namespace apiary
