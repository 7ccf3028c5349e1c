#include "src/baseline/hosted.h"

#include <memory>

namespace apiary {

HostedSystem::HostedSystem(HostedConfig config, Simulator& sim, ExternalNetwork* network)
    : config_(config), network_(network) {
  sim.Register(this);
  sim.Register(&pcie_to_fpga_);
  sim.Register(&pcie_from_fpga_);
  if (network_ != nullptr) {
    address_ = network_->RegisterEndpoint(this);
  }
}

void HostedSystem::OnFrame(EthFrame frame, Cycle now) {
  (void)now;
  if (cpu_ingress_.size() >= kHostMaxQueueDepth) {
    ++dropped_;
    counters_.Add("hosted.dropped");
    return;
  }
  counters_.Add("hosted.requests");
  cpu_ingress_.push_back(Job{std::move(frame), {}});
}

void HostedSystem::Tick(Cycle now) {
  // The host CPU core: drain egress (completions) with priority, then ingress.
  if (now >= cpu_free_at_) {
    if (!cpu_egress_.empty()) {
      Job job = std::move(cpu_egress_.front());
      cpu_egress_.pop_front();
      cpu_free_at_ = now + kHostCpuEgressCycles;
      cpu_busy_cycles_ += kHostCpuEgressCycles;
      // Reply is emitted when the egress software path finishes; model the
      // delay by completing at cpu_free_at_ via the reply frame's timestamp
      // (the external network adds its own latency).
      pending_replies_.push_back(PendingReply{cpu_free_at_, std::move(job)});
    } else if (!cpu_ingress_.empty()) {
      Job job = std::move(cpu_ingress_.front());
      cpu_ingress_.pop_front();
      cpu_free_at_ = now + kHostCpuIngressCycles;
      cpu_busy_cycles_ += kHostCpuIngressCycles;
      pending_to_pcie_.push_back(PendingReply{cpu_free_at_, std::move(job)});
    }
  }

  // Ingress software completed -> DMA the request across PCIe.
  while (!pending_to_pcie_.empty() && pending_to_pcie_.front().ready_at <= now) {
    auto job = std::make_shared<Job>(std::move(pending_to_pcie_.front().job));
    pending_to_pcie_.pop_front();
    const uint64_t bytes = job->request.payload.size();
    const bool ok = pcie_to_fpga_.Submit(bytes, [this, job](Cycle) {
      fpga_queue_.push_back(std::move(*job));
    });
    if (!ok) {
      ++dropped_;
      counters_.Add("hosted.pcie_drop");
    }
  }

  // FPGA accelerator: serial service.
  if (fpga_busy_ && now >= fpga_free_at_) {
    fpga_busy_ = false;
    auto job = std::make_shared<Job>(std::move(fpga_current_));
    const uint64_t bytes = job->reply_payload.size();
    const bool ok = pcie_from_fpga_.Submit(bytes, [this, job](Cycle) {
      cpu_egress_.push_back(std::move(*job));
    });
    if (!ok) {
      ++dropped_;
      counters_.Add("hosted.pcie_drop");
    }
  }
  if (!fpga_busy_ && !fpga_queue_.empty()) {
    fpga_current_ = std::move(fpga_queue_.front());
    fpga_queue_.pop_front();
    fpga_current_.reply_payload = fpga_current_.request.payload;
    fpga_free_at_ = now + config_.accel_cycles;
    fpga_busy_ = true;
  }

  // Egress software completed -> reply frame to the client.
  while (!pending_replies_.empty() && pending_replies_.front().ready_at <= now) {
    Job job = std::move(pending_replies_.front().job);
    pending_replies_.pop_front();
    EthFrame reply;
    reply.dst_endpoint = job.request.src_endpoint;
    reply.src_endpoint = address_;
    reply.payload = std::move(job.reply_payload);
    if (network_ != nullptr) {
      network_->Send(std::move(reply), now);
    }
    ++completed_;
    counters_.Add("hosted.completed");
  }
}

}  // namespace apiary
