#include "src/sim/parallel/parallel_simulator.h"

#include <algorithm>
#include <cassert>

#include "src/sim/parallel/thread_domain.h"

namespace apiary {

namespace {

// Bounded spin: on machines with fewer cores than threads (CI runners under
// load, single-core containers) a raw spin would starve the very thread it
// waits for, so yield to the scheduler every so often.
class BoundedSpin {
 public:
  void Relax() {
    if (++spins_ >= 128) {
      spins_ = 0;
      std::this_thread::yield();
    }
  }

 private:
  int spins_ = 0;
};

}  // namespace

ParallelSimulator::ParallelSimulator(Simulator* sim, ShardedFabric* fabric, ParallelConfig config)
    : sim_(sim), fabric_(fabric) {
  const uint32_t width = fabric_->FabricWidth();
  const uint32_t height = fabric_->FabricHeight();
  uint32_t shards = config.shards;
  if (shards == 0) {
    shards = std::min<uint32_t>(4, std::max(width, height));
  }
  partition_ = DomainPartition::Build(width, height, shards);
  num_shards_ = partition_.num_shards;
  threads_ = std::max<uint32_t>(1, std::min(config.threads, num_shards_));

  std::vector<std::unique_ptr<SimContext>> contexts;
  contexts.reserve(num_shards_);
  shard_contexts_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    contexts.push_back(std::make_unique<SimContext>());
    shard_contexts_.push_back(contexts.back().get());
  }
  fabric_->EnablePartition(partition_, std::move(contexts));

  route_done_ = std::make_unique<GrantSlot[]>(num_shards_);
  shard_begin_.resize(threads_ + 1);
  for (uint32_t w = 0; w <= threads_; ++w) {
    shard_begin_[w] = static_cast<uint32_t>(static_cast<uint64_t>(w) * num_shards_ / threads_);
  }
  owner_of_shard_.resize(num_shards_);
  for (uint32_t w = 0; w < threads_; ++w) {
    for (uint32_t s = shard_begin_[w]; s < shard_begin_[w + 1]; ++s) {
      owner_of_shard_[s] = w;
    }
  }

  shard_scheds_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    shard_scheds_.push_back(std::make_unique<ActiveSchedule>());
  }
  folded_ticked_.assign(num_shards_, 0);
  folded_wheel_.assign(num_shards_, 0);
  folded_wake_.assign(num_shards_, 0);
  // The engine classifies new blocks at the top of the next cycle, so even
  // event-registered blocks start ticking one cycle later than under the
  // serial Step() — make the schedule defer them the same way.
  sim_->defer_new_blocks_ = true;

  workers_.reserve(threads_ - 1);
  for (uint32_t w = 1; w < threads_; ++w) {
    workers_.emplace_back(&ParallelSimulator::WorkerMain, this, w);
  }
}

ParallelSimulator::~ParallelSimulator() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    shutdown_ = true;
  }
  run_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  FoldShardCounters();
  // Return every block to the simulator's root schedule (re-adding in
  // blocks_ order preserves the registration-order tick sequence) and
  // conservatively re-activate everything for serial ticking.
  for (size_t i = 0; i < sim_->blocks_.size(); ++i) {
    Simulator::SlotRef& ref = sim_->slot_refs_[i];
    if (ref.sched == &sim_->sched_) {
      continue;
    }
    if (ref.sched != nullptr) {
      ref.sched->Remove(ref.slot);
    }
    ref.sched = &sim_->sched_;
    ref.slot = sim_->sched_.Add(sim_->blocks_[i], sim_->now_);
  }
  sim_->sched_.RebuildAllActive();
  sim_->defer_new_blocks_ = false;
  fabric_->DisablePartition();
}

void ParallelSimulator::Reclassify() {
  root_blocks_.clear();
  shard_blocks_.assign(num_shards_, {});
  Clocked* const fabric_block = fabric_->AsClocked();
  for (size_t i = 0; i < sim_->blocks_.size(); ++i) {
    Clocked* block = sim_->blocks_[i];
    // Pick the schedule that matches the block's phase: the root schedule
    // for root-phase blocks, shard s's schedule for shard-homed blocks, and
    // none for the fabric (the shard phases schedule routing themselves;
    // ParallelSkipAhead polls the fabric's declaration directly).
    ActiveSchedule* want = nullptr;
    if (block != fabric_block) {
      const TileId home = block->PartitionHome();
      if (home != kInvalidTile && home < partition_.shard_of_tile.size()) {
        const uint32_t shard = partition_.shard_of_tile[home];
        shard_blocks_[shard].push_back(block);
        want = shard_scheds_[shard].get();
      } else {
        root_blocks_.push_back(block);
        want = &sim_->sched_;
      }
    }
    Simulator::SlotRef& ref = sim_->slot_refs_[i];
    if (ref.sched != want) {
      if (ref.sched != nullptr) {
        ref.sched->Remove(ref.slot);
      }
      ref.sched = want;
      // Migration happens at the top of a cycle, pre-tick: the block is
      // conservatively active and may tick this cycle, like the reference
      // lists it just joined.
      ref.slot = want != nullptr ? want->Add(block, sim_->now_) : 0;
    }
  }
  classified_count_ = sim_->blocks_.size();
}

void ParallelSimulator::FoldShardCounters() {
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const ActiveSchedule& sched = *shard_scheds_[s];
    sim_->extra_ticked_blocks_ += sched.ticked_blocks() - folded_ticked_[s];
    sim_->extra_wheel_wakes_ += sched.wheel_wakes() - folded_wheel_[s];
    sim_->extra_wake_calls_ += sched.wake_calls() - folded_wake_[s];
    folded_ticked_[s] = sched.ticked_blocks();
    folded_wheel_[s] = sched.wheel_wakes();
    folded_wake_[s] = sched.wake_calls();
  }
}

void ParallelSimulator::WaitWorkersDone() {
  BoundedSpin spin;
  while (done_.load(std::memory_order_acquire) != threads_ - 1) {
    spin.Relax();
  }
  done_.store(0, std::memory_order_relaxed);
}

void ParallelSimulator::WorkerCycle(uint32_t worker, Cycle now) {
  const uint32_t begin = shard_begin_[worker];
  const uint32_t end = shard_begin_[worker + 1];
  const uint64_t seq = cycle_seq_;
  // Phase 1 over ALL owned shards first: grants depend only on phase-1 work,
  // so no wait below can cycle back to an unpublished grant (deadlock-free
  // for any threads <= shards).
  for (uint32_t s = begin; s < end; ++s) {
    ThreadDomain::ScopedInstall install(shard_contexts_[s]);
    fabric_->ShardCommit(s, now);
    fabric_->ShardRoute(s, now);
    route_done_[s].seq.store(seq, std::memory_order_release);
  }
  for (uint32_t s = begin; s < end; ++s) {
    for (const uint32_t n : partition_.neighbors[s]) {
      if (owner_of_shard_[n] == worker) {
        continue;  // Granted by our own phase-1 loop above.
      }
      BoundedSpin spin;
      while (route_done_[n].seq.load(std::memory_order_acquire) < seq) {
        spin.Relax();
      }
    }
    ThreadDomain::ScopedInstall install(shard_contexts_[s]);
    fabric_->ShardTransfer(s, now);
    if (sim_->skip_enabled_) {
      shard_scheds_[s]->ExecuteTicks(now);
      // Establish next cycle's active set while the schedule is still
      // worker-confined: the NextActivity polls here read only shard state
      // (and root state frozen since the root phase).
      shard_scheds_[s]->AdvanceBoundary(now + 1);
    } else {
      for (Clocked* block : shard_blocks_[s]) {
        block->Tick(now);
      }
    }
  }
}

void ParallelSimulator::WorkerMain(uint32_t worker) {
  uint64_t seen_run = 0;
  uint64_t seen_go = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(run_mu_);
      run_cv_.wait(lock, [&] { return shutdown_ || run_seq_ > seen_run; });
      if (shutdown_) {
        return;
      }
      seen_run = run_seq_;
    }
    for (;;) {
      BoundedSpin spin;
      uint64_t go;
      while ((go = go_seq_.load(std::memory_order_acquire)) == seen_go) {
        spin.Relax();
      }
      seen_go = go;
      if (go_token_ == kTokenEndRun) {
        done_.fetch_add(1, std::memory_order_release);
        break;  // Repark until the next Run().
      }
      WorkerCycle(worker, go_cycle_);
      done_.fetch_add(1, std::memory_order_release);
    }
  }
}

void ParallelSimulator::ExecuteCycle() {
  if (sim_->blocks_.size() != classified_count_) {
    Reclassify();
  }
  const Cycle now = sim_->now_;
  const bool active_sets = sim_->skip_enabled_;
  const size_t events_run = sim_->events_.RunUntil(now);
  if (active_sets && events_run > 0) {
    // Event callbacks are opaque; conservatively re-activate every schedule
    // (see Simulator::Step). Workers are parked, so this is coordinator-safe.
    sim_->sched_.RebuildAllActive();
    for (auto& sched : shard_scheds_) {
      sched->RebuildAllActive();
    }
  }
  // Root blocks may Register new blocks mid-tick; they join the list (and a
  // shard, if homed) at the next cycle's Reclassify, exactly like the serial
  // engine's next-cycle pickup.
  if (active_sets) {
    sim_->sched_.ExecuteTicks(now);
  } else {
    const size_t root_count = root_blocks_.size();
    for (size_t i = 0; i < root_count; ++i) {
      root_blocks_[i]->Tick(now);
    }
    sim_->reference_ticked_blocks_ += root_count;
  }
  const size_t blocks_after_root = sim_->blocks_.size();

  ++cycle_seq_;
  if (threads_ > 1) {
    go_cycle_ = now;
    go_token_ = kTokenCycle;
    go_seq_.fetch_add(1, std::memory_order_release);
  }
  WorkerCycle(0, now);
  if (threads_ > 1) {
    WaitWorkersDone();
  }
  // Shard-phase ticks must not mutate the block list (see the header
  // contract) — it is shared, and worker phases run concurrently.
  assert(sim_->blocks_.size() == blocks_after_root &&
         "Register/Unregister called from a shard-phase Tick");
  (void)blocks_after_root;

  if (!active_sets) {
    // Shard ticks ran through the reference lists; count them deterministically
    // on the coordinator (every shard block ticks every cycle in this mode).
    for (uint32_t s = 0; s < num_shards_; ++s) {
      sim_->reference_ticked_blocks_ += shard_blocks_[s].size();
    }
  }
  const bool removed = !sim_->pending_removals_.empty();
  sim_->ApplyPendingRemovals();
  if (removed) {
    Reclassify();
  }
  ++sim_->now_;
  ++sim_->executed_cycles_;
  if (active_sets) {
    // Root-schedule boundary after the workers are done, so boundary-poll
    // blocks (DRAM, MACs, PCIe) observe shard-phase enqueues from this cycle.
    sim_->sched_.AdvanceBoundary(sim_->now_);
  }
}

void ParallelSimulator::ParallelSkipAhead(Cycle limit) {
  if (!sim_->skip_enabled_ || sim_->now_ >= limit) {
    return;
  }
  const Cycle now = sim_->now_;
  Cycle target = sim_->sched_.EarliestWork(now);
  if (target <= now) {
    return;
  }
  for (auto& sched : shard_scheds_) {
    target = std::min(target, sched->EarliestWork(now));
    if (target <= now) {
      return;
    }
  }
  const Cycle fabric_next = fabric_->AsClocked()->NextActivity(now);
  if (fabric_next <= now) {
    return;
  }
  target = std::min(target, fabric_next);
  if (!sim_->events_.empty()) {
    const Cycle due = sim_->events_.NextEventCycle();
    if (due <= now) {
      return;
    }
    target = std::min(target, due);
  }
  target = std::min(target, limit);
  if (target <= now) {
    return;
  }
  sim_->JumpTo(target);
  for (auto& sched : shard_scheds_) {
    sched->AdvanceBoundary(sim_->now_);
  }
}

void ParallelSimulator::Run(Cycle cycles) {
  ThreadDomain::ScopedInstall install(&sim_->context_);
  if (threads_ > 1) {
    {
      std::lock_guard<std::mutex> lock(run_mu_);
      ++run_seq_;
    }
    run_cv_.notify_all();
  }
  const Cycle end = sim_->now_ + cycles;
  while (sim_->now_ < end) {
    ExecuteCycle();
    // Workers spin idle across the jump; they touch no simulation state
    // between cycles, so the coordinator can skip exactly like the serial
    // engine (boundary rings are drained every executed cycle, so pending
    // cross-shard traffic always pins NextActivity at `now`).
    ParallelSkipAhead(end);
  }
  if (threads_ > 1) {
    go_token_ = kTokenEndRun;
    go_seq_.fetch_add(1, std::memory_order_release);
    WaitWorkersDone();
  }
  FoldShardCounters();
}

}  // namespace apiary
