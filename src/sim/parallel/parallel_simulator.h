// ParallelSimulator: conservative-PDES driver that decomposes one board into
// spatial shards and executes them on worker threads (ROADMAP item 1).
//
// Synchronization model (DESIGN.md "Parallel simulation engine"):
//
//   * The mesh is cut into banded shards (DomainPartition). Every cross-shard
//     NoC link has exactly one cycle of latency — that hop is the engine's
//     lookahead: what shard A routes at cycle T cannot be seen by shard B
//     before T+1, so both can execute cycle T without speaking.
//   * Each executed cycle runs as
//       root phase    — coordinator only: event queue, then every block with
//                       no partition home (memory, MACs, OS services,
//                       tenants, fault injector), in registration order.
//       shard phase 1 — each worker, for each shard it owns:
//                       ShardCommit + ShardRoute, then publish a route_done
//                       grant stamped with the cycle sequence number. The
//                       grant is this engine's null message: "shard s has
//                       emitted everything it will emit for cycle T".
//       shard phase 2 — each worker, for each shard it owns: wait for the
//                       grants of shards it exchanges flits with, then
//                       ShardTransfer (drain boundary rings, inject) and
//                       tick the shard's blocks (tiles) in registration
//                       order.
//     Phases are separated by acquire/release publication; the coordinator
//     joins the cycle as worker 0 and then waits for all workers before
//     applying removals and advancing the clock, so root-phase code and
//     shard-phase code are never concurrent.
//   * Running phase 1 for *all* owned shards before any phase-2 wait makes
//     the protocol deadlock-free for any threads <= shards: grants only
//     depend on phase-1 work, which never blocks.
//
// Determinism: the schedule is a pure function of the SHARD count, never the
// thread count. Shard-phase work touches only shard-confined state (the
// shard's routers/NIs/tiles, its SimContext pool+arena via
// ThreadDomain::ScopedInstall, its log sink) plus SPSC boundary rings whose
// contents are fixed by the grant protocol — so threads=1,2,...,shards
// produce byte-identical traces, counters, and billing digests
// (tests/engine_differential_test.cc). Note the parallel schedule is its
// own documented tick order (root blocks, then shards in id order); it is
// deterministic, but not the serial Simulator::Step interleaving.
//
// Contract for users: Register/Unregister may be called at build time or
// from root-phase code (events, root-block ticks) — never from a
// shard-phase Tick, which runs concurrently with other shards.
#ifndef SRC_SIM_PARALLEL_PARALLEL_SIMULATOR_H_
#define SRC_SIM_PARALLEL_PARALLEL_SIMULATOR_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/parallel/domain_partition.h"
#include "src/sim/parallel/sharded_fabric.h"
#include "src/sim/simulator.h"

namespace apiary {

struct ParallelConfig {
  // Number of spatial shards. 0 picks min(4, longer mesh axis). Fix this
  // across runs you want byte-comparable; vary only `threads`.
  uint32_t shards = 0;
  // Worker threads (the calling thread is worker 0). Clamped to
  // [1, shards]. threads=1 runs the full parallel schedule serially —
  // the baseline the differential test compares against.
  uint32_t threads = 1;
};

class ParallelSimulator {
 public:
  // Partitions `fabric` (must be idle) and starts the worker pool. Both
  // pointers must outlive this object; the fabric keeps the shard contexts
  // alive until its own destruction (cloned packets outlive the engine).
  ParallelSimulator(Simulator* sim, ShardedFabric* fabric, ParallelConfig config = {});
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;
  // Joins the workers and returns the fabric to serial ticking.
  ~ParallelSimulator();

  // Runs `cycles` additional cycles under the sharded schedule. Quiescent
  // stretches fast-forward exactly like the serial engine (the coordinator
  // reuses Simulator::SkipAhead between executed cycles, while the workers
  // spin idle); skip decisions are identical because boundary rings are
  // drained every executed cycle.
  void Run(Cycle cycles);

  Cycle now() const { return sim_->now(); }
  uint32_t shards() const { return num_shards_; }
  uint32_t threads() const { return threads_; }
  const DomainPartition& partition() const { return partition_; }
  // Shard s's domain context (install a per-shard log sink here to capture
  // that domain's trace).
  SimContext* shard_context(uint32_t shard) { return shard_contexts_[shard]; }

 private:
  // Cache-line-isolated grant slot so spinning on one shard's grant never
  // bounces the line another shard is publishing.
  struct alignas(64) GrantSlot {
    std::atomic<uint64_t> seq{0};
  };

  void ExecuteCycle();
  void WorkerCycle(uint32_t worker, Cycle now);
  void WorkerMain(uint32_t worker);
  void WaitWorkersDone();
  // Rebuilds root_blocks_/shard_blocks_ from the simulator's block list and
  // migrates blocks between the root schedule and the per-shard schedules
  // (called when the list changes; coordinator only, workers at rest).
  void Reclassify();
  // Sharded replacement for Simulator::SkipAhead: the jump target is the
  // minimum over the root schedule, every shard schedule, the fabric's own
  // declaration, and the event queue — the minimum of every block's
  // NextActivity, exactly as the serial engine computes it. No-op under the
  // reference engine.
  void ParallelSkipAhead(Cycle limit);
  // Folds the shard schedules' tick/wake counters into the simulator's
  // (delta-based, so repeated Run() calls never double-count).
  void FoldShardCounters();

  static constexpr uint64_t kTokenCycle = 0;
  static constexpr uint64_t kTokenEndRun = 1;

  Simulator* sim_;
  ShardedFabric* fabric_;
  DomainPartition partition_;
  uint32_t num_shards_ = 0;
  uint32_t threads_ = 1;
  std::vector<SimContext*> shard_contexts_;  // Owned by the fabric.

  // Block classification (coordinator-written, worker-read across the go
  // publication).
  std::vector<Clocked*> root_blocks_;
  std::vector<std::vector<Clocked*>> shard_blocks_;
  size_t classified_count_ = 0;

  // Per-shard active schedules: shard s's blocks live in shard_scheds_[s]
  // while the partition is enabled (the root schedule keeps everything
  // else; the fabric block is scheduled by the shard phases themselves).
  // Worker-confined during shard phases; coordinator-only otherwise.
  std::vector<std::unique_ptr<ActiveSchedule>> shard_scheds_;
  // Last-folded counter snapshots (see FoldShardCounters).
  std::vector<uint64_t> folded_ticked_;
  std::vector<uint64_t> folded_wheel_;
  std::vector<uint64_t> folded_wake_;

  // Worker w owns shards [shard_begin_[w], shard_begin_[w + 1]).
  std::vector<uint32_t> shard_begin_;
  std::vector<uint32_t> owner_of_shard_;

  // Run-level parking (cv: runs are rare) and cycle-level go/done signals
  // (atomics: cycles are hot). go_token_/go_cycle_ are plain fields
  // published by the go_seq_ release store and read after its acquire load.
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  uint64_t run_seq_ = 0;
  bool shutdown_ = false;

  std::atomic<uint64_t> go_seq_{0};
  uint64_t go_token_ = kTokenCycle;
  Cycle go_cycle_ = 0;
  // Monotonic executed-cycle counter stamped into route_done grants (never
  // reset, so stale grants from earlier cycles can never satisfy a wait).
  uint64_t cycle_seq_ = 0;
  std::unique_ptr<GrantSlot[]> route_done_;
  std::atomic<uint32_t> done_{0};

  std::vector<std::thread> workers_;
};

}  // namespace apiary

#endif  // SRC_SIM_PARALLEL_PARALLEL_SIMULATOR_H_
