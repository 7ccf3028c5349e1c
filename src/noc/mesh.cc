#include "src/noc/mesh.h"

#include <bit>
#include <cassert>
#include <cstdlib>

namespace apiary {

namespace {
// The port a flit leaving through `out` arrives on downstream.
constexpr RouterPort kOppositePort[4] = {kPortSouth, kPortNorth, kPortWest, kPortEast};

// Calls f(tile) for every bit set in `set`'s `bits` member, in ascending
// tile order. Each word is read when the walk reaches it, so bits set in
// later words by f itself are visited too.
template <typename Set, typename F>
void ForEachTile(const Set& set, uint64_t Set::value_type::*bits, F&& f) {
  for (size_t w = 0; w < set.size(); ++w) {
    for (uint64_t word = set[w].*bits; word != 0; word &= word - 1) {
      f(static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
}
}  // namespace

Mesh::Mesh(MeshConfig config, SimContext* context)
    : config_(config), live_(MakeLiveSet(config.width * config.height)) {
  if (context != nullptr) {
    pool_ = &PacketPool::ForContext(*context);
  } else {
    owned_pool_ = std::make_unique<PacketPool>();
    pool_ = owned_pool_.get();
  }
  const uint32_t n = num_tiles();
  routers_.reserve(n);
  nis_.reserve(n);
  for (uint32_t y = 0; y < config_.height; ++y) {
    for (uint32_t x = 0; x < config_.width; ++x) {
      routers_.push_back(std::make_unique<Router>(x, y, config_.width, config_.height,
                                                  config_.router_buffer_depth));
    }
  }
  for (uint32_t t = 0; t < n; ++t) {
    nis_.push_back(std::make_unique<NetworkInterface>(t, routers_[t].get(),
                                                      config_.ni_inject_queue_flits,
                                                      config_.force_single_vc, pool_));
    routers_[t]->SetLocalInterface(nis_[t].get());
  }
  // Wire up the grid.
  for (uint32_t y = 0; y < config_.height; ++y) {
    for (uint32_t x = 0; x < config_.width; ++x) {
      Router* r = routers_[y * config_.width + x].get();
      if (y > 0) {
        r->SetNeighbor(kPortNorth, routers_[(y - 1) * config_.width + x].get());
      }
      if (y + 1 < config_.height) {
        r->SetNeighbor(kPortSouth, routers_[(y + 1) * config_.width + x].get());
      }
      if (x + 1 < config_.width) {
        r->SetNeighbor(kPortEast, routers_[y * config_.width + x + 1].get());
      }
      if (x > 0) {
        r->SetNeighbor(kPortWest, routers_[y * config_.width + x - 1].get());
      }
    }
  }
  BindLiveSets();
  express_.Configure(this, n, nullptr, 0);
}

void Mesh::BindLiveSets() {
  for (uint32_t t = 0; t < num_tiles(); ++t) {
    routers_[t]->SetLiveWord(&live_[t / 64].fresh_routers);
    nis_[t]->SetLiveWord(&live_[t / 64].fresh_nis);
  }
}

bool Mesh::LiveBusy(const LiveSet& set) {
  for (const LiveWord& w : set) {
    if ((w.routers | w.fresh_routers | w.nis | w.fresh_nis) != 0) {
      return true;
    }
  }
  return false;
}

void Mesh::MergeFresh(LiveSet& set) {
  for (LiveWord& w : set) {
    w.routers |= w.fresh_routers;
    w.fresh_routers = 0;
    w.nis |= w.fresh_nis;
    w.fresh_nis = 0;
  }
}

void Mesh::CompactDead(LiveSet& set) {
  ForEachTile(set, &LiveWord::routers, [&](uint32_t t) {
    if (!routers_[t]->HasBufferedFlits()) {
      set[t / 64].routers &= ~(uint64_t{1} << (t % 64));
    }
  });
  ForEachTile(set, &LiveWord::nis, [&](uint32_t t) {
    if (!nis_[t]->HasPendingInject()) {
      set[t / 64].nis &= ~(uint64_t{1} << (t % 64));
    }
  });
}

void Mesh::Tick(Cycle now) {
  // A partitioned mesh is driven through the ShardCommit/Route/Transfer
  // phases by the parallel engine; serial ticking would bypass the boundary
  // shims and double-run the phases.
  assert(!partitioned() && "partitioned mesh must be driven by ParallelSimulator");
  if (express_enabled_) {
    ExpressTickTop(express_, live_, now);
  }
  MergeFresh(live_);
  // Same three phases as a full sweep, over the busy subset only. Staged
  // flits imply occupancy and occupancy implies a live bit, so
  // committing live routers commits every staged flit; RouteCycle and
  // InjectCycle are no-ops on empty members, so skipping them is exact.
  ForEachTile(live_, &LiveWord::routers, [&](uint32_t t) { routers_[t]->CommitStaged(); });
  if (fault_model_ != nullptr && fault_model_->NextMeshActivity(now) <= now) {
    // An open stall window charges router.fault_stalled_cycles on every
    // wedged router, busy or not — only the full sweep reproduces that.
    for (auto& r : routers_) {
      r->RouteCycle(now);
    }
  } else {
    ForEachTile(live_, &LiveWord::routers, [&](uint32_t t) { routers_[t]->RouteCycle(now); });
  }
  ForEachTile(live_, &LiveWord::nis, [&](uint32_t t) { nis_[t]->InjectCycle(now); });
  CompactDead(live_);
}

Cycle Mesh::NextActivity(Cycle now) const {
  // An active corridor keeps the mesh ticking on every executed cycle — the
  // exact cycles the real run would execute with those flits in flight, so
  // skip/executed-cycle counts stay byte-identical. Each such tick costs
  // O(corridors), not O(busy routers), which is where the B5 win comes from.
  if (express_.AnyActive()) {
    return now;
  }
  for (const ExpressLane& lane : shard_express_) {
    if (lane.AnyActive()) {
      return now;
    }
  }
  // The live sets are exact between ticks (every accept/inject sets its
  // bit, compaction clears drained ones), so the busy check is a few word
  // tests instead of an O(tiles) scan.
  if (LiveBusy(live_)) {
    return now;
  }
  for (const LiveSet& set : shard_live_) {
    if (LiveBusy(set)) {
      return now;
    }
  }
  // Empty fabric: only the fault model (stall windows charge a counter every
  // open cycle) can still need per-cycle routing work.
  return fault_model_ != nullptr ? fault_model_->NextMeshActivity(now) : kNoActivity;
}

void Mesh::SetFaultModel(NocFaultModel* model) {
  // Corridors were planned against the old model's quiet declaration.
  MaterializeExpress();
  fault_model_ = model;
  for (auto& r : routers_) {
    r->SetFaultModel(model);
  }
}

void Mesh::SetArbClassWeight(uint8_t cls, uint32_t weight) {
  // SetClassWeight zeroes every router's deficits and may flip the weighted
  // arbitration path on or off — exactly the reconfiguration the corridor
  // replay must not paper over. Materialize first, then reconfigure.
  MaterializeExpress();
  for (auto& r : routers_) {
    r->SetClassWeight(cls, weight);
  }
}

void Mesh::SetExpressEnabled(bool enabled) {
  if (!enabled) {
    MaterializeExpress();
  }
  express_enabled_ = enabled;
  express_.SetEnabled(enabled && !partitioned());
  for (ExpressLane& lane : shard_express_) {
    lane.SetEnabled(enabled);
  }
  BindExpressLanes();
}

void Mesh::BindExpressLanes() {
  for (uint32_t t = 0; t < num_tiles(); ++t) {
    ExpressLane* lane = nullptr;
    if (express_enabled_) {
      lane = partitioned() ? &shard_express_[partition_.shard_of_tile[t]] : &express_;
    }
    nis_[t]->SetExpressLane(lane);
  }
}

void Mesh::MaterializeExpress() {
  express_.MaterializeAll();
  for (ExpressLane& lane : shard_express_) {
    lane.MaterializeAll();
  }
}

ExpressStats Mesh::AggregateExpressStats() const {
  ExpressStats total = folded_express_;
  total.Fold(express_.stats());
  for (const ExpressLane& lane : shard_express_) {
    total.Fold(lane.stats());
  }
  return total;
}

void Mesh::ExpressTickTop(ExpressLane& lane, LiveSet& set, Cycle now) {
  lane.RunCompletions(now);
  if (lane.AnyActive()) {
    // Conflict scan over the domain's busy sets. Materializing a corridor
    // sets its own path routers' and source NI's fresh bits, which the walk
    // may then visit; those can never conflict with the survivors (the
    // path/zone disjointness invariant), so such visits are no-ops. The
    // order corridors materialize in does not matter either: each one
    // touches only its own path, its source queue and ejection counters.
    auto routers = [&](uint32_t t) {
      if (lane.AnyActive()) {
        lane.MaterializeTouchingRouter(t);
      }
    };
    auto nis = [&](uint32_t t) {
      if (lane.AnyActive()) {
        lane.MaterializeTouchingNi(t);
      }
    };
    ForEachTile(set, &LiveWord::routers, routers);
    ForEachTile(set, &LiveWord::fresh_routers, routers);
    ForEachTile(set, &LiveWord::nis, nis);
    ForEachTile(set, &LiveWord::fresh_nis, nis);
  }
  // Every observer until the next tick sees end-of-`now` state, really or
  // analytically — the uniform materialization boundary.
  lane.SetStateTime(now);
}

uint32_t Mesh::Hops(TileId a, TileId b) const {
  const int ax = static_cast<int>(a % config_.width);
  const int ay = static_cast<int>(a / config_.width);
  const int bx = static_cast<int>(b % config_.width);
  const int by = static_cast<int>(b / config_.width);
  return static_cast<uint32_t>(std::abs(ax - bx) + std::abs(ay - by));
}

CounterSet Mesh::AggregateCounters() const {
  CounterSet total;
  for (const auto& r : routers_) {
    total.Merge(r->counters());
  }
  for (const auto& ni : nis_) {
    total.Merge(ni->counters());
  }
  return total;
}

Histogram Mesh::AggregateLatency() const {
  Histogram total;
  for (const auto& ni : nis_) {
    total.Merge(ni->latency_histogram());
  }
  return total;
}

uint64_t Mesh::TotalFlitsRouted() const {
  uint64_t total = 0;
  for (const auto& r : routers_) {
    total += r->flits_routed();
  }
  return total;
}

uint64_t Mesh::TotalArbProbes() const {
  uint64_t total = 0;
  for (const auto& r : routers_) {
    total += r->arb_probes();
  }
  return total;
}

uint64_t Mesh::LogicCellCost() const {
  return static_cast<uint64_t>(num_tiles()) *
         (Router::LogicCellCost(config_.router_buffer_depth) +
          NetworkInterface::LogicCellCost());
}

void Mesh::EnablePartition(const DomainPartition& partition,
                           std::vector<std::unique_ptr<SimContext>> shard_contexts) {
  assert(!partitioned());
  // Corridors hold drained injection queues; flush them back before the
  // idle asserts below (an active corridor IS in-flight traffic).
  MaterializeExpress();
  assert(partition.width == config_.width && partition.height == config_.height);
  assert(shard_contexts.size() == partition.num_shards);
  // The fabric must be idle: a packet acquired before the split would be
  // released into a shard pool it never came from.
  for (const auto& r : routers_) {
    assert(!r->HasBufferedFlits() && "EnablePartition on a non-idle mesh");
    (void)r;
  }
  for (const auto& ni : nis_) {
    assert(!ni->HasPendingInject() && "EnablePartition on a non-idle mesh");
    (void)ni;
  }

  partition_ = partition;
  shard_contexts_ = std::move(shard_contexts);
  shard_pools_.clear();
  shard_pools_.reserve(partition_.num_shards);
  for (const auto& context : shard_contexts_) {
    shard_pools_.push_back(&PacketPool::ForContext(*context));
  }
  // Each tile's senders draw from its shard's pool: packets are born,
  // routed (except across cuts, where they are cloned), and released inside
  // one domain — the confinement that lets PacketRef stay non-atomic.
  for (uint32_t t = 0; t < num_tiles(); ++t) {
    nis_[t]->SetPool(shard_pools_[partition_.shard_of_tile[t]]);
  }

  // Per-shard live sets over global tile ids: the idle precondition above
  // guarantees the serial bits are clear, so repointing is all it takes.
  // Sized once here — word addresses stay stable while partitioned.
  shard_live_.assign(partition_.num_shards, MakeLiveSet(num_tiles()));
  for (uint32_t t = 0; t < num_tiles(); ++t) {
    LiveWord& word = shard_live_[partition_.shard_of_tile[t]][t / 64];
    routers_[t]->SetLiveWord(&word.fresh_routers);
    nis_[t]->SetLiveWord(&word.fresh_nis);
  }

  // Boundary shims on every directed cut link.
  shard_out_edges_.assign(partition_.num_shards, {});
  shard_in_edges_.assign(partition_.num_shards, {});
  const RouterPort kDirs[4] = {kPortNorth, kPortSouth, kPortEast, kPortWest};
  for (uint32_t y = 0; y < config_.height; ++y) {
    for (uint32_t x = 0; x < config_.width; ++x) {
      const uint32_t t = y * config_.width + x;
      for (const RouterPort out : kDirs) {
        const int nx = static_cast<int>(x) + (out == kPortEast ? 1 : out == kPortWest ? -1 : 0);
        const int ny = static_cast<int>(y) + (out == kPortSouth ? 1 : out == kPortNorth ? -1 : 0);
        if (nx < 0 || ny < 0 || nx >= static_cast<int>(config_.width) ||
            ny >= static_cast<int>(config_.height)) {
          continue;
        }
        const uint32_t n = static_cast<uint32_t>(ny) * config_.width + static_cast<uint32_t>(nx);
        if (partition_.shard_of_tile[t] == partition_.shard_of_tile[n]) {
          continue;
        }
        BoundaryEdge edge;
        edge.link = std::make_unique<BoundaryLink>(config_.router_buffer_depth);
        edge.src_router = routers_[t].get();
        edge.dst_router = routers_[n].get();
        edge.out_port = out;
        edge.in_port = kOppositePort[out];
        edge.src_shard = partition_.shard_of_tile[t];
        edge.dst_shard = partition_.shard_of_tile[n];
        edge.src_router->SetOutputBoundary(edge.out_port, edge.link.get());
        edge.dst_router->SetInputBoundary(edge.in_port, edge.link.get());
        const uint32_t index = static_cast<uint32_t>(edges_.size());
        shard_out_edges_[edge.src_shard].push_back(index);
        shard_in_edges_[edge.dst_shard].push_back(index);
        edges_.push_back(std::move(edge));
      }
    }
  }

  // One express lane per shard, worker-confined exactly like the LiveSets
  // (launch/scan/materialize all run inside shard phases; the coordinator
  // only touches them from the root phase, with workers at their barrier).
  shard_express_.assign(partition_.num_shards, ExpressLane{});
  for (uint32_t s = 0; s < partition_.num_shards; ++s) {
    shard_express_[s].Configure(this, num_tiles(), partition_.shard_of_tile.data(), s);
    shard_express_[s].SetEnabled(express_enabled_);
  }
  express_.SetEnabled(false);
  BindExpressLanes();
}

void Mesh::DisablePartition() {
  if (!partitioned()) {
    return;
  }
  // In-flight corridors are shard-confined state; convert them back to
  // ordinary buffered flits (whose routers self-mark into the shard live
  // sets folded below) before the shard lanes retire.
  MaterializeExpress();
  for (ExpressLane& lane : shard_express_) {
    folded_express_.Fold(lane.stats());
  }
  shard_express_.clear();
  for (BoundaryEdge& edge : edges_) {
    edge.src_router->SetOutputBoundary(edge.out_port, nullptr);
    edge.dst_router->SetInputBoundary(edge.in_port, nullptr);
  }
  // Destroying the edges drops anchor/clone refs into the shard pools —
  // single-threaded by contract (the engine's workers have joined).
  edges_.clear();
  shard_out_edges_.clear();
  shard_in_edges_.clear();
  for (auto& ni : nis_) {
    ni->SetPool(pool_);
  }
  // Fold the shard busy sets back into the serial one (a disabled partition
  // may still hold in-flight flits) and repoint the publication targets.
  // Staging everything as fresh and letting the next tick merge is exact.
  for (const LiveSet& set : shard_live_) {
    for (size_t w = 0; w < set.size(); ++w) {
      live_[w].fresh_routers |= set[w].routers | set[w].fresh_routers;
      live_[w].fresh_nis |= set[w].nis | set[w].fresh_nis;
    }
  }
  shard_live_.clear();
  BindLiveSets();
  // Retire (don't destroy) the shard contexts: live packets in delivery
  // queues still point at their pools. They die with the mesh.
  for (auto& context : shard_contexts_) {
    retired_contexts_.push_back(std::move(context));
  }
  shard_contexts_.clear();
  shard_pools_.clear();
  partition_ = DomainPartition{};
  express_.SetEnabled(express_enabled_);
  BindExpressLanes();
}

void Mesh::ShardCommit(uint32_t shard, Cycle now) {
  LiveSet& set = shard_live_[shard];
  if (express_enabled_) {
    ExpressTickTop(shard_express_[shard], set, now);
  }
  MergeFresh(set);
  ForEachTile(set, &LiveWord::routers, [&](uint32_t t) { routers_[t]->CommitStaged(); });
  for (const uint32_t e : shard_out_edges_[shard]) {
    edges_[e].link->ReleaseAnchors();
  }
}

void Mesh::ShardRoute(uint32_t shard, Cycle now) {
  // Same fallback as the serial tick: an open stall window must charge its
  // counter on every wedged router of this shard, busy or not. The fault
  // model is read-only during shard phases (the injector ticks in the root
  // phase), so concurrent polls from workers are safe.
  if (fault_model_ != nullptr && fault_model_->NextMeshActivity(now) <= now) {
    for (const uint32_t t : partition_.shard_tiles[shard]) {
      routers_[t]->RouteCycle(now);
    }
  } else {
    ForEachTile(shard_live_[shard], &LiveWord::routers,
                [&](uint32_t t) { routers_[t]->RouteCycle(now); });
  }
  // Publish this cycle's consumed credits before the engine's route_done
  // grant, so the upstream shard's harvest sees the complete cycle.
  for (const uint32_t e : shard_in_edges_[shard]) {
    edges_[e].link->FlushCredits();
  }
}

void Mesh::ShardTransfer(uint32_t shard, Cycle now) {
  for (const uint32_t e : shard_out_edges_[shard]) {
    edges_[e].link->HarvestCredits();
  }
  for (const uint32_t e : shard_in_edges_[shard]) {
    const BoundaryEdge& edge = edges_[e];
    edge.link->DeliverInto(*edge.dst_router, edge.in_port, now, *shard_pools_[shard]);
  }
  LiveSet& set = shard_live_[shard];
  ForEachTile(set, &LiveWord::nis, [&](uint32_t t) { nis_[t]->InjectCycle(now); });
  CompactDead(set);
}

uint64_t Mesh::BoundaryFlitsHandedOff() const {
  uint64_t total = 0;
  for (const BoundaryEdge& edge : edges_) {
    total += edge.link->flits_handed_off();
  }
  return total;
}

uint64_t Mesh::BoundaryPacketsCloned() const {
  uint64_t total = 0;
  for (const BoundaryEdge& edge : edges_) {
    total += edge.link->packets_cloned();
  }
  return total;
}

PacketPoolStats Mesh::AggregatePoolStats() const {
  PacketPoolStats total = pool_->stats();
  for (const PacketPool* pool : shard_pools_) {
    const PacketPoolStats& s = pool->stats();
    total.acquires += s.acquires;
    total.pool_hits += s.pool_hits;
    total.heap_allocs += s.heap_allocs;
    total.releases += s.releases;
    total.exhausted_fallbacks += s.exhausted_fallbacks;
    total.live += s.live;
    total.high_water += s.high_water;
    total.free_size += s.free_size;
  }
  return total;
}

void Mesh::ResetPoolStats() {
  pool_->ResetStats();
  for (PacketPool* pool : shard_pools_) {
    pool->ResetStats();
  }
}

}  // namespace apiary
