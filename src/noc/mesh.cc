#include "src/noc/mesh.h"

#include <bit>
#include <cstdlib>

namespace apiary {

namespace {
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

Mesh::Mesh(MeshConfig config)
    : config_(config), live_((config.width * config.height + 63) / 64) {
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
                                                      config_.force_single_vc, &pool_));
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
  for (uint32_t t = 0; t < n; ++t) {
    routers_[t]->SetLiveWord(&live_[t / 64].fresh_routers);
    nis_[t]->SetLiveWord(&live_[t / 64].fresh_nis, WakeHint(this));
  }
  express_.Configure(this, n);
}

bool Mesh::LiveBusy() const {
  for (const LiveWord& w : live_) {
    if ((w.routers | w.fresh_routers | w.nis | w.fresh_nis) != 0) {
      return true;
    }
  }
  return false;
}

void Mesh::MergeFresh() {
  for (LiveWord& w : live_) {
    w.routers |= w.fresh_routers;
    w.fresh_routers = 0;
    w.nis |= w.fresh_nis;
    w.fresh_nis = 0;
  }
}

void Mesh::CompactDead() {
  ForEachTile(live_, &LiveWord::routers, [&](uint32_t t) {
    if (!routers_[t]->HasBufferedFlits()) {
      live_[t / 64].routers &= ~(uint64_t{1} << (t % 64));
    }
  });
  ForEachTile(live_, &LiveWord::nis, [&](uint32_t t) {
    if (!nis_[t]->HasPendingInject()) {
      live_[t / 64].nis &= ~(uint64_t{1} << (t % 64));
    }
  });
}

void Mesh::Tick(Cycle now) {
  if (express_enabled_) {
    ExpressTickTop(now);
  }
  MergeFresh();
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
  CompactDead();
}

Cycle Mesh::NextActivity(Cycle now) const {
  // An active corridor keeps the mesh ticking on every executed cycle — the
  // exact cycles the real run would execute with those flits in flight, so
  // skip/executed-cycle counts stay byte-identical. Each such tick costs
  // O(corridors), not O(busy routers), which is where the B5 win comes from.
  // The live sets are exact between ticks (every accept/inject sets its
  // bit, compaction clears drained ones), so the busy check is a few word
  // tests instead of an O(tiles) scan.
  if (express_.AnyActive() || LiveBusy()) {
    return now;
  }
  // Empty fabric: only the fault model (stall windows charge a counter every
  // open cycle) can still need per-cycle routing work.
  return fault_model_ != nullptr ? fault_model_->NextMeshActivity(now) : kNoActivity;
}

void Mesh::SetFaultModel(NocFaultModel* model) {
  // Corridors were planned against the old model's quiet declaration, and
  // the new model may have per-cycle work on an empty fabric
  // (MaterializeExpress wakes the mesh for it).
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
  express_.SetEnabled(enabled);
  for (auto& ni : nis_) {
    ni->SetExpressLane(enabled ? &express_ : nullptr);
  }
}

void Mesh::MaterializeExpress() {
  express_.MaterializeAll();
  // Every caller is about to change what the mesh must do: a fault window
  // opening (an open stall window is per-cycle work even on an empty
  // fabric), a new fault model, or an arbitration reconfiguration.
  RequestWake();
}

void Mesh::ExpressTickTop(Cycle now) {
  express_.RunCompletions(now);
  if (express_.AnyActive()) {
    // Conflict scan over the busy sets. Materializing a corridor
    // sets its own path routers' and source NI's fresh bits, which the walk
    // may then visit; those can never conflict with the survivors (the
    // path/zone disjointness invariant), so such visits are no-ops. The
    // order corridors materialize in does not matter either: each one
    // touches only its own path, its source queue and ejection counters.
    auto routers = [&](uint32_t t) {
      if (express_.AnyActive()) {
        express_.MaterializeTouchingRouter(t);
      }
    };
    auto nis = [&](uint32_t t) {
      if (express_.AnyActive()) {
        express_.MaterializeTouchingNi(t);
      }
    };
    ForEachTile(live_, &LiveWord::routers, routers);
    ForEachTile(live_, &LiveWord::fresh_routers, routers);
    ForEachTile(live_, &LiveWord::nis, nis);
    ForEachTile(live_, &LiveWord::fresh_nis, nis);
  }
  // Every observer until the next tick sees end-of-`now` state, really or
  // analytically — the uniform materialization boundary.
  express_.SetStateTime(now);
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

}  // namespace apiary
