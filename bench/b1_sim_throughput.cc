// B1: simulator throughput with quiescence-aware cycle skipping.
//
// The event-driven core (src/sim) may fast-forward over windows where every
// registered block declares itself quiescent (Clocked::NextActivity). This
// harness measures simulated-cycles-per-wall-second across three load
// shapes, with skipping on and off, on the same seeded scenarios:
//   * idle-board: a fully deployed board with no traffic at all — the best
//     case (one jump to the horizon) and the shape that dominates long
//     fault/recovery and autoscaling runs;
//   * light-load: a pulse client fires a burst of echo requests every 10k
//     cycles — long idle valleys separated by short active windows;
//   * saturated: a closed-loop client keeps the echo engine permanently
//     busy — no skippable window, so the overhead of the NextActivity poll
//     itself is what shows up.
// Skipping must not change simulation results: each scenario cross-checks
// request/response counts and final cycle between the two runs and fails
// loudly on any mismatch (the byte-level differential lives in
// tests/engine_differential_test.cc).
//
// Wall-clock timing lives here in bench/ (never in src/, which stays free of
// host-time calls for the determinism lint). `--smoke` shrinks the run for
// CI; `--no-skip` restricts to the escape-hatch configuration; `--no-express`
// disables the mesh's express-corridor fast path (on by default, applied
// identically to both runs of each comparison so the skip-vs-no-skip numbers
// stay apples-to-apples); `--json <path>` emits machine-readable results,
// including corridor hit/materialization/length counters.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/core/kernel.h"
#include "src/noc/express.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr Cycle kEchoServiceCycles = 200;
constexpr uint32_t kPayloadBytes = 64;

enum class Scenario { kIdle, kLight, kSaturated };

struct RunResult {
  double wall_seconds = 0;
  Cycle end_cycle = 0;
  uint64_t skipped_cycles = 0;
  uint64_t skips = 0;
  uint64_t ticked_blocks = 0;
  uint64_t executed_cycles = 0;
  uint64_t wheel_wakes = 0;
  uint64_t wake_calls = 0;
  uint64_t block_count = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  double mcycles_per_sec = 0;
  ExpressStats express;

  double MeanCorridorHops() const {
    return express.delivered > 0
               ? static_cast<double>(express.hops_sum) /
                     static_cast<double>(express.delivered)
               : 0;
  }

  // Fraction of block-ticks the active-set scheduler actually issued out of
  // the block-ticks a tick-everything loop would have issued over the same
  // executed cycles.
  double ActiveFraction() const {
    const double denom =
        static_cast<double>(executed_cycles) * static_cast<double>(block_count);
    return denom > 0 ? static_cast<double>(ticked_blocks) / denom : 0;
  }
};

RunResult RunOne(Scenario scenario, bool skip_enabled, bool express, Cycle run_cycles) {
  BenchBoard bb;
  bb.sim.SetSkipEnabled(skip_enabled);
  bb.board.mesh().SetExpressEnabled(express);
  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b1");

  LoadClient* client = nullptr;
  if (scenario != Scenario::kIdle) {
    ServiceId echo_svc = 0;
    os.Deploy(app, std::make_unique<EchoAccelerator>(kEchoServiceCycles), &echo_svc);
    // light-load pulses 4 requests every 10k cycles and parks in between;
    // saturated keeps 8 outstanding and pins the clock.
    LoadSpec spec{.targets = {echo_svc}, .payload_bytes = kPayloadBytes};
    if (scenario == Scenario::kLight) {
      spec.period = 10'000;
      spec.burst = 4;
    } else {
      spec.window = 8;
    }
    auto owned = std::make_unique<LoadClient>(std::move(spec));
    client = owned.get();
    const TileId ct = os.Deploy(app, std::move(owned));
    (void)os.GrantSendToService(ct, echo_svc);
  }

  // Host wall time is the measurand here (simulated cycles per wall-second);
  // it never feeds back into simulated state, so determinism is unaffected.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  bb.sim.Run(run_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  RunResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.end_cycle = bb.sim.now();
  r.skipped_cycles = bb.sim.skipped_cycles();
  r.skips = bb.sim.skips();
  r.ticked_blocks = bb.sim.ticked_blocks();
  r.executed_cycles = bb.sim.executed_cycles();
  r.wheel_wakes = bb.sim.wheel_wakes();
  r.wake_calls = bb.sim.wake_calls();
  r.block_count = bb.sim.block_count();
  r.express = bb.board.mesh().AggregateExpressStats();
  if (client != nullptr) {
    r.sent = client->sent;
    r.received = client->replies();
  }
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(run_cycles) / r.wall_seconds / 1e6 : 0;
  return r;
}

const char* Name(Scenario s) {
  switch (s) {
    case Scenario::kIdle:
      return "idle-board";
    case Scenario::kLight:
      return "light-load";
    case Scenario::kSaturated:
      return "saturated";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool no_skip_only = HasFlag(argc, argv, "--no-skip");
  const bool express = !HasFlag(argc, argv, "--no-express");
  const Cycle run_cycles = smoke ? 2'000'000 : 20'000'000;

  std::printf("B1: simulator throughput, quiescence skipping on vs off\n");
  std::printf("(%llu simulated cycles per run)\n\n",
              static_cast<unsigned long long>(run_cycles));

  BenchJson json("b1_sim_throughput");
  json.Param("run_cycles", static_cast<uint64_t>(run_cycles));
  json.Param("express", express ? 1 : 0);
  json.Param("smoke", smoke ? 1 : 0);

  Table table("B1: simulated Mcycles per wall-second");
  table.SetHeader({"scenario", "no-skip Mcyc/s", "skip Mcyc/s", "speedup",
                   "skipped %", "jumps"});

  bool consistent = true;
  for (Scenario s : {Scenario::kIdle, Scenario::kLight, Scenario::kSaturated}) {
    const RunResult off = RunOne(s, /*skip_enabled=*/false, express, run_cycles);
    if (no_skip_only) {
      table.AddRow({Name(s), Table::Num(off.mcycles_per_sec, 1), "-", "-", "-", "-"});
      json.BeginRow();
      json.Metric("scenario", Name(s));
      json.Metric("noskip_mcycles_per_sec", off.mcycles_per_sec);
      continue;
    }
    const RunResult on = RunOne(s, /*skip_enabled=*/true, express, run_cycles);
    // The whole point is that skipping is invisible to the simulation:
    // identical end cycle and identical traffic counts, or the run is wrong.
    if (on.end_cycle != off.end_cycle || on.sent != off.sent ||
        on.received != off.received) {
      std::fprintf(stderr,
                   "B1 FAIL: %s diverged (end %llu vs %llu, sent %llu vs %llu, "
                   "recv %llu vs %llu)\n",
                   Name(s), static_cast<unsigned long long>(on.end_cycle),
                   static_cast<unsigned long long>(off.end_cycle),
                   static_cast<unsigned long long>(on.sent),
                   static_cast<unsigned long long>(off.sent),
                   static_cast<unsigned long long>(on.received),
                   static_cast<unsigned long long>(off.received));
      consistent = false;
    }
    const double speedup =
        off.mcycles_per_sec > 0 ? on.mcycles_per_sec / off.mcycles_per_sec : 0;
    const double skipped_pct =
        100.0 * static_cast<double>(on.skipped_cycles) / static_cast<double>(run_cycles);
    table.AddRow({Name(s), Table::Num(off.mcycles_per_sec, 1),
                  Table::Num(on.mcycles_per_sec, 1), Table::Num(speedup, 2),
                  Table::Num(skipped_pct, 1), Table::Int(on.skips)});
    json.BeginRow();
    json.Metric("scenario", Name(s));
    json.Metric("noskip_mcycles_per_sec", off.mcycles_per_sec);
    json.Metric("skip_mcycles_per_sec", on.mcycles_per_sec);
    json.Metric("speedup", speedup);
    json.Metric("skipped_cycles", on.skipped_cycles);
    json.Metric("skips", on.skips);
    json.Metric("ticked_blocks", on.ticked_blocks);
    json.Metric("executed_cycles", on.executed_cycles);
    json.Metric("active_fraction", on.ActiveFraction());
    json.Metric("wheel_wakes", on.wheel_wakes);
    json.Metric("wake_calls", on.wake_calls);
    json.Metric("requests", on.sent);
    json.Metric("responses", on.received);
    json.Metric("express_hits", on.express.delivered);
    json.Metric("express_launches", on.express.launches);
    json.Metric("materializations", on.express.materializations);
    json.Metric("express_checks", on.express.checks);
    json.Metric("mean_corridor_hops", on.MeanCorridorHops());
  }
  table.Print();

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  if (!consistent) {
    return 1;
  }
  return 0;
}
