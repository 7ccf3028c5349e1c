// B2: hot-path allocation discipline under a saturated mesh.
//
// The executed-cycle message path is supposed to be allocation-free in
// steady state: packets come from the PacketPool freelist, payload bytes
// ride in PayloadBuf (inline up to 64B, pooled arena chunks beyond), and
// serialization moves the payload through the wire stack instead of copying
// it. This harness drives a saturated 4x4 mesh — several closed-loop echo
// client/service pairs, mixed small (inline-tier) and large (arena-tier)
// payloads — and measures:
//   * end-to-end throughput (messages per wall-second, Mcycles/s);
//   * steady-state heap allocations per delivered message, counted from the
//     pool/arena ledgers after a warmup window (target: ~0);
//   * pool reuse ratio after warmup (target: >= 99%);
//   * router arbitration probes per forwarded flit — a deterministic work
//     counter (TryForward calls / flits routed; target: ~1, since the
//     arbiters probe only inputs whose head flit requests the output).
// The pool and arena ledgers are the hot path's own accounting; the
// repository benchmark (perfbench/) counts allocations at the allocator.
//
// `--smoke` shrinks the run for CI; `--json <path>` emits the numbers CI
// archives.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/core/kernel.h"
#include "src/core/message.h"
#include "src/noc/packet_pool.h"
#include "src/sim/payload_buf.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr uint32_t kPairs = 4;           // Client/echo pairs spread over the mesh.
constexpr uint32_t kWindow = 16;         // Outstanding requests per client.
constexpr uint32_t kSmallPayload = 48;   // Inline tier (<= PayloadBuf::kInlineBytes).
constexpr uint32_t kLargePayload = 240;  // Arena tier.

struct RunResult {
  double wall_seconds = 0;
  uint64_t sent = 0;
  uint64_t received = 0;   // Delivered responses inside the measured window.
  uint64_t flits = 0;      // Flits routed inside the measured window.
  uint64_t arb_probes = 0;  // Router TryForward calls inside the measured window.
  uint64_t acquires = 0;
  uint64_t pool_hits = 0;
  uint64_t heap_allocs = 0;      // Pool misses inside the measured window.
  uint64_t arena_allocs = 0;     // Arena chunk news inside the measured window.
  double reuse_pct = 0;          // pool_hits / acquires.
  double allocs_per_msg = 0;     // (heap_allocs + arena_allocs) / received.
  double arb_probes_per_flit = 0;  // arb_probes / flits.
  double msgs_per_wall_sec = 0;
  double mcycles_per_sec = 0;
  uint64_t ticked_blocks = 0;    // Block-ticks issued inside the measured window.
  uint64_t executed_cycles = 0;  // Cycles actually executed inside the window.
  uint64_t wheel_wakes = 0;
  uint64_t wake_calls = 0;
  uint64_t block_count = 0;
  // Block-ticks issued as a fraction of what a tick-everything loop would
  // have issued over the same executed cycles. Saturated traffic should sit
  // near 1.0 — the active set buys nothing here, which is exactly what B2's
  // overhead guardrail wants to measure.
  double ActiveFraction() const {
    const double denom =
        static_cast<double>(executed_cycles) * static_cast<double>(block_count);
    return denom > 0 ? static_cast<double>(ticked_blocks) / denom : 0;
  }
};

RunResult Run(Cycle warmup_cycles, Cycle measure_cycles) {
  BenchBoard bb;

  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b2");

  // Closed-loop echo drivers keep kWindow requests outstanding forever, so
  // the mesh never goes quiescent: every cycle is an executed cycle.
  std::vector<LoadClient*> clients;
  for (uint32_t i = 0; i < kPairs; ++i) {
    ServiceId echo_svc = 0;
    os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/0), &echo_svc);
    // Half the pairs exercise the inline tier, half the arena tier.
    const uint32_t bytes = (i % 2 == 0) ? kSmallPayload : kLargePayload;
    auto client = std::make_unique<LoadClient>(
        LoadSpec{.targets = {echo_svc}, .payload_bytes = bytes, .window = kWindow});
    clients.push_back(client.get());
    const TileId ct = os.Deploy(app, std::move(client));
    (void)os.GrantSendToService(ct, echo_svc);
  }

  // Warm up: the pool grows to the traffic's high-water mark, the arena
  // freelists fill, queues reach steady occupancy. Everything after the
  // ledger reset is steady state.
  bb.sim.Run(warmup_cycles);
  bb.board.mesh().ResetPoolStats();
  bb.sim.context().arena().ResetStats();
  uint64_t sent0 = 0;
  uint64_t received0 = 0;
  for (const LoadClient* c : clients) {
    sent0 += c->sent;
    received0 += c->replies();
  }
  const uint64_t flits0 = bb.board.mesh().TotalFlitsRouted();
  const uint64_t probes0 = bb.board.mesh().TotalArbProbes();
  const uint64_t ticked0 = bb.sim.ticked_blocks();
  const uint64_t executed0 = bb.sim.executed_cycles();
  const uint64_t wheel0 = bb.sim.wheel_wakes();
  const uint64_t wake0 = bb.sim.wake_calls();

  // Host wall time is the measurand; it never feeds back into simulated
  // state, so determinism is unaffected.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  bb.sim.Run(measure_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  RunResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const LoadClient* c : clients) {
    r.sent += c->sent;
    r.received += c->replies();
  }
  r.sent -= sent0;
  r.received -= received0;
  r.flits = bb.board.mesh().TotalFlitsRouted() - flits0;
  r.arb_probes = bb.board.mesh().TotalArbProbes() - probes0;
  r.ticked_blocks = bb.sim.ticked_blocks() - ticked0;
  r.executed_cycles = bb.sim.executed_cycles() - executed0;
  r.wheel_wakes = bb.sim.wheel_wakes() - wheel0;
  r.wake_calls = bb.sim.wake_calls() - wake0;
  r.block_count = bb.sim.block_count();

  const PacketPoolStats pool = bb.board.mesh().AggregatePoolStats();
  r.acquires = pool.acquires;
  r.pool_hits = pool.pool_hits;
  r.heap_allocs = pool.heap_allocs;
  r.arena_allocs = bb.sim.context().arena().stats().chunk_allocs;
  r.reuse_pct =
      r.acquires > 0 ? 100.0 * static_cast<double>(r.pool_hits) / static_cast<double>(r.acquires)
                     : 0;
  r.allocs_per_msg = r.received > 0 ? static_cast<double>(r.heap_allocs + r.arena_allocs) /
                                          static_cast<double>(r.received)
                                    : 0;
  r.arb_probes_per_flit =
      r.flits > 0 ? static_cast<double>(r.arb_probes) / static_cast<double>(r.flits) : 0;
  r.msgs_per_wall_sec =
      r.wall_seconds > 0 ? static_cast<double>(r.received) / r.wall_seconds : 0;
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(measure_cycles) / r.wall_seconds / 1e6 : 0;
  return r;
}

void EmitRow(BenchJson& json, const char* config, const RunResult& r) {
  json.BeginRow();
  json.Metric("config", config);
  json.Metric("wall_seconds", r.wall_seconds);
  json.Metric("mcycles_per_sec", r.mcycles_per_sec);
  json.Metric("messages", r.received);
  json.Metric("msgs_per_wall_sec", r.msgs_per_wall_sec);
  json.Metric("flits", r.flits);
  json.Metric("arb_probes", r.arb_probes);
  json.Metric("arb_probes_per_flit", r.arb_probes_per_flit);
  json.Metric("packet_acquires", r.acquires);
  json.Metric("pool_hits", r.pool_hits);
  json.Metric("pool_reuse_pct", r.reuse_pct);
  json.Metric("heap_allocs", r.heap_allocs);
  json.Metric("arena_chunk_allocs", r.arena_allocs);
  json.Metric("allocs_per_msg", r.allocs_per_msg);
  json.Metric("ticked_blocks", r.ticked_blocks);
  json.Metric("executed_cycles", r.executed_cycles);
  json.Metric("active_fraction", r.ActiveFraction());
  json.Metric("wheel_wakes", r.wheel_wakes);
  json.Metric("wake_calls", r.wake_calls);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const Cycle warmup_cycles = smoke ? 200'000 : 1'000'000;
  const Cycle measure_cycles = smoke ? 800'000 : 8'000'000;

  std::printf("B2: hot-path allocation discipline, saturated 4x4 mesh\n");
  std::printf("(%u closed-loop pairs, window %u, %u/%uB payloads; "
              "%llu warmup + %llu measured cycles)\n\n",
              kPairs, kWindow, kSmallPayload, kLargePayload,
              static_cast<unsigned long long>(warmup_cycles),
              static_cast<unsigned long long>(measure_cycles));

  BenchJson json("b2_hot_path");
  json.Param("warmup_cycles", static_cast<uint64_t>(warmup_cycles));
  json.Param("measure_cycles", static_cast<uint64_t>(measure_cycles));
  json.Param("pairs", static_cast<uint64_t>(kPairs));
  json.Param("window", static_cast<uint64_t>(kWindow));
  json.Param("smoke", smoke ? 1 : 0);

  Table table("B2: steady-state hot path");
  table.SetHeader({"config", "Mcyc/s", "msgs", "msgs/wall-s", "reuse %",
                   "allocs/msg", "probes/flit"});

  const RunResult pooled = Run(warmup_cycles, measure_cycles);
  table.AddRow({"pooled", Table::Num(pooled.mcycles_per_sec, 1), Table::Int(pooled.received),
                Table::Num(pooled.msgs_per_wall_sec, 0), Table::Num(pooled.reuse_pct, 2),
                Table::Num(pooled.allocs_per_msg, 4),
                Table::Num(pooled.arb_probes_per_flit, 3)});
  EmitRow(json, "pooled", pooled);
  std::printf("steady-state pool reuse: %.2f%%, allocations/message: %.4f\n\n",
              pooled.reuse_pct, pooled.allocs_per_msg);

  // A saturated mesh that delivers nothing is a broken run, not a fast one.
  int rc = 0;
  if (pooled.received == 0) {
    std::fprintf(stderr, "B2 FAIL: no messages delivered in the measured window\n");
    rc = 1;
  }

  table.Print();

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  return rc;
}
