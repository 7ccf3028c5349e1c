// Figure 1 of the paper: "An overview of Apiary's architecture. This
// configuration has two applications composed of multiple accelerators. Each
// tile contains a NoC router for communication, Apiary's monitor to provide
// isolation and manage capabilities, and an accelerator or Apiary service."
//
// This harness instantiates exactly that configuration, renders the tile
// map, and then *measures* the isolation matrix by attempting a send between
// every ordered pair of tiles: granted intra-app edges must deliver, every
// cross-application edge must be refused.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/accel_opcodes.h"
#include "src/accel/probe.h"
#include "src/stats/table.h"

using namespace apiary;

int main() {
  BenchBoard bb(BenchBoardOptions{4, 4, "VU9P"});
  ApiaryOs& os = bb.os;

  // Two applications, as drawn in Figure 1.
  const AppId app1 = os.CreateApp("app1-video");
  const AppId app2 = os.CreateApp("app2-kv");
  // Every accelerator is a probe that echoes requests back, so the harness
  // can make any of them send from its own tile (TileApi calls belong to
  // the tile's callbacks).
  std::vector<TileId> app1_tiles;
  std::vector<TileId> app2_tiles;
  std::map<TileId, ProbeAccelerator*> probes;
  auto deploy = [&](AppId app) {
    auto* probe = new ProbeAccelerator();
    probe->auto_reply = true;
    ServiceId svc = 0;
    const TileId t = os.Deploy(app, std::unique_ptr<Accelerator>(probe), &svc);
    probes[t] = probe;
    return t;
  };
  for (int i = 0; i < 3; ++i) {
    app1_tiles.push_back(deploy(app1));
  }
  for (int i = 0; i < 2; ++i) {
    app2_tiles.push_back(deploy(app2));
  }
  // Intra-app wiring: each app is a chain (accelerator i -> i+1), and every
  // accelerator may call the OS services.
  auto wire_chain = [&](const std::vector<TileId>& tiles) {
    for (size_t i = 0; i + 1 < tiles.size(); ++i) {
      (void)os.GrantSend(tiles[i], tiles[i + 1]);
    }
    for (TileId t : tiles) {
      (void)os.GrantSendToService(t, kMemoryService);
    }
  };
  wire_chain(app1_tiles);
  wire_chain(app2_tiles);
  bb.sim.Run(10);

  // --- Render the tile map. ---
  std::printf("Figure 1 configuration on a 4x4 NoC (each tile = router + monitor + slot):\n\n");
  auto role = [&](TileId t) -> std::string {
    if (os.LookupServiceTile(kMemoryService) == t) {
      return "memsvc";
    }
    if (os.LookupServiceTile(kNetworkService) == t) {
      return "netsvc";
    }
    for (size_t i = 0; i < app1_tiles.size(); ++i) {
      if (app1_tiles[i] == t) {
        return "app1." + std::to_string(i);
      }
    }
    for (size_t i = 0; i < app2_tiles.size(); ++i) {
      if (app2_tiles[i] == t) {
        return "app2." + std::to_string(i);
      }
    }
    return "empty";
  };
  for (uint32_t y = 0; y < 4; ++y) {
    for (uint32_t x = 0; x < 4; ++x) {
      std::printf("[%-7s]", role(y * 4 + x).c_str());
    }
    std::printf("\n");
  }

  // --- Static (trusted) region accounting. ---
  Table budget("Static region (trusted: routers, NIs, monitors, I/O shells)");
  budget.SetHeader({"component", "logic cells"});
  for (const auto& [label, cells] : bb.board.budget().static_breakdown()) {
    budget.AddRow({label, Table::Int(cells)});
  }
  budget.AddRow({"TOTAL static", Table::Int(bb.board.budget().static_cells())});
  budget.AddRow({"fraction of part",
                 Table::Num(100.0 * bb.board.budget().StaticFraction(), 1) + "%"});
  budget.Print();

  // --- Measured isolation matrix. ---
  std::vector<TileId> actors;
  actors.insert(actors.end(), app1_tiles.begin(), app1_tiles.end());
  actors.insert(actors.end(), app2_tiles.begin(), app2_tiles.end());

  std::printf("\nmeasured send matrix ('#' delivered, '.' refused):\n        ");
  for (TileId dst : actors) {
    std::printf("%-8s", role(dst).c_str());
  }
  std::printf("\n");

  int cross_app_leaks = 0;
  int intra_app_delivered = 0;
  int intra_app_expected = 0;
  for (TileId src : actors) {
    std::printf("%-8s", role(src).c_str());
    for (TileId dst : actors) {
      if (src == dst) {
        std::printf("%-8s", "-");
        continue;
      }
      const uint64_t before = os.monitor(dst).counters().Get("monitor.delivered");
      // Attempt with whatever capability the source legitimately holds.
      CapRef cap = kInvalidCapRef;
      for (uint32_t slot = 0; slot < 64 && cap == kInvalidCapRef; ++slot) {
        const CapRef candidate = MakeCapRef(slot, 0);
        const Capability* c = os.monitor(src).cap_table().Lookup(candidate);
        if (c != nullptr && c->kind == CapKind::kEndpoint && c->dst_tile == dst) {
          cap = candidate;
        }
      }
      Message msg;
      msg.opcode = kOpEcho;
      probes[src]->EnqueueSend(std::move(msg), cap);
      bb.sim.Run(100);
      const bool delivered = os.monitor(dst).counters().Get("monitor.delivered") > before;
      std::printf("%-8s", delivered ? "#" : ".");
      const bool same_app =
          (std::count(app1_tiles.begin(), app1_tiles.end(), src) != 0) ==
          (std::count(app1_tiles.begin(), app1_tiles.end(), dst) != 0);
      if (!same_app && delivered) {
        ++cross_app_leaks;
      }
      if (cap != kInvalidCapRef) {
        ++intra_app_expected;
        if (delivered) {
          ++intra_app_delivered;
        }
      }
    }
    std::printf("\n");
  }

  std::printf("\ngranted intra-app edges delivered: %d/%d\n", intra_app_delivered,
              intra_app_expected);
  std::printf("cross-application deliveries:       %d (must be 0)\n", cross_app_leaks);
  std::printf("result: %s\n", cross_app_leaks == 0 && intra_app_delivered == intra_app_expected
                                  ? "PASS — the Figure 1 isolation property holds"
                                  : "FAIL");
  return cross_app_leaks == 0 && intra_app_delivered == intra_app_expected ? 0 : 1;
}
