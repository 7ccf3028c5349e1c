// Shared helpers for board-level tests: a pre-wired simulator/board/kernel
// bundle and a scriptable probe accelerator.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <memory>

#include "src/accel/probe.h"
#include "src/core/kernel.h"
#include "src/fpga/board.h"
#include "src/sim/simulator.h"

namespace apiary {

struct TestBoardOptions {
  uint32_t width = 4;
  uint32_t height = 4;
  std::string part = "VU9P";
  MacKind mac = MacKind::k100G;
  bool with_pcie = false;
  // 0 keeps the BoardConfig default; orchestration tests shorten it so
  // reconfiguration-heavy scenarios fit test budgets.
  Cycle reconfig_cycles = 0;
  // 0 keeps the BoardConfig default (100k cells). Large meshes (8x8 and up)
  // must shrink the per-tile region to fit the part's logic-cell budget.
  uint64_t tile_region_cells = 0;
};

// Simulator + external network + board + kernel, wired in the right order.
struct TestBoard {
  explicit TestBoard(TestBoardOptions options = TestBoardOptions{})
      : net(25), board(MakeConfig(options), sim, &net), os(board) {
    sim.Register(&net);
  }

  static BoardConfig MakeConfig(const TestBoardOptions& options) {
    BoardConfig cfg;
    cfg.part_number = options.part;
    cfg.mesh = MeshConfig{options.width, options.height, 8, 512};
    // Unwritten DRAM costs the host nothing; the size stays because the
    // kernel's segment allocator is built over it, and tests depend on it.
    cfg.dram.capacity_bytes = 64ull << 20;
    cfg.mac_kind = options.mac;
    cfg.with_pcie = options.with_pcie;
    if (options.reconfig_cycles != 0) {
      cfg.partial_reconfig_cycles = options.reconfig_cycles;
    }
    if (options.tile_region_cells != 0) {
      cfg.tile_region_cells = options.tile_region_cells;
    }
    return cfg;
  }

  Simulator sim{250.0};
  ExternalNetwork net;
  Board board;
  ApiaryOs os;
};

}  // namespace apiary

#endif  // TESTS_TEST_UTIL_H_
