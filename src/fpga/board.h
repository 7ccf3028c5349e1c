// The FPGA board: one part, a NoC fabric, a DDR channel, MACs, PCIe, and a
// logic-resource budget with static/dynamic region accounting.
#ifndef SRC_FPGA_BOARD_H_
#define SRC_FPGA_BOARD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fpga/ethernet.h"
#include "src/fpga/part_catalog.h"
#include "src/fpga/pcie.h"
#include "src/fpga/resource_model.h"
#include "src/mem/memory_controller.h"
#include "src/noc/mesh.h"
#include "src/sim/simulator.h"

namespace apiary {

enum class MacKind {
  kNone,
  k10G,
  k100G,
};

struct BoardConfig {
  std::string part_number = "VU9P";
  MeshConfig mesh;
  // The board's one DDR channel.
  DramConfig dram;
  MacKind mac_kind = MacKind::k100G;
  bool with_pcie = false;
  // Partial reconfiguration time for one tile region. ICAP-limited bitstream
  // load for a ~100k-cell region is on the order of 10-30 ms; default 16 ms
  // at 250 MHz.
  Cycle partial_reconfig_cycles = 4'000'000;
  // Logic cells reserved per dynamically reconfigurable tile region.
  uint64_t tile_region_cells = 100'000;
};

// Owns all hardware substrate blocks and registers them with the simulator.
// The Apiary kernel (src/core) layers tiles/monitors on top.
class Board {
 public:
  // `external_network` may be null for boards without connectivity.
  Board(BoardConfig config, Simulator& sim, ExternalNetwork* external_network);

  // False if the part could not fit the requested configuration; the reason
  // is in build_error().
  bool ok() const { return ok_; }
  const std::string& build_error() const { return build_error_; }

  Mesh& mesh() { return *mesh_; }
  MemoryController& memory() { return *memory_; }
  ResourceBudget& budget() { return *budget_; }
  const BoardConfig& config() const { return config_; }
  Simulator& sim() { return *sim_; }

  // Null unless the corresponding MacKind/with_pcie was configured.
  EthMac10G* mac10g() { return mac10g_.get(); }
  EthMac100G* mac100g() { return mac100g_.get(); }
  PcieEndpoint* pcie() { return pcie_.get(); }

  uint32_t num_tiles() const { return mesh_->num_tiles(); }

 private:
  BoardConfig config_;
  Simulator* sim_;
  bool ok_ = true;
  std::string build_error_;
  std::unique_ptr<ResourceBudget> budget_;
  std::unique_ptr<Mesh> mesh_;
  std::unique_ptr<MemoryController> memory_;
  std::unique_ptr<EthMac10G> mac10g_;
  std::unique_ptr<EthMac100G> mac100g_;
  std::unique_ptr<PcieEndpoint> pcie_;
};

}  // namespace apiary

#endif  // SRC_FPGA_BOARD_H_
