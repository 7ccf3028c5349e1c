// FPGA logic-resource accounting.
//
// "It is important for scalability that this monitor's resource utilization
// remain low since the amount of FPGA logic resources devoted to Apiary
// grows with the number of tiles." (Section 6, open question 1.)
//
// Every instantiated block reports a logic-cell cost from a calibrated cost
// table; the ResourceBudget refuses configurations that exceed the part.
// Costs are calibrated against published numbers for comparable open-source
// blocks (CONNECT/Hoplite-class routers, Coyote/AmorphOS shells, Corundum
// MACs); they are estimates, not synthesis results, and the experiments only
// rely on their relative magnitudes.
#ifndef SRC_FPGA_RESOURCE_MODEL_H_
#define SRC_FPGA_RESOURCE_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fpga/part_catalog.h"

namespace apiary {

// Logic-cell cost table for the static (trusted) Apiary blocks and common
// I/O infrastructure.
struct ResourceCosts {
  uint32_t monitor = 3500;            // Per-tile monitor (cap table + checks).
  uint32_t monitor_per_cap = 12;      // Each capability-table entry (CAM-ish).
  uint32_t router_base = 4500;        // 5-port 2-VC router, zero buffering.
  uint32_t router_per_buffer_flit = 150;
  uint32_t network_interface = 2000;
  uint32_t eth_mac_10g = 9000;        // 10G MAC + PHY glue.
  uint32_t eth_mac_100g = 55000;      // 100G CMAC-class core.
  uint32_t pcie_gen3 = 70000;         // PCIe endpoint + DMA bridge.
  uint32_t memory_controller = 25000; // DDR4-class controller.
  uint32_t hbm_controller = 12000;    // Per-pseudo-channel HBM glue.
};

// Tracks allocation of one part's logic cells between the static Apiary
// framework and the dynamically reconfigurable tile regions.
class ResourceBudget {
 public:
  explicit ResourceBudget(FpgaPart part, ResourceCosts costs = ResourceCosts{});

  // Records `cells` of static-region use under `label`. Returns false (and
  // records nothing) if the part would be oversubscribed.
  bool ChargeStatic(const std::string& label, uint64_t cells);

  // Reserves a dynamic tile region of `cells`. Returns false if it no longer
  // fits.
  bool ReserveTileRegion(uint64_t cells);

  uint64_t static_cells() const { return static_cells_; }
  uint64_t tile_region_cells() const { return tile_region_cells_; }
  uint64_t free_cells() const {
    return part_.logic_cells - static_cells_ - tile_region_cells_;
  }
  double StaticFraction() const {
    return static_cast<double>(static_cells_) / static_cast<double>(part_.logic_cells);
  }

  const FpgaPart& part() const { return part_; }
  const ResourceCosts& costs() const { return costs_; }
  const std::map<std::string, uint64_t>& static_breakdown() const { return breakdown_; }

 private:
  FpgaPart part_;
  ResourceCosts costs_;
  uint64_t static_cells_ = 0;
  uint64_t tile_region_cells_ = 0;
  std::map<std::string, uint64_t> breakdown_;
};

// Cost of one Apiary monitor supporting `cap_entries` capability slots.
uint64_t MonitorCellCost(const ResourceCosts& costs, uint32_t cap_entries);

}  // namespace apiary

#endif  // SRC_FPGA_RESOURCE_MODEL_H_
