#include "src/fpga/board.h"

namespace apiary {

Board::Board(BoardConfig config, Simulator& sim, ExternalNetwork* external_network)
    : config_(std::move(config)), sim_(&sim) {
  auto part = FindPart(config_.part_number);
  if (!part.has_value()) {
    ok_ = false;
    build_error_ = "unknown part: " + config_.part_number;
    return;
  }
  budget_ = std::make_unique<ResourceBudget>(*part);

  // The mesh owns its packet pool, so two boards on two simulators (one per
  // thread) share no allocator state.
  mesh_ = std::make_unique<Mesh>(config_.mesh);
  if (!budget_->ChargeStatic("noc", mesh_->LogicCellCost())) {
    ok_ = false;
    build_error_ = "NoC does not fit on " + config_.part_number;
    return;
  }
  sim_->Register(mesh_.get());

  memory_ = std::make_unique<MemoryController>(config_.dram);
  sim_->Register(memory_.get());
  if (!budget_->ChargeStatic("memory_controller", ResourceCosts{}.memory_controller)) {
    ok_ = false;
    build_error_ = "memory controller does not fit";
    return;
  }

  const double clock_mhz = sim_->frequency_mhz();
  switch (config_.mac_kind) {
    case MacKind::kNone:
      break;
    case MacKind::k10G:
      mac10g_ = std::make_unique<EthMac10G>(clock_mhz);
      if (!budget_->ChargeStatic("eth_mac", mac10g_->LogicCellCost())) {
        ok_ = false;
        build_error_ = "10G MAC does not fit";
        return;
      }
      sim_->Register(mac10g_.get());
      if (external_network != nullptr) {
        mac10g_->AttachNetwork(external_network, external_network->RegisterEndpoint(mac10g_.get()));
      }
      break;
    case MacKind::k100G:
      mac100g_ = std::make_unique<EthMac100G>(clock_mhz);
      if (!budget_->ChargeStatic("eth_mac", mac100g_->LogicCellCost())) {
        ok_ = false;
        build_error_ = "100G MAC does not fit";
        return;
      }
      sim_->Register(mac100g_.get());
      if (external_network != nullptr) {
        mac100g_->AttachNetwork(external_network,
                                external_network->RegisterEndpoint(mac100g_.get()));
      }
      break;
  }

  if (config_.with_pcie) {
    pcie_ = std::make_unique<PcieEndpoint>();
    if (!budget_->ChargeStatic("pcie", PcieEndpoint::LogicCellCost())) {
      ok_ = false;
      build_error_ = "PCIe endpoint does not fit";
      return;
    }
    sim_->Register(pcie_.get());
  }

  // Reserve the dynamically reconfigurable tile regions.
  for (uint32_t t = 0; t < mesh_->num_tiles(); ++t) {
    if (!budget_->ReserveTileRegion(config_.tile_region_cells)) {
      ok_ = false;
      build_error_ = "tile regions exceed part capacity (tile " + std::to_string(t) + ")";
      return;
    }
  }
}

}  // namespace apiary
