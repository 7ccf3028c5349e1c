// The three benchmark boards. Each is built from the seed alone, so two
// builds with one seed simulate identically.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/clients.h"
#include "perfbench/trace.h"
#include "src/accel/kv_store.h"
#include "src/core/kernel.h"
#include "src/fpga/board.h"
#include "src/services/gateway.h"
#include "src/services/memory_service.h"
#include "src/services/network_service.h"
#include "src/sim/simulator.h"
#include "src/tenant/tenant.h"

namespace perfbench {

// One fully set-up board plus its load, ready for the first simulated cycle.
struct World {
  explicit World(const apiary::BoardConfig& config);

  // Every public counter set on the board, merged (names are layer-prefixed).
  apiary::CounterSet Counters();
  // Requests issued in the window and still unanswered, over all clients.
  uint64_t Unanswered() const;

  apiary::Simulator sim;
  apiary::ExternalNetwork net;
  apiary::Board board;
  apiary::ApiaryOs os;
  std::unique_ptr<apiary::TenantManager> tenants;
  std::vector<apiary::TenantId> tenant_ids;

  // Inner (unwrapped) objects, for their counters.
  apiary::MemoryService* memsvc = nullptr;
  apiary::NetworkService* netsvc = nullptr;
  apiary::NetGateway* gateway = nullptr;
  std::vector<apiary::KvStoreAccelerator*> kv_stores;

  std::unique_ptr<KvTable> table;
  std::unique_ptr<Zipf> zipf;
  std::vector<std::unique_ptr<NetKvClient>> net_clients;
  std::vector<RequestSource*> sources;

  apiary::Cycle warmup_cycles = 0;
  apiary::Cycle window_cycles = 0;
  apiary::Cycle drain_limit_cycles = 0;
  // Free-form description of the chosen parameters (printed once per run).
  std::string description;
  std::string error;  // Non-empty when the board could not be built.
};

const std::vector<std::string>& WorkloadNames();

// Builds `workload` for `seed`; tracing wraps every deployed accelerator
// when `tracer` is non-null. Returns null for an unknown name.
std::unique_ptr<World> BuildWorld(const std::string& workload, uint64_t seed, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
