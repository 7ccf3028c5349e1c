#include "perfbench/workloads.h"

#include <cstdio>

#include "src/accel/echo.h"
#include "src/core/service_ids.h"
#include "src/mem/memory_controller.h"

namespace perfbench {

using apiary::ApiaryOs;
using apiary::BoardConfig;
using apiary::CapRef;
using apiary::Cycle;
using apiary::DeployOptions;
using apiary::ServiceId;
using apiary::TileId;

World::World(const BoardConfig& config)
    : sim(250.0), net(/*latency_cycles=*/25), board(config, sim, &net), os(board) {
  sim.Register(&net);
}

apiary::CounterSet World::Counters() {
  apiary::CounterSet all;
  all.Merge(board.mesh().AggregateCounters());
  all.Merge(os.AggregateMonitorCounters());
  if (auto* memctl = dynamic_cast<apiary::MemoryController*>(&board.memory())) {
    all.Merge(memctl->counters());
  }
  if (board.mac100g() != nullptr) {
    all.Merge(board.mac100g()->counters());
  }
  all.Merge(net.counters());
  if (memsvc != nullptr) {
    all.Merge(memsvc->counters());
  }
  if (netsvc != nullptr) {
    all.Merge(netsvc->counters());
  }
  if (gateway != nullptr) {
    all.Merge(gateway->counters());
  }
  for (const apiary::KvStoreAccelerator* kv : kv_stores) {
    all.Merge(kv->counters());
  }
  if (tenants != nullptr) {
    all.Merge(tenants->counters());
  }
  return all;
}

uint64_t World::Unanswered() const {
  uint64_t n = 0;
  for (const RequestSource* s : sources) {
    n += s->unanswered();
  }
  return n;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"mesh_saturated", "kv_net_paced",
                                                  "tenants_contended"};
  return kNames;
}

namespace {

// Per-stream seeds, so adding a client never shifts another's draws.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull + 1;
}

BoardConfig MakeConfig(uint32_t width, uint32_t height, const char* part, uint64_t tile_cells,
                       apiary::MacKind mac) {
  BoardConfig cfg;
  cfg.part_number = part;
  cfg.mesh = apiary::MeshConfig{width, height, 8, 512};
  cfg.dram.capacity_bytes = 64ull << 20;
  cfg.mac_kind = mac;
  cfg.tile_region_cells = tile_cells;
  return cfg;
}

DeployOptions At(TileId tile) {
  DeployOptions o;
  o.tile = tile;
  return o;
}

// Loads the whole table into a KV store before its first cycle, the way a
// preempted store is resumed: the values go into a DRAM segment granted to
// its tile, and the index arrives through RestoreState.
bool PreloadKv(World& w, apiary::KvStoreAccelerator* kv, TileId tile, CapRef memsvc_cap,
               uint64_t log_bytes) {
  const KvTable& table = *w.table;
  const std::optional<CapRef> mem =
      w.os.GrantMemory(tile, log_bytes, apiary::kRightRead | apiary::kRightWrite);
  if (!mem.has_value()) {
    return false;
  }
  const apiary::Capability* cap = w.os.monitor(tile).cap_table().Lookup(*mem);
  const uint64_t base = cap->segment.base;
  std::vector<uint8_t> state;
  apiary::PutU64(state, table.keys.size() * table.value_bytes);  // Log head.
  apiary::PutU32(state, memsvc_cap);
  apiary::PutU32(state, *mem);
  apiary::PutU32(state, static_cast<uint32_t>(table.keys.size()));
  for (size_t i = 0; i < table.keys.size(); ++i) {
    const uint64_t offset = i * table.value_bytes;
    w.board.memory().DebugWrite(base + offset, table.values[i]);
    apiary::PutU32(state, static_cast<uint32_t>(table.keys[i].size()));
    state.insert(state.end(), table.keys[i].begin(), table.keys[i].end());
    apiary::PutU64(state, offset);
    apiary::PutU32(state, table.value_bytes);
  }
  kv->RestoreState(state);
  return true;
}

// --- mesh_saturated --------------------------------------------------------
// b2's board, run longer: a 4x4 mesh with the standard services and four
// closed-loop echo client/service pairs (window 16; even pairs send 48 B
// inline-tier payloads, odd pairs 240 B arena-tier ones, on average; each
// request draws its size from the seed). The mesh never
// goes quiescent, so every cycle is executed.
std::unique_ptr<World> BuildMeshSaturated(uint64_t seed, Tracer* tracer) {
  auto w = std::make_unique<World>(MakeConfig(4, 4, "VU9P", 100'000, apiary::MacKind::k100G));
  ApiaryOs& os = w->os;
  auto memsvc = std::make_unique<apiary::MemoryService>(&os, &w->board.memory());
  w->memsvc = memsvc.get();
  os.DeployService(apiary::kMemoryService,
                   MaybeTrace(std::move(memsvc), Layer::kServices, SpanRole::kNone, tracer));
  auto netsvc = std::make_unique<apiary::NetworkService>(
      &os, std::make_unique<apiary::Mac100GAdapter>(w->board.mac100g()));
  w->netsvc = netsvc.get();
  os.DeployService(apiary::kNetworkService,
                   MaybeTrace(std::move(netsvc), Layer::kServices, SpanRole::kNone, tracer));

  const apiary::AppId app = os.CreateApp("mesh_saturated");
  constexpr uint32_t kPairs = 4;
  constexpr uint32_t kWindow = 16;
  for (uint32_t i = 0; i < kPairs; ++i) {
    ServiceId echo_svc = 0;
    os.Deploy(app,
              MaybeTrace(std::make_unique<apiary::EchoAccelerator>(0), Layer::kAccel,
                         SpanRole::kService, tracer),
              &echo_svc);
    // Sizes average 48 B (inline tier) on even pairs, 240 B (arena tier) on odd.
    const uint32_t lo = i % 2 == 0 ? 32 : 200;
    const uint32_t hi = i % 2 == 0 ? 64 : 280;
    auto client =
        std::make_unique<EchoClient>(echo_svc, kWindow, lo, hi, i, StreamSeed(seed, i), tracer);
    w->sources.push_back(client.get());
    const TileId tile = os.Deploy(
        app, MaybeTrace(std::move(client), Layer::kLoad, SpanRole::kNone, tracer));
    (void)os.GrantSendToService(tile, echo_svc);
  }
  w->board.mesh().SetExpressEnabled(true);
  w->warmup_cycles = 20'000;
  w->window_cycles = 120'000;
  w->drain_limit_cycles = 50'000;
  w->description = "4x4 VU9P, 4 closed-loop echo pairs, window 16, payloads 32-64 B / 200-280 B";
  return w;
}

// --- kv_net_paced ----------------------------------------------------------
// The paper's direct-attached use case on an 8x8 board: open-loop Poisson
// clients on the external network -> 100G MAC -> network service (tile 0)
// -> gateway (tile 63) -> KV store (tile 7) -> memory service (tile 56) and
// DRAM, and back. Corner placement makes every leg multi-hop. YCSB-B-like
// mix (95% GET / 5% PUT, Zipf 0.99) over a preloaded keyspace.
constexpr uint64_t kNetKeys = 10'000;
constexpr uint32_t kNetValueBytes = 100;
constexpr uint32_t kNetClients = 4;
// Offered load, requests per 1000 cycles over all clients: about half of
// this mix's saturation rate on this board, measured by sweeping the offered
// rate (goodput levels off near 66-76 req/kcycle, with a growing backlog,
// from 80 req/kcycle offered up).
constexpr double kNetOfferedPerKcycle = 35.0;

std::unique_ptr<World> BuildKvNetPaced(uint64_t seed, Tracer* tracer) {
  auto w = std::make_unique<World>(MakeConfig(8, 8, "VU29P", 40'000, apiary::MacKind::k100G));
  if (!w->board.ok()) {
    w->error = w->board.build_error();
    return w;
  }
  ApiaryOs& os = w->os;
  constexpr TileId kNetTile = 0;
  constexpr TileId kKvTile = 7;
  constexpr TileId kMemTile = 56;
  constexpr TileId kGatewayTile = 63;
  constexpr uint64_t kLogBytes = 8ull << 20;

  auto netsvc = std::make_unique<apiary::NetworkService>(
      &os, std::make_unique<apiary::Mac100GAdapter>(w->board.mac100g()));
  w->netsvc = netsvc.get();
  os.DeployService(apiary::kNetworkService,
                   MaybeTrace(std::move(netsvc), Layer::kServices, SpanRole::kNone, tracer),
                   At(kNetTile));
  auto memsvc = std::make_unique<apiary::MemoryService>(&os, &w->board.memory());
  w->memsvc = memsvc.get();
  os.DeployService(apiary::kMemoryService,
                   MaybeTrace(std::move(memsvc), Layer::kServices, SpanRole::kNone, tracer),
                   At(kMemTile));

  const apiary::AppId app = os.CreateApp("kv_net_paced");
  w->table = std::make_unique<KvTable>(kNetKeys, kNetValueBytes);
  w->zipf = std::make_unique<Zipf>(kNetKeys, 0.99);
  auto kv = std::make_unique<apiary::KvStoreAccelerator>(kLogBytes);
  apiary::KvStoreAccelerator* kv_raw = kv.get();
  w->kv_stores.push_back(kv_raw);
  ServiceId kv_svc = 0;
  os.Deploy(app, MaybeTrace(std::move(kv), Layer::kAccel, SpanRole::kService, tracer),
            &kv_svc, At(kKvTile));
  const CapRef kv_mem = os.GrantSendToService(kKvTile, apiary::kMemoryService);
  if (!PreloadKv(*w, kv_raw, kKvTile, kv_mem, kLogBytes)) {
    w->error = "KV preload: no DRAM segment";
    return w;
  }

  auto gateway = std::make_unique<apiary::NetGateway>();
  w->gateway = gateway.get();
  ServiceId gw_svc = 0;
  os.Deploy(app,
            MaybeTrace(std::move(gateway), Layer::kServices, SpanRole::kGateway, tracer),
            &gw_svc, At(kGatewayTile));
  (void)os.GrantSendToService(kGatewayTile, apiary::kNetworkService);
  w->gateway->SetBackend(os.GrantSendToService(kGatewayTile, kv_svc));

  NetKvClient::Config cc;
  cc.server_endpoint = w->board.mac100g()->address();
  cc.gateway_service = gw_svc;
  cc.requests_per_kcycle = kNetOfferedPerKcycle / kNetClients;
  cc.start = 10'000;  // After MAC alignment and gateway registration.
  cc.read_fraction = 0.95;
  for (uint32_t i = 0; i < kNetClients; ++i) {
    auto client = std::make_unique<NetKvClient>(cc, &w->net, w->table.get(), w->zipf.get(), i,
                                                StreamSeed(seed, i), tracer);
    w->sim.Register(client.get());
    w->sources.push_back(client.get());
    w->net_clients.push_back(std::move(client));
  }
  w->board.mesh().SetExpressEnabled(true);
  w->warmup_cycles = 40'000;
  w->window_cycles = 300'000;
  w->drain_limit_cycles = 200'000;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "8x8 VU29P, %u open-loop Poisson clients, %.1f req/kcycle offered, %llu keys "
                "x %u B, 95%% GET, Zipf 0.99",
                kNetClients, kNetOfferedPerKcycle, static_cast<unsigned long long>(kNetKeys),
                kNetValueBytes);
  w->description = buf;
  return w;
}

// --- tenants_contended -----------------------------------------------------
// Two tenants on a 4x4 board under the kernel's tenant controls. Tenant A
// (arbitration class 1, weight 4) runs a write-heavy KV store (50% PUT) on
// tile 7 with closed-loop clients on tiles 4 and 8. Tenant B (class 2,
// weight 1, a tenant-shared NoC token bucket) streams 1 KiB messages from
// tiles 5 and 9 to checksum sinks on 11 and 15 — eastward along rows 1 and
// 2, the same router outputs tenant A's requests take to its store.
constexpr uint64_t kTenantKeys = 4096;
constexpr uint32_t kTenantValueBytes = 64;

std::unique_ptr<World> BuildTenantsContended(uint64_t seed, Tracer* tracer) {
  auto w = std::make_unique<World>(MakeConfig(4, 4, "VU9P", 100'000, apiary::MacKind::kNone));
  ApiaryOs& os = w->os;
  constexpr uint64_t kLogBytes = 32ull << 20;

  auto memsvc = std::make_unique<apiary::MemoryService>(&os, &w->board.memory());
  w->memsvc = memsvc.get();
  os.DeployService(apiary::kMemoryService,
                   MaybeTrace(std::move(memsvc), Layer::kServices, SpanRole::kNone, tracer),
                   At(0));
  w->tenants = std::make_unique<apiary::TenantManager>(&os, /*meter_period=*/100'000);
  apiary::TenantManager& tm = *w->tenants;
  tm.SetMemoryService(w->memsvc);

  apiary::TenantQuota qa;
  qa.arb_class = 1;
  qa.arb_weight = 4;
  const apiary::TenantId ta = tm.CreateTenant("tenant_a_kv", qa);
  apiary::TenantQuota qb;
  qb.arb_class = 2;
  qb.arb_weight = 1;
  qb.noc_flits_per_1k = 400;
  qb.noc_burst_flits = 160;
  const apiary::TenantId tb = tm.CreateTenant("tenant_b_stream", qb);
  w->tenant_ids = {ta, tb};

  // Tenant A: the write-heavy KV store and its clients.
  const apiary::AppId app_a = tm.CreateApp(ta, "kv");
  w->table = std::make_unique<KvTable>(kTenantKeys, kTenantValueBytes);
  w->zipf = std::make_unique<Zipf>(kTenantKeys, 0.99);
  auto kv = std::make_unique<apiary::KvStoreAccelerator>(kLogBytes);
  apiary::KvStoreAccelerator* kv_raw = kv.get();
  w->kv_stores.push_back(kv_raw);
  ServiceId kv_svc = 0;
  constexpr TileId kKvTile = 7;
  tm.Deploy(ta, app_a,
            MaybeTrace(std::move(kv), Layer::kAccel, SpanRole::kService, tracer),
            &kv_svc, At(kKvTile));
  const CapRef kv_mem = tm.GrantSendToService(ta, kKvTile, apiary::kMemoryService);
  if (!PreloadKv(*w, kv_raw, kKvTile, kv_mem, kLogBytes)) {
    w->error = "KV preload: no DRAM segment";
    return w;
  }
  uint32_t index = 0;
  for (const TileId tile : {TileId{4}, TileId{8}}) {
    auto client = std::make_unique<KvBoardClient>(kv_svc, /*window=*/8, w->table.get(),
                                                  w->zipf.get(), /*put_fraction=*/0.5, index,
                                                  StreamSeed(seed, index), tracer);
    w->sources.push_back(client.get());
    tm.Deploy(ta, app_a,
              MaybeTrace(std::move(client), Layer::kLoad, SpanRole::kNone, tracer),
              nullptr, At(tile));
    (void)tm.GrantSendToService(ta, tile, kv_svc);
    ++index;
  }

  // Tenant B: two large-message streams across tenant A's request routes.
  const apiary::AppId app_b = tm.CreateApp(tb, "stream");
  const std::pair<TileId, TileId> kStreams[] = {{5, 11}, {9, 15}};
  for (const auto& [src, dst] : kStreams) {
    ServiceId sink_svc = 0;
    tm.Deploy(tb, app_b,
              MaybeTrace(std::make_unique<ChecksumSink>(), Layer::kLoad, SpanRole::kService,
                         tracer),
              &sink_svc, At(dst));
    auto client = std::make_unique<StreamClient>(sink_svc, /*window=*/4, /*payload_bytes=*/1024,
                                                 index, StreamSeed(seed, index), tracer);
    w->sources.push_back(client.get());
    tm.Deploy(tb, app_b,
              MaybeTrace(std::move(client), Layer::kLoad, SpanRole::kNone, tracer),
              nullptr, At(src));
    (void)tm.GrantSendToService(tb, src, sink_svc);
    ++index;
  }
  w->board.mesh().SetExpressEnabled(true);
  w->warmup_cycles = 20'000;
  w->window_cycles = 240'000;
  w->drain_limit_cycles = 100'000;
  w->description =
      "4x4 VU9P, tenant A write-heavy KV (50% PUT, Zipf 0.99, 4096 keys x 64 B, 2 clients x "
      "window 8, class weight 4) vs tenant B 1 KiB streams (2 x window 4, class weight 1, "
      "400 flits/kcycle tenant bucket)";
  return w;
}

}  // namespace

std::unique_ptr<World> BuildWorld(const std::string& workload, uint64_t seed, Tracer* tracer) {
  if (workload == "mesh_saturated") {
    return BuildMeshSaturated(seed, tracer);
  }
  if (workload == "kv_net_paced") {
    return BuildKvNetPaced(seed, tracer);
  }
  if (workload == "tenants_contended") {
    return BuildTenantsContended(seed, tracer);
  }
  return nullptr;
}

}  // namespace perfbench
