// Multi-tenant isolation demo — the paper's Section 2 scenario: "another
// user might want to use the FPGA to host an independent key-value store
// application... We do not want any accelerator of the KV-store application
// to be able to communicate with any accelerator in the encoding
// application."
//
// Two mutually distrusting tenants share the board:
//   tenant A: a video encoder serving its own client tile,
//   tenant B: a KV store serving external clients over the network — and a
//             malicious "snooper" tile that probes everything it can.
// The demo runs both and prints what the snooper managed to get: nothing.
#include <cstdio>
#include <memory>

#include "src/accel/faulty.h"
#include "src/accel/kv_store.h"
#include "src/accel/video_encoder.h"
#include "src/core/kernel.h"
#include "src/core/service_ids.h"
#include "src/services/gateway.h"
#include "src/services/memory_service.h"
#include "src/services/network_service.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"
#include "src/workload/client.h"
#include "src/workload/frame_source.h"
#include "src/workload/kv_workload.h"

using namespace apiary;

// Tenant A's client tile: keeps one frame in flight through the encoder.
class EncoderClient : public Accelerator {
 public:
  explicit EncoderClient(ServiceId encoder) : encoder_(encoder) {}

  void Tick(TileApi& api) override {
    if (in_flight_) {
      return;
    }
    const auto pixels = GenerateFrame(48, 48, 7, frames_done);
    Message msg;
    msg.opcode = kOpEncodeFrame;
    msg.payload = FrameToRequestPayload(48, 48, pixels);
    if (api.Send(std::move(msg), api.LookupService(encoder_)).ok()) {
      in_flight_ = true;
    }
  }

  void OnMessage(const Message& msg, TileApi&) override {
    if (msg.kind == MsgKind::kResponse) {
      in_flight_ = false;
      if (msg.status == MsgStatus::kOk && !msg.payload.empty()) {
        ++frames_done;
      } else {
        ++frames_failed;
      }
    }
  }

  std::string name() const override { return "encoder_client"; }
  uint32_t LogicCellCost() const override { return 3000; }

  uint64_t frames_done = 0;
  uint64_t frames_failed = 0;

 private:
  ServiceId encoder_;
  bool in_flight_ = false;
};

int main() {
  Simulator sim(250.0);
  ExternalNetwork net(25);
  sim.Register(&net);
  BoardConfig cfg;
  cfg.part_number = "VU9P";
  cfg.mesh = MeshConfig{4, 4, 8, 512};
  cfg.dram.capacity_bytes = 128ull << 20;
  Board board(cfg, sim, &net);
  ApiaryOs os(board);

  // OS services.
  os.DeployService(kMemoryService, std::make_unique<MemoryService>(&os, &board.memory()));
  os.DeployService(kNetworkService,
                   std::make_unique<NetworkService>(
                       &os, std::make_unique<Mac100GAdapter>(board.mac100g())));

  // ---- Tenant A: the video encoding service. ----
  AppId video_app = os.CreateApp("tenant-A-video");
  auto* encoder = new VideoEncoderAccelerator(20, 60);
  ServiceId enc_svc = 0;
  os.Deploy(video_app, std::unique_ptr<Accelerator>(encoder), &enc_svc);
  auto* enc_client = new EncoderClient(enc_svc);
  const TileId ec_tile = os.Deploy(video_app, std::unique_ptr<Accelerator>(enc_client));
  (void)os.GrantSendToService(ec_tile, enc_svc);

  // ---- Tenant B: the KV store, network-facing, plus a snooper tile. ----
  AppId kv_app = os.CreateApp("tenant-B-kv");
  auto* kv = new KvStoreAccelerator(1 << 20);
  ServiceId kv_svc = 0;
  const TileId kv_tile = os.Deploy(kv_app, std::unique_ptr<Accelerator>(kv), &kv_svc);
  (void)os.GrantSendToService(kv_tile, kMemoryService);
  auto* gw = new NetGateway();
  ServiceId gw_svc = 0;
  const TileId gw_tile = os.Deploy(kv_app, std::unique_ptr<Accelerator>(gw), &gw_svc);
  (void)os.GrantSendToService(gw_tile, kNetworkService);
  gw->SetBackend(os.GrantSendToService(gw_tile, kv_svc));

  auto* snooper = new SnooperAccelerator(os.num_tiles(), 40);
  const TileId snoop_tile = os.Deploy(kv_app, std::unique_ptr<Accelerator>(snooper));
  (void)os.GrantSendToService(snoop_tile, kMemoryService);  // Legitimate tenant right.

  // External clients driving the KV store (YCSB-B-ish mix).
  KvWorkloadConfig wl;
  wl.keyspace = 200;
  wl.read_fraction = 0.9;
  ClientConfig ccfg;
  ccfg.server_endpoint = board.mac100g()->address();
  ccfg.dst_service = gw_svc;
  ccfg.open_loop = false;
  ccfg.concurrency = 4;
  ccfg.max_requests = 400;
  ClientHost client(ccfg, &net, MakeKvRequestFactory(wl));
  sim.Register(&client);

  std::printf("two mutually distrusting tenants on one board:\n");
  std::printf("  tenant A (video): encoder t%u + client t%u\n", os.AppTiles(video_app)[0],
              ec_tile);
  std::printf("  tenant B (kv)   : kv t%u + gateway t%u + SNOOPER t%u\n", kv_tile, gw_tile,
              snoop_tile);
  std::printf("running...\n");

  sim.RunUntil([&] { return client.received() >= 400; }, 10'000'000);

  Table table("Multi-tenant outcome");
  table.SetHeader({"metric", "value"});
  table.AddRow({"tenant A frames encoded", Table::Int(enc_client->frames_done)});
  table.AddRow({"tenant A frames failed", Table::Int(enc_client->frames_failed)});
  table.AddRow({"tenant B KV requests completed", Table::Int(client.received())});
  table.AddRow({"tenant B KV p99 latency (cycles)", Table::Int(client.latency().P99())});
  table.AddRow({"snooper attempts", Table::Int(snooper->attempts())});
  table.AddRow({"snooper denied (monitor)", Table::Int(snooper->denied_local())});
  table.AddRow({"snooper denied (service)", Table::Int(snooper->denied_remote())});
  table.AddRow({"snooper data leaked", Table::Int(snooper->leaked())});
  table.Print();

  if (snooper->leaked() != 0) {
    std::printf("\nISOLATION VIOLATED\n");
    return 1;
  }
  std::printf("\nisolation held: %llu snoop attempts, zero leaks, both tenants progressed.\n",
              static_cast<unsigned long long>(snooper->attempts()));
  return 0;
}
