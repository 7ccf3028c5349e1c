// Shared setup helpers for the benchmark harnesses.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/core/accelerator.h"
#include "src/core/kernel.h"
#include "src/core/service_ids.h"
#include "src/fpga/board.h"
#include "src/services/memory_service.h"
#include "src/services/network_service.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/table.h"

namespace apiary {

// Every bench board models 256 MiB of DRAM. The backing store is sparse, so
// the host pays only for what a bench writes.
inline constexpr uint64_t kBenchDramBytes = 256ull << 20;

struct BenchBoardOptions {
  uint32_t width = 4;
  uint32_t height = 4;
  std::string part = "VU9P";
  MacKind mac = MacKind::k100G;
  double clock_mhz = 250.0;
  Cycle fabric_latency_cycles = 25;  // ~100ns one-way datacenter hop.
  // 0 keeps the BoardConfig default (100k cells). Large meshes (8x8 and up)
  // must shrink the per-tile region to fit the part's logic-cell budget.
  uint64_t tile_region_cells = 0;
};

// Simulator + external network + board + kernel, with the standard OS
// services (memory + network) deployed on the first tiles.
struct BenchBoard {
  explicit BenchBoard(BenchBoardOptions options = BenchBoardOptions{},
                      bool deploy_services = true)
      : sim(options.clock_mhz),
        net(options.fabric_latency_cycles),
        board(MakeConfig(options), sim, &net),
        os(board) {
    sim.Register(&net);
    if (deploy_services) {
      os.DeployService(kMemoryService, std::make_unique<MemoryService>(&os, &board.memory()));
      if (options.mac == MacKind::k100G) {
        os.DeployService(kNetworkService,
                         std::make_unique<NetworkService>(
                             &os, std::make_unique<Mac100GAdapter>(board.mac100g())));
      } else if (options.mac == MacKind::k10G) {
        os.DeployService(kNetworkService,
                         std::make_unique<NetworkService>(
                             &os, std::make_unique<Mac10GAdapter>(board.mac10g())));
      }
    }
  }

  static BoardConfig MakeConfig(const BenchBoardOptions& options) {
    BoardConfig cfg;
    cfg.part_number = options.part;
    cfg.mesh = MeshConfig{options.width, options.height, 8, 512};
    cfg.dram.capacity_bytes = kBenchDramBytes;
    cfg.mac_kind = options.mac;
    if (options.tile_region_cells != 0) {
      cfg.tile_region_cells = options.tile_region_cells;
    }
    return cfg;
  }

  Simulator sim;
  ExternalNetwork net;
  Board board;
  ApiaryOs os;
};

// Machine-readable result emitter: the human-facing tables stay on stdout,
// and the same numbers land in a JSON file CI archives as an artifact.
// Shape: {"name": ..., "params": {...}, "rows": [{...}, ...]}.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, Quote(value));
  }
  void Param(const std::string& key, const char* value) {
    Param(key, std::string(value));
  }
  void Param(const std::string& key, double value) {
    params_.emplace_back(key, Number(value));
  }
  void Param(const std::string& key, uint64_t value) {
    params_.emplace_back(key, std::to_string(value));
  }
  void Param(const std::string& key, int value) {
    params_.emplace_back(key, std::to_string(value));
  }

  void BeginRow() { rows_.emplace_back(); }
  void Metric(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, Quote(value));
  }
  void Metric(const std::string& key, const char* value) {
    Metric(key, std::string(value));
  }
  void Metric(const std::string& key, double value) {
    rows_.back().emplace_back(key, Number(value));
  }
  void Metric(const std::string& key, uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void Metric(const std::string& key, int value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\n  \"name\": " << Quote(name_) << ",\n  \"params\": {";
    for (size_t i = 0; i < params_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << Quote(params_[i].first) << ": "
          << params_[i].second;
    }
    out << "},\n  \"rows\": [\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out << "    {";
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        out << (i == 0 ? "" : ", ") << Quote(rows_[r][i].first) << ": "
            << rows_[r][i].second;
      }
      out << "}" << (r + 1 == rows_.size() ? "" : ",") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
  }

  // Returns false (and prints to stderr) when the file cannot be written.
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << ToJson();
    return true;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    out += '"';
    return out;
  }
  static std::string Number(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

// What a LoadClient sends and when. Every field is one that two or more
// benches set to different values; everything else is fixed.
struct LoadSpec {
  std::vector<ServiceId> targets;  // Requests go to these round-robin.
  uint16_t opcode = kOpEcho;
  uint32_t payload_bytes = 1;
  // Closed loop (period 0): keep up to `window` requests outstanding,
  // topping the window up every tick.
  uint32_t window = 1;
  // Open loop when non-zero: `burst` requests every `period` cycles from
  // cycle kFirstPacedSend, parked (NextActivity) in between.
  Cycle period = 0;
  uint32_t burst = 1;
  // Closed loop: a request with no reply after `timeout` cycles is
  // abandoned and counted in `timeouts`, freeing its window slot. 0: never.
  Cycle timeout = 0;
};

// The request-issuing accelerator every load-driving bench deploys. Replies
// are matched to requests by request id; a reply whose request is no longer
// outstanding (a late reply to an abandoned request) is dropped uncounted.
// A closed-loop client is active every cycle, as the default NextActivity
// is; B1/B5's exact tick and wake counters pin both schedules.
class LoadClient : public Accelerator {
 public:
  static constexpr Cycle kFirstPacedSend = 1000;  // After boot settles.

  explicit LoadClient(LoadSpec spec) : spec_(std::move(spec)) {}

  void Tick(TileApi& api) override {
    const Cycle now = api.now();
    if (spec_.period != 0) {
      if (now < next_send_at_) {
        return;
      }
      for (uint32_t i = 0; i < spec_.burst; ++i) {
        (void)SendOne(api);
      }
      next_send_at_ += spec_.period;
      return;
    }
    while (spec_.timeout != 0 && !outstanding_.empty() &&
           now >= outstanding_.front().sent_at + spec_.timeout) {
      outstanding_.pop_front();
      ++timeouts;
    }
    while (outstanding_.size() < spec_.window) {
      if (!SendOne(api)) {
        break;
      }
    }
  }

  void OnMessage(const Message& msg, TileApi& api) override {
    if (msg.kind != MsgKind::kResponse) {
      return;
    }
    const auto it = std::find_if(outstanding_.begin(), outstanding_.end(),
                                 [&](const Request& r) { return r.id == msg.request_id; });
    if (it == outstanding_.end()) {
      return;  // Its request timed out and was already counted.
    }
    if (msg.status == MsgStatus::kOk) {
      ++ok;
      last_ok = api.now();
      latency.Record(api.now() - it->sent_at);
    } else {
      ++errors;
    }
    outstanding_.erase(it);
  }

  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return spec_.period != 0 && next_send_at_ > now ? next_send_at_ : now;
  }
  std::string name() const override { return "load_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t replies() const { return ok + errors; }

  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  Histogram latency;  // Send-to-reply cycles of ok replies.
  Cycle last_ok = 0;

 private:
  bool SendOne(TileApi& api) {
    Message msg;
    msg.opcode = spec_.opcode;
    msg.request_id = ++last_request_id_;
    msg.payload.assign(spec_.payload_bytes, static_cast<uint8_t>(last_request_id_));
    const ServiceId target = spec_.targets[next_target_ % spec_.targets.size()];
    if (!api.Send(std::move(msg), api.LookupService(target)).ok()) {
      return false;
    }
    ++next_target_;
    ++sent;
    outstanding_.push_back(Request{last_request_id_, api.now()});
    return true;
  }

  struct Request {
    uint64_t id;
    Cycle sent_at;
  };

  LoadSpec spec_;
  Cycle next_send_at_ = kFirstPacedSend;
  uint64_t last_request_id_ = 0;
  uint64_t next_target_ = 0;
  std::deque<Request> outstanding_;  // Oldest first.
};

// `--json <path>` argument, or "" when absent.
inline std::string JsonPathArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return "";
}

inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) {
      return true;
    }
  }
  return false;
}

// Runs `sim` until `pred` holds. A latency measurement whose message never
// arrives is a broken run, not a data point: print what timed out and exit
// nonzero instead of averaging the timeout into the table.
inline void RunUntilOrExit(Simulator& sim, const std::function<bool()>& pred, Cycle max_cycles,
                           const char* what) {
  if (!sim.RunUntil(pred, max_cycles)) {
    std::fprintf(stderr, "FAIL: %s did not arrive within %llu cycles (cycle %llu)\n", what,
                 static_cast<unsigned long long>(max_cycles),
                 static_cast<unsigned long long>(sim.now()));
    std::exit(1);
  }
}

}  // namespace apiary

#endif  // BENCH_BENCH_UTIL_H_
