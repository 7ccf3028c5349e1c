// Key-value store accelerator: the paper's multi-tenant example workload
// (Section 2: "another user might want to use the FPGA to host an
// independent key-value store application"), in the Caribou tradition the
// related-work section cites.
//
// Architecture: the key index lives in on-tile "BRAM" (bounded map); values
// live in a DRAM segment obtained from — and accessed through — the Apiary
// memory service, presenting the store's memory capability on every access.
// GET/PUT therefore exercise a full IPC chain:
//   client -> kv -> memory service -> kv -> client.
//
// The store is *preemptible* (Section 4.4): its architectural state (index,
// log head, capability refs) is externalized via SaveState/RestoreState, so
// the monitor can swap it out and resume it later, SYNERGY-style.
#ifndef SRC_ACCEL_KV_STORE_H_
#define SRC_ACCEL_KV_STORE_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/core/accelerator.h"
#include "src/stats/summary.h"

namespace apiary {

// Capacity of the on-tile key index; a PUT of a new key beyond it is
// refused with kNoMemory.
inline constexpr size_t kKvMaxIndexEntries = 65536;

class KvStoreAccelerator : public Accelerator {
 public:
  explicit KvStoreAccelerator(uint64_t value_log_bytes = 1 << 20)
      : value_log_bytes_(value_log_bytes) {}

  void OnBoot(TileApi& api) override;
  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Tick only provisions the value log and drains the boot backlog; once
  // both are done the store is purely message-driven.
  // APIARY-WAKE(tile): hosted accelerator — requests and memory-service
  // replies arrive through the owning Tile, whose NI sink wake ends the park
  // on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return !ready() || !boot_backlog_.empty() ? now : kNoActivity;
  }

  std::string name() const override { return "kv_store"; }
  uint32_t LogicCellCost() const override { return 35000; }

  bool IsPreemptible() const override { return true; }
  std::vector<uint8_t> SaveState() override;
  void RestoreState(std::span<const uint8_t> state) override;

  bool ready() const { return mem_cap_ != kInvalidCapRef; }
  size_t index_size() const { return index_.size(); }
  const CounterSet& counters() const { return counters_; }

 private:
  struct ValueLoc {
    uint64_t offset = 0;
    uint32_t length = 0;
  };
  struct PendingOp {
    Message client_request;
    std::string key;
    ValueLoc loc;             // PUT: where the value is being written.
  };

  void HandleGet(const Message& msg, TileApi& api);
  void HandlePut(const Message& msg, TileApi& api);
  void HandleDelete(const Message& msg, TileApi& api);
  void HandleMemReply(const Message& msg, TileApi& api);
  bool ParseKey(const Message& msg, std::string* key, size_t* value_offset) const;

  uint64_t value_log_bytes_;

  CapRef memsvc_cap_ = kInvalidCapRef;
  CapRef mem_cap_ = kInvalidCapRef;
  bool alloc_requested_ = false;
  uint64_t log_head_ = 0;

  std::map<std::string, ValueLoc> index_;
  // memsvc request_id -> pending client op.
  std::map<uint64_t, PendingOp> in_flight_;
  // Requests that arrived before the value log was provisioned.
  std::deque<Message> boot_backlog_;
  uint64_t next_mem_request_ = 1;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_KV_STORE_H_
