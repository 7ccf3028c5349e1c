// The per-tile Apiary monitor: the trusted interposition point between an
// untrusted accelerator and the NoC (Figure 1).
//
// "The Apiary monitor serves [as] an accelerator's interface to the OS, so
// all messages go through it" (Section 4.1). The monitor implements:
//   * the standard TileApi every accelerator programs against (4.3),
//   * capability-checked sends with monitor-held capability tables (4.6),
//   * the service-name -> physical-tile indirection (4.3),
//   * per-flow token-bucket rate limiting (4.5),
//   * incoming access control with implicit request/reply rights (4.5),
//   * fail-stop fault containment: drain, sink, and bounce with errors (4.4),
//   * message-level tracing (Section 3, programmability goal).
#ifndef SRC_CORE_MONITOR_H_
#define SRC_CORE_MONITOR_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/core/accelerator.h"
#include "src/core/capability.h"
#include "src/core/message.h"
#include "src/core/trace.h"
#include "src/noc/network_interface.h"
#include "src/sim/clocked.h"
#include "src/sim/rate_limiter.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace apiary {

enum class TileFaultState : uint8_t {
  kHealthy = 0,
  kStopped = 1,  // Fail-stopped: messages sunk, senders bounced with errors.
};

inline constexpr uint32_t kMonitorCapEntries = 64;
inline constexpr uint32_t kMonitorInboxMessages = 256;
inline constexpr uint32_t kMonitorOutboxMessages = 16;
// Pipeline latency the monitor adds to each outgoing message (capability
// CAM lookup + header stamp). Two cycles matches a small two-stage check.
inline constexpr Cycle kMonitorSendPipelineCycles = 2;
inline constexpr size_t kMonitorTraceCapacity = 256;

class Monitor : public TileApi {
 public:
  // `sim` is the board's simulator: its now() is the monitor's clock.
  Monitor(const Simulator* sim, TileId tile, NetworkInterface* ni);

  // ------------------------------------------------------------------
  // Trusted (kernel-side) configuration interface.
  // ------------------------------------------------------------------
  CapRef InstallCap(const Capability& cap);
  bool RevokeCap(CapRef ref);
  void RevokeAllCaps();
  void AllowSender(TileId src) { allowed_senders_[src] = true; }
  void DisallowSender(TileId src) { allowed_senders_.erase(src); }
  void SetRateLimit(uint64_t flits_per_1k_cycles, uint64_t burst_flits);
  // Tenant-shared injection budget: a bucket owned by the tenant manager
  // and shared by every monitor in the tenant, drawn down alongside the
  // per-tile limiter. nullptr clears it. The monitor never owns the bucket.
  void SetSharedLimiter(TokenBucket* limiter) { shared_limiter_ = limiter; }
  // Arbitration class stamped on every packet this monitor injects (see
  // NocPacket::arb_class). Class 0 is the default/kernel class.
  void SetArbClass(uint8_t cls) { arb_class_ = cls; }
  uint8_t arb_class() const { return arb_class_; }
  void SetIdentity(AppId app, ServiceId service);

  // Wake channel to the owning Tile. Fault-plane entry points (RaiseFault,
  // FailStop) may be driven externally — injectors, the kernel, watchdogs —
  // while the tile sits parked; the state they flip is only acted on at the
  // tile's next tick, so they announce themselves through this hint.
  void SetOwnerWake(WakeHint hint) { owner_wake_ = hint; }
  // Wake channel to the block that watches this tile's health (the
  // supervisor managing it): fired on every fault-state change — FailStop,
  // and Restart when a reconfiguration lands or a preempt swap revives the
  // tile — so the watcher can park instead of polling.
  void SetWatcher(WakeHint hint) { watcher_ = hint; }

  // Fail-stop: sink the inbox/outbox and bounce future traffic (4.4).
  void FailStop(const std::string& reason);
  // Clears the fault state after the tile is reconfigured with fresh logic.
  void Restart();
  TileFaultState fault_state() const { return fault_state_; }
  const std::string& fault_reason() const { return fault_reason_; }

  // ------------------------------------------------------------------
  // Per-cycle processing, driven by the owning Tile.
  // ------------------------------------------------------------------
  // Drains the NI and applies incoming policy.
  void BeginCycle();
  // Moves pipeline-ready outbound messages into the NI.
  void FlushOutbox();

  // Quiescence support for the owning Tile (same contract as
  // Clocked::NextActivity): the earliest cycle BeginCycle/FlushOutbox has
  // work — NI delivery to drain, or a pipelined outbound becoming ready.
  [[nodiscard]] Cycle NextActivity(Cycle now) const {
    if (ni_->HasDeliverable()) {
      return now;
    }
    if (!outbox_.empty()) {
      // Outbox ready times are monotonic (stamped at enqueue), so the front
      // is the earliest; a backpressured front is retried every cycle.
      return outbox_.front().ready_at > now ? outbox_.front().ready_at : now;
    }
    return kNoActivity;
  }

  // Delivered-but-unconsumed messages awaiting the accelerator's Receive().
  bool HasPendingInbox() const { return !inbox_.empty(); }

  // ------------------------------------------------------------------
  // TileApi (the untrusted accelerator side).
  // ------------------------------------------------------------------
  SendResult Send(Message msg, CapRef endpoint, CapRef mem, CapRef mem2) override;
  using TileApi::Send;
  SendResult Reply(const Message& request, Message response, CapRef mem) override;
  using TileApi::Reply;
  std::optional<Message> Receive() override;
  CapRef LookupService(ServiceId service) override;
  Cycle now() const override { return sim_->now(); }
  TileId tile() const override { return tile_; }
  AppId app() const override { return app_; }
  ServiceId service() const override { return service_; }
  void RaiseFault(const std::string& reason) override;

  // ------------------------------------------------------------------
  // Introspection.
  // ------------------------------------------------------------------
  CounterSet counters() const;
  const TraceRing& trace() const { return trace_; }
  const CapabilityTable& cap_table() const { return cap_table_; }
  bool accelerator_faulted() const { return accelerator_faulted_; }
  uint64_t MonitorLogicCells() const;

 private:
  SendResult SendInternal(Message msg, TileId dst_tile, CapRef mem, CapRef mem2);
  // Fills `out` from a presented memory capability; false if invalid.
  bool FillGrant(CapRef mem, SegmentGrant* out);
  void DeliverIncoming(Message msg);
  void BounceWithError(const Message& request, MsgStatus status);
  // Takes `msg` only when the outbox has room; on false it is untouched.
  bool EnqueuePacket(Message&& msg, TileId dst_tile);
  void Trace(TraceEvent event, TileId peer, ServiceId service, uint16_t opcode,
             MsgStatus status);

  const Simulator* sim_;
  TileId tile_;
  NetworkInterface* ni_;

  AppId app_ = kInvalidApp;
  ServiceId service_ = kInvalidService;

  CapabilityTable cap_table_;
  std::map<TileId, bool> allowed_senders_;
  // Implicit IPC rights: requests we delivered confer reply rights; requests
  // we sent make us willing to accept responses.
  std::map<TileId, uint64_t> reply_rights_;
  std::map<TileId, uint64_t> pending_responses_;

  TokenBucket limiter_;
  // Tenant-wide budget, not owned: the kernel installs one bucket across a
  // tenant's monitors by design (enforced aggregate NoC share).
  // NOLINTNEXTLINE(apiary-domain-confinement): deliberate tenant-scoped sharing; every monitor of one board lives in one simulator domain
  TokenBucket* shared_limiter_ = nullptr;
  uint8_t arb_class_ = 0;
  TileFaultState fault_state_ = TileFaultState::kHealthy;
  std::string fault_reason_;
  bool accelerator_faulted_ = false;
  WakeHint owner_wake_;
  WakeHint watcher_;

  std::deque<Message> inbox_;
  struct Outbound {
    Cycle ready_at;
    TileId dst_tile;
    Message msg;
  };
  std::deque<Outbound> outbox_;

  uint64_t next_auto_request_id_ = 1;
  // Per-message counters are typed fields, rendered in counters(); the rare
  // events stay string-keyed in counters_.
  uint64_t sends_ = 0;
  uint64_t flits_sent_ = 0;
  uint64_t delivered_ = 0;
  CounterSet counters_;
  TraceRing trace_;
};

}  // namespace apiary

#endif  // SRC_CORE_MONITOR_H_
