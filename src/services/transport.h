// Reliable transport for the external network — sliding-window ARQ with
// cumulative ACKs, retransmission, reordering and de-duplication.
//
// Section 2 of the paper lists "reliable network protocols" among the
// infrastructure FPGA developers are forced to rebuild per project; in
// Apiary it ships once, inside the network service, and every accelerator
// gets in-order exactly-once frame delivery for free. The same class is
// reused by simulated client hosts so both ends speak one protocol.
//
// Wire format (prepended to the application payload):
//   u8 magic (0xAB) | u8 type (1=data, 2=ack) | u32 seq | u32 ack
// Data frames carry the payload after the header; ACK frames are bare.
// Sequence numbers and windows are per-peer.
#ifndef SRC_SERVICES_TRANSPORT_H_
#define SRC_SERVICES_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "src/sim/types.h"
#include "src/stats/summary.h"

namespace apiary {

// Max unacked data frames per peer.
inline constexpr uint32_t kTransportWindow = 16;
// Give up on a frame after this many retransmissions.
inline constexpr uint32_t kTransportMaxRetries = 16;

struct TransportConfig {
  Cycle rto_cycles = 25000;  // Retransmission timeout (~100us).
};

class ReliableTransport {
 public:
  explicit ReliableTransport(TransportConfig config = TransportConfig{})
      : config_(config) {}

  struct OutFrame {
    uint32_t peer = 0;
    std::vector<uint8_t> bytes;
  };

  // Queues application `payload` for reliable delivery to `peer`.
  void SendData(uint32_t peer, std::vector<uint8_t> payload, Cycle now);

  // Processes a raw inbound frame from `peer`. Returns application payloads
  // now deliverable in order (possibly several, when a gap closes). ACKs
  // the data internally; call Poll() to pick up the ACK frames.
  std::vector<std::vector<uint8_t>> OnFrame(uint32_t peer,
                                            const std::vector<uint8_t>& raw, Cycle now);

  // Collects frames to transmit now: fresh data within the window, ACKs,
  // and retransmissions whose RTO expired.
  std::vector<OutFrame> Poll(Cycle now);

  // True if `raw` starts with the transport magic (i.e. is ours to parse).
  static bool IsTransportFrame(const std::vector<uint8_t>& raw);

  uint64_t retransmissions() const { return counters_.Get("rt.retransmits"); }
  uint64_t duplicates_dropped() const { return counters_.Get("rt.dupes"); }
  const CounterSet& counters() const { return counters_; }

 private:
  static constexpr uint8_t kMagic = 0xab;
  static constexpr uint8_t kTypeData = 1;
  static constexpr uint8_t kTypeAck = 2;
  static constexpr size_t kHeaderBytes = 10;

  struct Unacked {
    std::vector<uint8_t> payload;
    Cycle sent_at = 0;
    uint32_t retries = 0;
  };
  struct PeerState {
    // Sender side.
    uint32_t next_seq = 1;
    std::map<uint32_t, Unacked> unacked;          // seq -> frame in flight.
    std::deque<std::vector<uint8_t>> send_queue;  // Waiting for window space.
    // Receiver side.
    uint32_t expected = 1;                         // Next in-order seq.
    std::map<uint32_t, std::vector<uint8_t>> reorder;
    bool ack_due = false;
  };

  static std::vector<uint8_t> Encode(uint8_t type, uint32_t seq, uint32_t ack,
                                     const std::vector<uint8_t>& payload);

  TransportConfig config_;
  std::map<uint32_t, PeerState> peers_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_TRANSPORT_H_
