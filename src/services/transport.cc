#include "src/services/transport.h"

#include "src/core/message.h"

namespace apiary {

bool ReliableTransport::IsTransportFrame(const std::vector<uint8_t>& raw) {
  return raw.size() >= kHeaderBytes && raw[0] == kMagic;
}

std::vector<uint8_t> ReliableTransport::Encode(uint8_t type, uint32_t seq, uint32_t ack,
                                               const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  out.push_back(kMagic);
  out.push_back(type);
  PutU32(out, seq);
  PutU32(out, ack);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void ReliableTransport::SendData(uint32_t peer, std::vector<uint8_t> payload, Cycle now) {
  (void)now;
  counters_.Add("rt.app_sends");
  peers_[peer].send_queue.push_back(std::move(payload));
}

std::vector<std::vector<uint8_t>> ReliableTransport::OnFrame(uint32_t peer,
                                                             const std::vector<uint8_t>& raw,
                                                             Cycle now) {
  (void)now;
  std::vector<std::vector<uint8_t>> deliverable;
  if (!IsTransportFrame(raw)) {
    counters_.Add("rt.non_transport");
    return deliverable;
  }
  PeerState& state = peers_[peer];
  const uint8_t type = raw[1];
  const uint32_t seq = GetU32(raw, 2);
  const uint32_t ack = GetU32(raw, 6);

  // Cumulative ACK processing (both frame types carry the ack field: data
  // frames piggyback it).
  for (auto it = state.unacked.begin(); it != state.unacked.end();) {
    if (it->first < ack) {
      it = state.unacked.erase(it);
      counters_.Add("rt.acked");
    } else {
      ++it;
    }
  }
  if (type == kTypeAck) {
    return deliverable;
  }

  // Data path: dedup + reorder into in-order delivery.
  counters_.Add("rt.data_frames");
  state.ack_due = true;
  if (seq < state.expected || state.reorder.count(seq) != 0) {
    counters_.Add("rt.dupes");
    return deliverable;
  }
  state.reorder[seq].assign(raw.begin() + kHeaderBytes, raw.end());
  while (true) {
    auto it = state.reorder.find(state.expected);
    if (it == state.reorder.end()) {
      break;
    }
    deliverable.push_back(std::move(it->second));
    state.reorder.erase(it);
    ++state.expected;
    counters_.Add("rt.delivered");
  }
  return deliverable;
}

std::vector<ReliableTransport::OutFrame> ReliableTransport::Poll(Cycle now) {
  std::vector<OutFrame> out;
  for (auto& [peer, state] : peers_) {
    // Launch fresh data while window space remains.
    while (!state.send_queue.empty() && state.unacked.size() < kTransportWindow) {
      const uint32_t seq = state.next_seq++;
      std::vector<uint8_t> payload = std::move(state.send_queue.front());
      state.send_queue.pop_front();
      out.push_back(OutFrame{peer, Encode(kTypeData, seq, state.expected, payload)});
      state.unacked[seq] = Unacked{std::move(payload), now, 0};
      state.ack_due = false;  // Piggybacked.
      counters_.Add("rt.data_sent");
    }
    // Retransmit expired frames.
    for (auto& [seq, frame] : state.unacked) {
      if (now >= frame.sent_at + config_.rto_cycles) {
        if (frame.retries >= kTransportMaxRetries) {
          counters_.Add("rt.gave_up");
          continue;
        }
        frame.sent_at = now;
        ++frame.retries;
        out.push_back(OutFrame{peer, Encode(kTypeData, seq, state.expected, frame.payload)});
        counters_.Add("rt.retransmits");
      }
    }
    // Standalone ACK if nothing piggybacked it.
    if (state.ack_due) {
      out.push_back(OutFrame{peer, Encode(kTypeAck, 0, state.expected, {})});
      state.ack_due = false;
      counters_.Add("rt.acks_sent");
    }
  }
  return out;
}

}  // namespace apiary
