#include "transport/reliable.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

namespace argus::transport {

const char* dead_reason_name(DeadReason r) {
  switch (r) {
    case DeadReason::kNone: return "none";
    case DeadReason::kSynTimeout: return "syn_timeout";
    case DeadReason::kRetryExhausted: return "retry_exhausted";
    case DeadReason::kKeepaliveTimeout: return "keepalive_timeout";
    case DeadReason::kHalfOpenTimeout: return "half_open_timeout";
  }
  return "?";
}

ReliableConn::ReliableConn(std::uint32_t conn_id, bool initiator,
                           const ReliableParams& params, double now_ms)
    : conn_id_(conn_id),
      initiator_(initiator),
      params_(params),
      state_(initiator ? ConnState::kSynSent : ConnState::kSynReceived),
      born_ms_(now_ms),
      last_recv_ms_(now_ms) {
  if (initiator_) {
    emit(Packet{PacketType::kSyn, conn_id_, 0, 0, 0, {}});
    syn_rto_ms_ = params_.rto_initial_ms;
    next_syn_ms_ = now_ms + syn_rto_ms_;
    syn_attempts_ = 1;
  }
}

SendStatus ReliableConn::send(Bytes frame, double now_ms) {
  if (defunct()) return SendStatus::kClosed;
  if (established() && in_flight_.size() < params_.window) {
    stats_.frames_sent++;
    launch(std::move(frame), now_ms);
    return SendStatus::kQueued;
  }
  if (send_queue_.size() >= params_.send_queue_cap) {
    stats_.congested++;
    return SendStatus::kCongested;
  }
  stats_.frames_sent++;
  send_queue_.push_back(std::move(frame));
  return SendStatus::kQueued;
}

void ReliableConn::on_packet(const Packet& p, double now_ms) {
  if (state_ == ConnState::kDead) return;
  last_recv_ms_ = now_ms;
  switch (p.type) {
    case PacketType::kSyn:
      // Dup SYNs (our SYN-ACK was lost) re-trigger the SYN-ACK; a SYN on
      // a dialing connection is a simultaneous open — accept it.
      emit(Packet{PacketType::kSynAck, conn_id_, 0, cum_recv_, sack_bits(), {}});
      if (state_ == ConnState::kSynSent) establish(now_ms);
      return;
    case PacketType::kSynAck:
      if (state_ == ConnState::kSynSent) {
        establish(now_ms);
        // Confirm so the passive side leaves kSynReceived even if no DATA
        // follows immediately; a lost ACK degrades to the first keep-alive.
        emit_ack();
      }
      return;
    case PacketType::kData:
      if (state_ == ConnState::kSynReceived) establish(now_ms);
      on_ack(p.ack, p.sack, now_ms);
      on_data(p, now_ms);
      return;
    case PacketType::kAck:
      if (state_ == ConnState::kSynReceived) establish(now_ms);
      on_ack(p.ack, p.sack, now_ms);
      return;
    case PacketType::kPing:
      if (state_ == ConnState::kSynReceived) establish(now_ms);
      emit(Packet{PacketType::kPong, conn_id_, 0, cum_recv_, sack_bits(), {}});
      return;
    case PacketType::kPong:
      on_ack(p.ack, p.sack, now_ms);
      return;
    case PacketType::kFin:
      state_ = ConnState::kClosed;
      in_flight_.clear();
      send_queue_.clear();
      return;
  }
}

void ReliableConn::tick(double now_ms) {
  switch (state_) {
    case ConnState::kSynSent:
      if (now_ms >= next_syn_ms_) {
        if (syn_attempts_ > params_.syn_max_retries) {
          die(DeadReason::kSynTimeout);
          return;
        }
        emit(Packet{PacketType::kSyn, conn_id_, 0, 0, 0, {}});
        syn_attempts_++;
        syn_rto_ms_ = std::min(syn_rto_ms_ * params_.rto_backoff,
                               params_.rto_max_ms);
        next_syn_ms_ = now_ms + syn_rto_ms_;
      }
      return;
    case ConnState::kSynReceived:
      if (now_ms - born_ms_ >= params_.half_open_timeout_ms) {
        die(DeadReason::kHalfOpenTimeout);
      }
      return;
    case ConnState::kEstablished:
      break;
    case ConnState::kClosed:
    case ConnState::kDead:
      return;
  }

  // Loss recovery, fastest first: RACK's reordering deadlines, then one
  // tail-loss probe, then expired retransmit timers with per-frame
  // backoff.
  if (now_ms >= rack_timer_ms_) detect_losses(now_ms);
  if (now_ms >= probe_ms_ && !in_flight_.empty()) {
    probe_ms_ = kNever;
    auto& [seq, slot] = *in_flight_.rbegin();
    retransmit(seq, slot, now_ms);
    stats_.tlp_probes++;
  }
  for (auto& [seq, slot] : in_flight_) {
    if (now_ms < slot.next_resend_ms) continue;
    if (slot.attempts > params_.max_resend) {
      die(DeadReason::kRetryExhausted);
      return;
    }
    slot.rto_ms = std::min(slot.rto_ms * params_.rto_backoff,
                           params_.rto_max_ms);
    retransmit(seq, slot, now_ms);
    stats_.rto_resends++;
  }

  // Keep-alive: probe an idle peer, declare it dead past the timeout.
  const double silent_ms = now_ms - last_recv_ms_;
  if (silent_ms >= params_.keepalive_timeout_ms) {
    die(DeadReason::kKeepaliveTimeout);
    return;
  }
  if (silent_ms >= params_.keepalive_idle_ms &&
      now_ms - last_ping_ms_ >= params_.keepalive_idle_ms) {
    emit(Packet{PacketType::kPing, conn_id_, 0, cum_recv_, sack_bits(), {}});
    stats_.pings++;
    last_ping_ms_ = now_ms;
  }
}

void ReliableConn::close(double now_ms) {
  (void)now_ms;
  if (defunct()) return;
  emit(Packet{PacketType::kFin, conn_id_, 0, cum_recv_, sack_bits(), {}});
  state_ = ConnState::kClosed;
  in_flight_.clear();
  send_queue_.clear();
}

double ReliableConn::rto_ms() const {
  if (min_rtt_ms_ == kNever) return params_.rto_initial_ms;
  const double rto = srtt_ms_ + std::max(kClockGranularityMs, 4 * rttvar_ms_);
  return std::max(kClockGranularityMs, std::min(rto, params_.rto_max_ms));
}

double ReliableConn::next_deadline_ms() const {
  switch (state_) {
    case ConnState::kSynSent:
      return next_syn_ms_;
    case ConnState::kSynReceived:
      return born_ms_ + params_.half_open_timeout_ms;
    case ConnState::kEstablished:
      break;
    case ConnState::kClosed:
    case ConnState::kDead:
      return kNever;
  }
  double due = std::min({rack_timer_ms_, probe_ms_,
                         last_recv_ms_ + params_.keepalive_timeout_ms,
                         std::max(last_recv_ms_, last_ping_ms_) +
                             params_.keepalive_idle_ms});
  for (const auto& [seq, slot] : in_flight_) {
    due = std::min(due, slot.next_resend_ms);
  }
  return due;
}

std::vector<Bytes> ReliableConn::take_outgoing() {
  if (ack_pending_) emit_ack();
  return std::exchange(outgoing_, {});
}

std::vector<Bytes> ReliableConn::take_delivered() {
  return std::exchange(delivered_, {});
}

void ReliableConn::emit(Packet p) {
  p.conn = conn_id_;
  // Every packet but a SYN carries the current ack/sack, so it settles
  // any ACK owed.
  if (p.type != PacketType::kSyn) ack_pending_ = false;
  outgoing_.push_back(encode_packet(p));
  stats_.packets_sent++;
}

void ReliableConn::emit_ack() {
  emit(Packet{PacketType::kAck, conn_id_, 0, cum_recv_, sack_bits(), {}});
  stats_.acks_sent++;
}

void ReliableConn::establish(double now_ms) {
  state_ = ConnState::kEstablished;
  fill_window(now_ms);
}

void ReliableConn::die(DeadReason reason) {
  state_ = ConnState::kDead;
  dead_reason_ = reason;
  in_flight_.clear();
  send_queue_.clear();
}

void ReliableConn::fill_window(double now_ms) {
  while (!send_queue_.empty() && in_flight_.size() < params_.window) {
    Bytes frame = std::move(send_queue_.front());
    send_queue_.pop_front();
    launch(std::move(frame), now_ms);
  }
}

void ReliableConn::launch(Bytes frame, double now_ms) {
  const std::uint32_t seq = next_seq_++;
  if (in_flight_.empty()) probe_ms_ = now_ms + probe_timeout_ms();
  emit_data(seq, frame);
  const double rto = rto_ms();
  in_flight_.emplace(seq,
                     InFlight{std::move(frame), now_ms, now_ms + rto, rto, 1});
}

void ReliableConn::emit_data(std::uint32_t seq, const Bytes& frame) {
  emit(Packet{PacketType::kData, conn_id_, seq, cum_recv_, sack_bits(), frame});
}

void ReliableConn::retransmit(std::uint32_t seq, InFlight& slot,
                              double now_ms) {
  emit_data(seq, slot.frame);
  slot.attempts++;
  slot.sent_ms = now_ms;
  slot.next_resend_ms = now_ms + slot.rto_ms;
  stats_.resends++;
}

void ReliableConn::on_ack(std::uint32_t ack, std::uint32_t sack,
                          double now_ms) {
  // One RTT sample per ack, from the newest-sent frame it newly covers
  // that was transmitted once (Karn). A cumulative advance across a
  // retransmitted frame samples nothing cumulatively: frames above the
  // SACK span that it also covers waited for the repair.
  const std::size_t unacked = in_flight_.size();
  double sample_sent_ms = -kNever;
  const auto covered = [&](auto it, bool may_sample) {
    const InFlight& slot = it->second;
    if (may_sample && slot.attempts == 1) {
      sample_sent_ms = std::max(sample_sent_ms, slot.sent_ms);
    }
    on_delivered(it->first, slot, now_ms);
    return in_flight_.erase(it);
  };
  // Cumulative: everything at or below `ack` arrived.
  const auto cum_end = in_flight_.upper_bound(ack);
  const bool cum_sample =
      std::none_of(in_flight_.begin(), cum_end,
                   [](const auto& e) { return e.second.attempts > 1; });
  for (auto it = in_flight_.begin(); it != cum_end;) {
    it = covered(it, cum_sample);
  }
  // Selective: bit i covers seq ack+1+i.
  for (std::uint32_t i = 0; i < kSackSpan && sack != 0; ++i) {
    if (((sack >> i) & 1U) == 0) continue;
    if (const auto it = in_flight_.find(ack + 1 + i); it != in_flight_.end()) {
      covered(it, true);
    }
  }
  if (in_flight_.size() < unacked) {
    if (sample_sent_ms != -kNever) sample_rtt(now_ms - sample_sent_ms);
    detect_losses(now_ms);
    probe_ms_ = in_flight_.empty() ? kNever : now_ms + probe_timeout_ms();
  }
  fill_window(now_ms);
}

void ReliableConn::on_delivered(std::uint32_t seq, const InFlight& slot,
                                double now_ms) {
  const double rtt = now_ms - slot.sent_ms;
  // An ack faster than any path RTT answers an earlier copy of a
  // retransmitted frame: it says nothing about the retransmission.
  if (slot.attempts > 1 && rtt < min_rtt_ms_) return;
  if (std::tie(slot.sent_ms, seq) > std::tie(rack_sent_ms_, rack_seq_)) {
    rack_sent_ms_ = slot.sent_ms;
    rack_seq_ = seq;
    rack_rtt_ms_ = rtt;
  }
}

void ReliableConn::sample_rtt(double rtt_ms) {
  if (min_rtt_ms_ == kNever) {
    srtt_ms_ = rtt_ms;
    rttvar_ms_ = rtt_ms / 2;
  } else {
    rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - rtt_ms);
    srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * rtt_ms;
  }
  min_rtt_ms_ = std::min(min_rtt_ms_, rtt_ms);
}

void ReliableConn::detect_losses(double now_ms) {
  rack_timer_ms_ = kNever;
  const double reorder_window_ms = min_rtt_ms_ / 4;
  for (auto& [seq, slot] : in_flight_) {
    // Only frames sent before the newest delivered one can be lost.
    if (std::tie(slot.sent_ms, seq) >= std::tie(rack_sent_ms_, rack_seq_)) {
      continue;
    }
    const double lost_at = slot.sent_ms + rack_rtt_ms_ + reorder_window_ms;
    if (now_ms >= lost_at) {
      retransmit(seq, slot, now_ms);
      stats_.fast_resends++;
    } else {
      rack_timer_ms_ = std::min(rack_timer_ms_, lost_at);
    }
  }
}

double ReliableConn::probe_timeout_ms() const {
  if (min_rtt_ms_ == kNever) return kNever;  // the RTO covers the start
  return std::max(2 * srtt_ms_, kClockGranularityMs);
}

// ACK policy (RFC 5681 section 4.2): in-order DATA that fills no gap
// only marks an ACK as owed, so a burst drained together is acked once
// (take_outgoing). A duplicate, an out-of-order arrival or one that fills
// a gap is acked at once: those are the ACKs loss recovery waits on.
void ReliableConn::on_data(const Packet& p, double now_ms) {
  (void)now_ms;
  const std::uint32_t seq = p.seq;
  if (seq <= cum_recv_) {
    stats_.dup_rx++;  // already delivered — re-ack so the resends stop
    emit_ack();
    return;
  }
  if (seq > cum_recv_ + params_.recv_window) {
    stats_.beyond_window_rx++;  // sender will retry once the window moves
    return;
  }
  if (!recv_buf_.emplace(seq, p.payload).second) {
    stats_.dup_rx++;
    emit_ack();
    return;
  }
  if (seq != cum_recv_ + 1) {
    stats_.out_of_order_rx++;
    emit_ack();
    return;
  }
  const bool fills_gap = recv_buf_.size() > 1;
  // Advance the cumulative frontier through any newly contiguous run.
  auto it = recv_buf_.find(cum_recv_ + 1);
  while (it != recv_buf_.end()) {
    delivered_.push_back(std::move(it->second));
    stats_.frames_delivered++;
    cum_recv_++;
    it = recv_buf_.erase(it);
    if (it == recv_buf_.end() || it->first != cum_recv_ + 1) {
      it = recv_buf_.find(cum_recv_ + 1);
    }
  }
  if (fills_gap) {
    emit_ack();
  } else {
    ack_pending_ = true;
  }
}

std::uint32_t ReliableConn::sack_bits() const {
  std::uint32_t bits = 0;
  for (auto it = recv_buf_.begin(); it != recv_buf_.end(); ++it) {
    const std::uint32_t off = it->first - cum_recv_ - 1;
    if (off >= kSackSpan) break;
    bits |= (1U << off);
  }
  return bits;
}

}  // namespace argus::transport
