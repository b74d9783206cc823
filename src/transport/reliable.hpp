// Reliable-ordered connection state machine (Anger-RUDPLink style).
//
// One ReliableConn turns an unreliable datagram path into an in-order,
// exactly-once frame stream:
//
//   * every DATA frame carries a 1-based sequence number; the receiver
//     acks cumulatively (every seq <= ack arrived) plus a 32-bit
//     selective-ack bitmap for out-of-order arrivals. In-order DATA that
//     fills no gap only marks an ACK as owed; any packet sent before the
//     next drain carries the ack/sack and settles it, and take_outgoing()
//     emits one pure ACK if it is still owed — so a clean burst drained
//     together is acked once. Duplicates, out-of-order arrivals and gap
//     fills are acked at once (RFC 5681 section 4.2): loss recovery waits
//     on those;
//   * unacked frames sit in a bounded in-flight window. A lost frame is
//     found in about one round trip: RACK (RFC 8985) marks a frame lost
//     once a frame sent after it is acked and a reordering window has
//     passed, and a tail-loss probe resends the newest frame when acks
//     stop. The per-frame retransmit timer (RFC 6298 RTO from SRTT and
//     RTTVAR, Karn's rule, exponential backoff) is the fallback; a frame
//     that exhausts its retries declares the peer dead (graceful
//     degradation, never a hang);
//   * sends beyond the window queue up to a cap, past which send()
//     reports congestion — the caller's SendOutcome::congested;
//   * keep-alive PINGs probe an idle peer; silence past the timeout
//     declares it dead, and a half-open handshake (SYN seen, never
//     completed) dies on its own clock so abandoned dials cannot pin
//     table slots.
//
// The class is a pure clock-driven state machine: no sockets, no
// threads, no wall clock. The owner feeds packets + `now_ms` in and
// drains raw datagrams / delivered frames out, so the same code is
// driven by UDP (endpoint.hpp), the in-memory pipe hub, and hand-stepped
// unit tests — fully deterministic under a seeded netem shim.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "transport/wire.hpp"

namespace argus::transport {

/// Clock granularity G of RFC 6298 / RFC 9002 (kGranularity): the
/// floor of the RTO and of the tail-loss probe delay.
inline constexpr double kClockGranularityMs = 1.0;

struct ReliableParams {
  double rto_initial_ms = 120.0;  // SYN and pre-first-RTT-sample RTO
  double rto_backoff = 2.0;       // delay multiplier per attempt
  double rto_max_ms = 2000.0;     // RTO and backoff ceiling
  unsigned max_resend = 20;       // per frame; exhausted => peer dead
  std::size_t window = 64;        // unacked DATA frames in flight
  std::size_t send_queue_cap = 1024;  // queued beyond the window
  std::size_t recv_window = 512;  // out-of-order seqs held above the ack
  double keepalive_idle_ms = 1500.0;    // silence before a PING probe
  double keepalive_timeout_ms = 6000.0; // silence before peer-dead
  double half_open_timeout_ms = 3000.0; // SYN seen, never established
  unsigned syn_max_retries = 8;
};

enum class ConnState : std::uint8_t {
  kSynSent = 0,      // we dialed, waiting for SYN-ACK
  kSynReceived = 1,  // peer dialed, waiting for its first real packet
  kEstablished = 2,
  kClosed = 3,  // orderly FIN (ours or theirs)
  kDead = 4,    // retries/keep-alive exhausted — reap me
};

/// Why a connection reached kDead (for conn.dead.<reason> counters).
enum class DeadReason : std::uint8_t {
  kNone = 0,
  kSynTimeout,
  kRetryExhausted,
  kKeepaliveTimeout,
  kHalfOpenTimeout,
};

const char* dead_reason_name(DeadReason r);

enum class SendStatus : std::uint8_t {
  kQueued = 0,    // accepted (in flight or waiting for the window)
  kCongested,     // send queue full — back off and retry later
  kClosed,        // connection closed/dead; frame not accepted
};

class ReliableConn {
 public:
  /// `initiator` == true dials (emits SYN immediately); false is the
  /// passive side created on receipt of a peer's SYN.
  ReliableConn(std::uint32_t conn_id, bool initiator,
               const ReliableParams& params, double now_ms);

  /// Queue one application frame for reliable in-order delivery.
  SendStatus send(Bytes frame, double now_ms);

  /// Feed one decoded packet from the wire.
  void on_packet(const Packet& p, double now_ms);

  /// Drive timers: retransmits, keep-alives, death clocks. Call every
  /// pump even when no packet arrived.
  void tick(double now_ms);

  /// Orderly close: emit a best-effort FIN and stop accepting sends. A
  /// lost FIN degrades to the peer's keep-alive timeout.
  void close(double now_ms);

  /// Raw datagram payloads to transmit, in order, ending with one pure
  /// ACK if DATA arrived since the last drain and nothing sent since has
  /// carried the ack. Drained by the owner after send/on_packet/tick.
  std::vector<Bytes> take_outgoing();

  /// Application frames delivered in order, exactly once.
  std::vector<Bytes> take_delivered();

  [[nodiscard]] ConnState state() const { return state_; }
  [[nodiscard]] DeadReason dead_reason() const { return dead_reason_; }
  [[nodiscard]] std::uint32_t conn_id() const { return conn_id_; }
  [[nodiscard]] bool established() const {
    return state_ == ConnState::kEstablished;
  }
  [[nodiscard]] bool defunct() const {
    return state_ == ConnState::kClosed || state_ == ConnState::kDead;
  }
  [[nodiscard]] double last_recv_ms() const { return last_recv_ms_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }
  [[nodiscard]] std::size_t queued() const { return send_queue_.size(); }
  [[nodiscard]] std::size_t recv_buffered() const { return recv_buf_.size(); }

  /// Smoothed RTT; 0 until the first sample.
  [[nodiscard]] double srtt_ms() const { return srtt_ms_; }
  /// Retransmit timeout a fresh frame gets: rto_initial_ms until the
  /// first RTT sample, then SRTT + max(G, 4 RTTVAR) within [G, rto_max_ms].
  [[nodiscard]] double rto_ms() const;
  /// Earliest instant tick() has work to do (a retransmit, probe,
  /// keep-alive or death clock); +infinity when there is none.
  [[nodiscard]] double next_deadline_ms() const;

  struct Stats {
    std::uint64_t frames_sent = 0;       // distinct DATA frames accepted
    std::uint64_t packets_sent = 0;      // datagrams emitted (all types)
    std::uint64_t resends = 0;           // DATA retransmissions, all causes
    std::uint64_t rto_resends = 0;       //   ... on retransmit-timer expiry
    std::uint64_t fast_resends = 0;      //   ... RACK-detected losses
    std::uint64_t tlp_probes = 0;        //   ... tail-loss probes
    std::uint64_t frames_delivered = 0;  // in-order app deliveries
    std::uint64_t dup_rx = 0;            // already-delivered DATA seen again
    std::uint64_t out_of_order_rx = 0;   // buffered above the cumulative ack
    std::uint64_t beyond_window_rx = 0;  // dropped: too far above the ack
    std::uint64_t congested = 0;         // sends refused by the queue cap
    std::uint64_t pings = 0;
    std::uint64_t acks_sent = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  struct InFlight {
    Bytes frame;
    double sent_ms = 0;         // last (re)transmission
    double next_resend_ms = 0;  // retransmit timer
    double rto_ms = 0;          // this frame's timeout, backed off per expiry
    unsigned attempts = 0;      // transmissions so far
  };

  void emit(Packet p);
  void emit_ack();
  void establish(double now_ms);
  void die(DeadReason reason);
  void fill_window(double now_ms);
  /// Give `frame` the next seq and transmit it.
  void launch(Bytes frame, double now_ms);
  void emit_data(std::uint32_t seq, const Bytes& frame);
  /// Retransmit without touching the frame's timeout (the caller backs
  /// it off on RTO expiry).
  void retransmit(std::uint32_t seq, InFlight& slot, double now_ms);
  void on_ack(std::uint32_t ack, std::uint32_t sack, double now_ms);
  /// RACK bookkeeping for one newly acked frame, before it is erased.
  void on_delivered(std::uint32_t seq, const InFlight& slot, double now_ms);
  void sample_rtt(double rtt_ms);
  /// RACK: retransmit every frame sent before the newest delivered one
  /// whose reordering window has passed; arm rack_timer_ms_ for the rest.
  void detect_losses(double now_ms);
  [[nodiscard]] double probe_timeout_ms() const;
  void on_data(const Packet& p, double now_ms);
  [[nodiscard]] std::uint32_t sack_bits() const;

  std::uint32_t conn_id_;
  bool initiator_;
  ReliableParams params_;
  ConnState state_;
  DeadReason dead_reason_ = DeadReason::kNone;

  // --- send side ---
  std::uint32_t next_seq_ = 1;              // next fresh DATA seq
  std::map<std::uint32_t, InFlight> in_flight_;
  std::deque<Bytes> send_queue_;            // waiting for a window slot

  // --- receive side ---
  std::uint32_t cum_recv_ = 0;              // every seq <= this delivered
  std::map<std::uint32_t, Bytes> recv_buf_; // out-of-order, above cum_recv_
  std::vector<Bytes> delivered_;

  // --- RTT estimator (RFC 6298) ---
  double srtt_ms_ = 0;  // 0 until the first sample
  double rttvar_ms_ = 0;
  double min_rtt_ms_ = kNever;

  // --- RACK (RFC 8985): the newest-transmitted delivered frame ---
  double rack_sent_ms_ = -kNever;
  std::uint32_t rack_seq_ = 0;  // tie-break between equal send times
  double rack_rtt_ms_ = 0;
  double rack_timer_ms_ = kNever;  // earliest pending reordering deadline

  // --- tail-loss probe ---
  double probe_ms_ = kNever;  // armed on ack progress; fires at most once

  // --- clocks ---
  double born_ms_;
  double last_recv_ms_;
  double last_ping_ms_ = -1e18;
  double next_syn_ms_ = 0;
  double syn_rto_ms_ = 0;
  unsigned syn_attempts_ = 0;

  std::vector<Bytes> outgoing_;
  bool ack_pending_ = false;  // in-order DATA arrived; not yet acked
  Stats stats_;
};

}  // namespace argus::transport
