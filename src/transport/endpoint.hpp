// Connection table over one datagram socket.
//
// A TransportEndpoint owns every ReliableConn reachable through its
// socket, keyed by peer address (loopback/LAN addressing is stable, so
// the address is the identity; the conn id inside the packets detects a
// peer that restarted and re-dialed). The table is LRU-bounded: dialing
// or accepting past `max_conns` evicts the least-recently-active
// connection — a SYN flood can churn the table but never grow it.
//
// pump() is the single drive point: drain the socket, route packets,
// tick every connection's timers, flush their outgoing datagrams, and
// reap the dead (retry-exhausted, keep-alive silence, half-open
// timeouts) with a traced drop per reap. All `transport.*` / `conn.*`
// counters and trace events on the real path live here, including the
// reliable layer's retransmissions by cause
// (`transport.reliable.{rto_resend,fast_resend,tlp_probe}`).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/lru_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/datagram.hpp"
#include "transport/reliable.hpp"

namespace argus::transport {

struct EndpointParams {
  ReliableParams reliable{};
  std::size_t max_conns = 64;
  /// Datagrams drained per pump (bounds one call's work under flood).
  std::size_t max_recv_per_pump = 1024;
  /// First conn id this endpoint dials with (ISN-style). A restarted
  /// process must pick a different base (the tools mix in the PID) so
  /// its fresh SYN is distinguishable from a retransmit of the old
  /// connection's — that difference is what drives peer-restart
  /// replacement on the passive side. 0 is coerced to 1.
  std::uint32_t conn_id_base = 1;
};

class TransportEndpoint {
 public:
  TransportEndpoint(DatagramSocket& socket, EndpointParams params,
                    obs::MetricsRegistry* metrics = nullptr,
                    obs::Tracer* tracer = nullptr);

  /// Dial `peer` (or return the live connection to it).
  ReliableConn* connect(const NetAddr& peer, double now_ms);

  /// Reliable-ordered send of one application frame; dials on first use.
  SendStatus send(const NetAddr& peer, Bytes frame, double now_ms);

  struct Inbound {
    NetAddr from;
    Bytes frame;
  };

  /// Drive the endpoint; returns application frames delivered in order
  /// per connection.
  std::vector<Inbound> pump(double now_ms);

  /// Orderly close of one peer's connection (best-effort FIN).
  void close(const NetAddr& peer, double now_ms);

  [[nodiscard]] const NetAddr& local_addr() const { return local_; }
  [[nodiscard]] std::size_t live_conns() const { return conns_.size(); }
  [[nodiscard]] std::size_t established_conns() const;
  /// Every peer with a live (non-defunct) connection, dialing included —
  /// frames sent to a still-handshaking peer queue behind its SYN.
  [[nodiscard]] std::vector<NetAddr> live_peers() const;
  /// Table probe for tests; nullptr when no connection exists.
  [[nodiscard]] const ReliableConn* conn(const NetAddr& peer) const;
  /// Earliest reliable-layer deadline over every connection (+infinity
  /// when none): a driver may block on the socket until then.
  [[nodiscard]] double next_deadline_ms() const;

  struct Stats {
    std::uint64_t opened = 0;    // we dialed
    std::uint64_t accepted = 0;  // peer dialed us
    std::uint64_t evicted = 0;   // LRU pressure at max_conns
    std::uint64_t reaped_dead = 0;
    std::uint64_t reaped_half_open = 0;
    std::uint64_t closed = 0;          // orderly FIN (either side)
    std::uint64_t replaced = 0;        // peer restarted: fresh SYN, new id
    std::uint64_t stale_dropped = 0;   // non-SYN from an unknown peer
    std::uint64_t decode_failed = 0;   // undecodable datagrams
    std::uint64_t rx_packets = 0;
    std::uint64_t tx_packets = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  using Conns = LruMap<NetAddr, std::unique_ptr<ReliableConn>>;

  /// Add a connection, evicting the least-recently-active one at
  /// `max_conns`.
  Conns::iterator create(const NetAddr& peer, std::uint32_t conn_id,
                         bool initiator, double now_ms);
  void flush(const NetAddr& peer, ReliableConn& c);
  /// Run `step` on `c`, exporting the retransmissions it caused by cause.
  template <class Step>
  void recover(ReliableConn& c, Step&& step);
  void reap(double now_ms);
  void count(const std::string& name, std::uint64_t delta = 1);
  void trace_conn(double now_ms, const char* event, const NetAddr& peer,
                  std::uint64_t a = 0);

  DatagramSocket& socket_;
  EndpointParams params_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  NetAddr local_;
  Conns conns_;  // stamped from lru_seq_ on every send and receive
  std::uint32_t next_conn_id_;
  std::uint64_t lru_seq_ = 0;
  Stats stats_;
};

}  // namespace argus::transport
