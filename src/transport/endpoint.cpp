#include "transport/endpoint.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace argus::transport {

TransportEndpoint::TransportEndpoint(DatagramSocket& socket,
                                     EndpointParams params,
                                     obs::MetricsRegistry* metrics,
                                     obs::Tracer* tracer)
    : socket_(socket),
      params_(params),
      metrics_(metrics),
      tracer_(tracer),
      local_(socket.local_addr()),
      next_conn_id_(params.conn_id_base == 0 ? 1 : params.conn_id_base) {}

ReliableConn* TransportEndpoint::connect(const NetAddr& peer, double now_ms) {
  if (const auto it = conns_.find(peer); it != conns_.end()) {
    return it->second.value.get();
  }
  ReliableConn& c =
      *create(peer, next_conn_id_++, /*initiator=*/true, now_ms)->second.value;
  stats_.opened++;
  count("conn.opened");
  trace_conn(now_ms, "conn.open", peer);
  flush(peer, c);
  return &c;
}

SendStatus TransportEndpoint::send(const NetAddr& peer, Bytes frame,
                                   double now_ms) {
  ReliableConn* c = connect(peer, now_ms);
  const SendStatus st = c->send(std::move(frame), now_ms);
  if (st == SendStatus::kCongested) count("transport.congested");
  conns_.touch(conns_.find(peer), ++lru_seq_);
  flush(peer, *c);
  return st;
}

std::vector<TransportEndpoint::Inbound> TransportEndpoint::pump(
    double now_ms) {
  std::vector<Inbound> out;

  // 1. Drain the socket and route packets to their connections.
  std::vector<NetAddr> touched;
  NetAddr from;
  Bytes datagram;
  for (std::size_t i = 0;
       i < params_.max_recv_per_pump && socket_.recv_from(&from, &datagram);
       ++i) {
    stats_.rx_packets++;
    count("transport.rx.packets");
    count("transport.rx.bytes", datagram.size());
    WireError err = WireError::kOk;
    const auto packet = decode_packet(datagram, &err);
    if (!packet) {
      stats_.decode_failed++;
      count("transport.decode_failed");
      continue;
    }
    auto it = conns_.find(from);
    if (it == conns_.end()) {
      if (packet->type != PacketType::kSyn) {
        // No connection and no dial: stale traffic from a reaped or
        // restarted peer. Drop it — the peer's retransmits die on their
        // own retry budget.
        stats_.stale_dropped++;
        count("transport.stale_dropped");
        continue;
      }
      it = create(from, packet->conn, /*initiator=*/false, now_ms);
      stats_.accepted++;
      count("conn.accepted");
      trace_conn(now_ms, "conn.accept", from);
    } else if (packet->type == PacketType::kSyn &&
               packet->conn != it->second.value->conn_id()) {
      // Same address, fresh conn id: the peer restarted. Replace the
      // stale connection rather than feeding its successor's handshake
      // into a dead state machine.
      conns_.erase(it);
      it = create(from, packet->conn, /*initiator=*/false, now_ms);
      stats_.replaced++;
      count("conn.replaced");
      trace_conn(now_ms, "conn.replace", from);
    }
    ReliableConn& c = *it->second.value;
    const bool was_established = c.established();
    recover(c, [&] { c.on_packet(*packet, now_ms); });
    if (!was_established && c.established()) {
      count("conn.established");
      trace_conn(now_ms, "conn.establish", from);
    }
    conns_.touch(it, ++lru_seq_);
    for (Bytes& frame : c.take_delivered()) {
      out.push_back(Inbound{from, std::move(frame)});
    }
    if (std::find(touched.begin(), touched.end(), from) == touched.end()) {
      touched.push_back(from);
    }
  }
  // Each connection the socket drain touched is flushed once, so a burst
  // of DATA drained together costs one ACK (ReliableConn::take_outgoing).
  // The ACK leaves now, not on the application's replies: holding it
  // across the caller's compute would inflate the peer's RTT samples.
  for (const NetAddr& peer : touched) {
    if (const auto it = conns_.find(peer); it != conns_.end()) {
      flush(peer, *it->second.value);
    }
  }

  // 2. Timers: retransmits, keep-alives, death clocks.
  for (auto& [peer, e] : conns_) {
    recover(*e.value, [&] { e.value->tick(now_ms); });
    for (Bytes& frame : e.value->take_delivered()) {
      out.push_back(Inbound{peer, std::move(frame)});
    }
    flush(peer, *e.value);
  }

  // 3. Reap the defunct.
  reap(now_ms);
  return out;
}

void TransportEndpoint::close(const NetAddr& peer, double now_ms) {
  const auto it = conns_.find(peer);
  if (it == conns_.end()) return;
  it->second.value->close(now_ms);
  flush(peer, *it->second.value);
}

std::size_t TransportEndpoint::established_conns() const {
  std::size_t n = 0;
  for (const auto& [peer, e] : conns_) n += e.value->established() ? 1 : 0;
  return n;
}

std::vector<NetAddr> TransportEndpoint::live_peers() const {
  std::vector<NetAddr> peers;
  for (const auto& [peer, e] : conns_) {
    if (!e.value->defunct()) peers.push_back(peer);
  }
  return peers;
}

const ReliableConn* TransportEndpoint::conn(const NetAddr& peer) const {
  const auto it = conns_.find(peer);
  return it == conns_.end() ? nullptr : it->second.value.get();
}

double TransportEndpoint::next_deadline_ms() const {
  double due = std::numeric_limits<double>::infinity();
  for (const auto& [peer, e] : conns_) {
    due = std::min(due, e.value->next_deadline_ms());
  }
  return due;
}

TransportEndpoint::Conns::iterator TransportEndpoint::create(
    const NetAddr& peer, std::uint32_t conn_id, bool initiator,
    double now_ms) {
  if (!conns_.empty() && conns_.size() >= params_.max_conns) {
    stats_.evicted++;
    count("conn.evicted");
    trace_conn(now_ms, "conn.evict", conns_.oldest());
    conns_.evict_oldest();
  }
  return conns_.put(peer,
                    std::make_unique<ReliableConn>(conn_id, initiator,
                                                   params_.reliable, now_ms),
                    ++lru_seq_);
}

void TransportEndpoint::flush(const NetAddr& peer, ReliableConn& c) {
  for (const Bytes& datagram : c.take_outgoing()) {
    stats_.tx_packets++;
    count("transport.tx.packets");
    count("transport.tx.bytes", datagram.size());
    socket_.send_to(peer, datagram);
  }
}

template <class Step>
void TransportEndpoint::recover(ReliableConn& c, Step&& step) {
  if (metrics_ == nullptr) {
    step();
    return;
  }
  const ReliableConn::Stats before = c.stats();
  step();
  const ReliableConn::Stats& after = c.stats();
  if (after.resends == before.resends) return;
  count("transport.reliable.rto_resend", after.rto_resends - before.rto_resends);
  count("transport.reliable.fast_resend",
        after.fast_resends - before.fast_resends);
  count("transport.reliable.tlp_probe", after.tlp_probes - before.tlp_probes);
}

void TransportEndpoint::reap(double now_ms) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    ReliableConn& c = *it->second.value;
    if (!c.defunct()) {
      ++it;
      continue;
    }
    if (c.state() == ConnState::kClosed) {
      stats_.closed++;
      count("conn.closed");
      trace_conn(now_ms, "conn.close", it->first);
    } else if (c.dead_reason() == DeadReason::kHalfOpenTimeout) {
      stats_.reaped_half_open++;
      count("conn.reaped_half_open");
      trace_conn(now_ms, "conn.reap_half_open", it->first);
    } else {
      // Peer-dead: traced drop, counted per reason. The caller observes
      // the vanished peer as undelivered frames, never as a hang.
      stats_.reaped_dead++;
      count(std::string("conn.dead.") + dead_reason_name(c.dead_reason()));
      trace_conn(now_ms, "conn.reap_dead", it->first,
                 static_cast<std::uint64_t>(c.dead_reason()));
    }
    it = conns_.erase(it);
  }
}

void TransportEndpoint::count(const std::string& name, std::uint64_t delta) {
  if (metrics_ != nullptr) metrics_->counter(name).inc(delta);
}

void TransportEndpoint::trace_conn(double now_ms, const char* event,
                                   const NetAddr& peer, std::uint64_t a) {
  if (tracer_ != nullptr) {
    tracer_->instant(now_ms, 0, event, "transport", a, 0, peer.str());
  }
}

}  // namespace argus::transport
