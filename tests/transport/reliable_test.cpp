// Reliable-ordered connection layer under injected damage.
//
// The centrepiece is the Anger-style ReliableOrderTest: 1000 frames
// pushed through a 55%-loss pipe must arrive complete, in order, and
// exactly once. Everything runs on a hand-stepped virtual clock over the
// in-memory PipeHub with the seeded netem shim, so each scenario replays
// byte-for-byte. The loss-recovery tests drop one chosen packet once and
// check which mechanism repairs it: RACK, the tail-loss probe or the RTO.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serde.hpp"
#include "fault/netem.hpp"
#include "transport/pipe.hpp"
#include "transport/reliable.hpp"

namespace argus::transport {
namespace {

Bytes frame_bytes(std::uint32_t i) {
  ByteWriter w;
  w.u32(i);
  w.u32(i * 2654435761u);
  return w.take();
}

/// Passes datagrams through, except that it drops the first one sent
/// after drop_once() whose decoded packet matches.
class DropOnceSocket final : public DatagramSocket {
 public:
  explicit DropOnceSocket(DatagramSocket& inner) : inner_(inner) {}

  void drop_once(std::function<bool(const Packet&)> match) {
    match_ = std::move(match);
  }
  bool send_to(const NetAddr& to, ByteSpan data) override {
    if (match_) {
      if (const auto p = decode_packet(data); p && match_(*p)) {
        match_ = nullptr;
        dropped++;
        return true;
      }
    }
    return inner_.send_to(to, data);
  }
  bool recv_from(NetAddr* from, Bytes* data) override {
    return inner_.recv_from(from, data);
  }
  [[nodiscard]] NetAddr local_addr() const override {
    return inner_.local_addr();
  }

  unsigned dropped = 0;

 private:
  DatagramSocket& inner_;
  std::function<bool(const Packet&)> match_;
};

std::function<bool(const Packet&)> data_seq(std::uint32_t seq) {
  return [seq](const Packet& p) {
    return p.type == PacketType::kData && p.seq == seq;
  };
}

/// Two ReliableConns talking through a PipeHub with a netem shim and a
/// drop-once socket on each direction. step() shuttles outgoing
/// datagrams, feeds arrivals, and ticks both clocks — one deterministic
/// quantum of "network time". A frame a sends between steps is acked two
/// steps later.
struct ConnPair {
  PipeHub hub;
  std::unique_ptr<PipeSocket> sock_a, sock_b;
  DropOnceSocket drop_a, drop_b;
  fault::NetemSocket shim_a, shim_b;
  ReliableConn a, b;
  double now = 0;

  ConnPair(const ReliableParams& params, const fault::NetemParams& damage)
      : sock_a(hub.open(0)),
        sock_b(hub.open(0)),
        drop_a(*sock_a),
        drop_b(*sock_b),
        shim_a(drop_a, with_seed(damage, damage.seed)),
        shim_b(drop_b, with_seed(damage, damage.seed + 1)),
        a(/*conn_id=*/7, /*initiator=*/true, params, 0),
        b(/*conn_id=*/7, /*initiator=*/false, params, 0) {}

  static fault::NetemParams with_seed(fault::NetemParams p, std::uint64_t s) {
    p.seed = s;
    return p;
  }

  void step(double dt) {
    now += dt;
    // Flush a's datagrams toward b, b's toward a (through the shims).
    for (Bytes& d : a.take_outgoing()) {
      shim_a.send_to(sock_b->local_addr(), d);
    }
    for (Bytes& d : b.take_outgoing()) {
      shim_b.send_to(sock_a->local_addr(), d);
    }
    // Deliver whatever survived the shims.
    NetAddr from;
    Bytes data;
    while (sock_b->recv_from(&from, &data)) {
      if (const auto p = decode_packet(data)) b.on_packet(*p, now);
    }
    while (sock_a->recv_from(&from, &data)) {
      if (const auto p = decode_packet(data)) a.on_packet(*p, now);
    }
    a.tick(now);
    b.tick(now);
  }

  void run_until_established(double dt = 10, double limit = 20000) {
    while ((!a.established() || !b.established()) && now < limit) step(dt);
    ASSERT_TRUE(a.established());
    ASSERT_TRUE(b.established());
  }

  /// Establish, then send two frames with round trips of 10 and 2 ms:
  /// SRTT 9, RTTVAR 5.75, so a fresh frame's RTO is 32 ms.
  void warm_up() {
    run_until_established();
    for (const double dt : {5.0, 1.0}) {
      ASSERT_EQ(a.send(frame_bytes(sent), now), SendStatus::kQueued);
      sent++;
      step(dt);
      step(dt);
    }
    ASSERT_EQ(a.in_flight(), 0u);
    ASSERT_DOUBLE_EQ(a.srtt_ms(), 9.0);
    ASSERT_DOUBLE_EQ(a.rto_ms(), 32.0);
  }

  /// Send `n` fresh frames at once.
  void burst(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(a.send(frame_bytes(sent), now), SendStatus::kQueued);
      sent++;
    }
  }

  /// Step 1 ms at a time until b delivered every frame sent (or `limit`).
  void run_until_delivered(double limit) {
    const double end = now + limit;
    while (got.size() < sent && now < end) {
      step(1);
      for (Bytes& f : b.take_delivered()) got.push_back(std::move(f));
    }
  }

  /// Every frame a sent arrived at b, in order, exactly once.
  void expect_exactly_once() const {
    ASSERT_EQ(got.size(), sent);
    for (std::uint32_t i = 0; i < sent; ++i) {
      EXPECT_EQ(got[i], frame_bytes(i)) << "out of order at " << i;
    }
    EXPECT_EQ(b.stats().frames_delivered, sent);
  }

  std::uint32_t sent = 0;  // frames a sent via warm_up()/burst()
  std::vector<Bytes> got;  // what b delivered in run_until_delivered()
};

TEST(ReliableOrder, ThousandFramesAt55PercentLoss) {
  ReliableParams params;
  params.max_resend = 60;              // the test is about ordering, not death
  params.syn_max_retries = 30;         // the handshake too must ride out loss
  params.keepalive_timeout_ms = 1e9;   // keep the death clocks out of the way
  params.half_open_timeout_ms = 1e9;   // (b holds its slot however long the
                                       //  handshake takes at 55% loss)
  fault::NetemParams damage;
  damage.drop_prob = 0.55;
  damage.dup_prob = 0.05;
  damage.reorder_prob = 0.10;
  damage.seed = 1955;
  ConnPair pair(params, damage);

  constexpr std::uint32_t kFrames = 1000;
  std::uint32_t sent = 0;
  std::vector<Bytes> got;
  while (got.size() < kFrames && pair.now < 4e6) {
    while (sent < kFrames &&
           pair.a.send(frame_bytes(sent), pair.now) == SendStatus::kQueued) {
      sent++;
    }
    pair.step(15);
    pair.shim_a.flush();  // a held reordered packet must not stall the tail
    pair.shim_b.flush();
    for (Bytes& f : pair.b.take_delivered()) got.push_back(std::move(f));
  }

  ASSERT_EQ(pair.a.state(), ConnState::kEstablished);
  ASSERT_EQ(got.size(), kFrames) << "incomplete after " << pair.now << " ms";
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i], frame_bytes(i)) << "out of order at " << i;
  }
  EXPECT_EQ(pair.b.stats().frames_delivered, kFrames);
  // 55% loss forces real recovery work — the counters must show it.
  EXPECT_GT(pair.a.stats().resends, 100u);
  EXPECT_GT(pair.b.stats().dup_rx + pair.b.stats().out_of_order_rx, 0u);
}

TEST(Reliable, CleanPathNoResends) {
  ReliableParams params;
  ConnPair pair(params, {});
  pair.run_until_established();
  for (std::uint32_t i = 0; i < 50; ++i) {
    ASSERT_EQ(pair.a.send(frame_bytes(i), pair.now), SendStatus::kQueued);
    pair.step(1);
  }
  pair.step(1);
  const auto got = pair.b.take_delivered();
  ASSERT_EQ(got.size(), 50u);
  EXPECT_EQ(pair.a.stats().resends, 0u);
  EXPECT_EQ(pair.b.stats().dup_rx, 0u);
}

/// An initiator established by hand, for feeding acks at chosen times.
ReliableConn established_conn(const ReliableParams& params) {
  ReliableConn conn(/*conn_id=*/7, /*initiator=*/true, params, 0);
  conn.on_packet(Packet{PacketType::kSynAck, 7, 0, 0, 0, {}}, 0);
  return conn;
}

/// Send one frame at `*now`, ack it `rtt` later.
void round_trip(ReliableConn& conn, std::uint32_t seq, double rtt,
                double* now) {
  ASSERT_EQ(conn.send(frame_bytes(seq), *now), SendStatus::kQueued);
  *now += rtt;
  conn.on_packet(Packet{PacketType::kAck, 7, 0, seq, 0, {}}, *now);
  ASSERT_EQ(conn.in_flight(), 0u);
}

TEST(ReliableRtt, EstimatorMatchesRfc6298) {
  const ReliableParams params;
  ReliableConn conn = established_conn(params);
  ASSERT_TRUE(conn.established());
  EXPECT_EQ(conn.srtt_ms(), 0.0);
  EXPECT_EQ(conn.rto_ms(), params.rto_initial_ms);
  // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|, then SRTT = 7/8 SRTT + 1/8 R;
  // the first sample sets SRTT = R, RTTVAR = R/2. RTO = SRTT + 4 RTTVAR.
  struct Expect {
    double rtt, srtt, rto;
  };
  const Expect steps[] = {
      {10, 10, 30},             // RTTVAR 5
      {20, 11.25, 36.25},       // RTTVAR 6.25
      {5, 10.46875, 35.46875},  // RTTVAR 6.25
  };
  double now = 0;
  std::uint32_t seq = 0;
  for (const Expect& e : steps) {
    round_trip(conn, ++seq, e.rtt, &now);
    EXPECT_DOUBLE_EQ(conn.srtt_ms(), e.srtt);
    EXPECT_DOUBLE_EQ(conn.rto_ms(), e.rto);
  }
  // Identical samples shrink RTTVAR until G floors the variance term.
  for (int i = 0; i < 200; ++i) round_trip(conn, ++seq, 4, &now);
  EXPECT_NEAR(conn.srtt_ms(), 4.0, 1e-9);
  EXPECT_NEAR(conn.rto_ms(), 4.0 + kClockGranularityMs, 1e-9);
}

TEST(ReliableRtt, KarnRuleAndClamp) {
  ReliableParams params;
  params.rto_max_ms = 50;
  ReliableConn conn = established_conn(params);
  // A frame acked after a retransmit gives no sample: the ack may answer
  // either copy.
  ASSERT_EQ(conn.send(frame_bytes(1), 0), SendStatus::kQueued);
  conn.tick(params.rto_initial_ms);
  EXPECT_EQ(conn.stats().rto_resends, 1u);
  conn.on_packet(Packet{PacketType::kAck, 7, 0, 1, 0, {}}, 130);
  EXPECT_EQ(conn.in_flight(), 0u);
  EXPECT_EQ(conn.srtt_ms(), 0.0);
  EXPECT_EQ(conn.rto_ms(), params.rto_initial_ms);
  // 100 + 4 * 50 clamps to rto_max_ms.
  double now = 200;
  round_trip(conn, 2, 100, &now);
  EXPECT_DOUBLE_EQ(conn.srtt_ms(), 100.0);
  EXPECT_DOUBLE_EQ(conn.rto_ms(), params.rto_max_ms);
  // A zero round trip floors at G.
  ReliableConn fast = established_conn(params);
  now = 0;
  round_trip(fast, 1, 0, &now);
  EXPECT_DOUBLE_EQ(fast.rto_ms(), kClockGranularityMs);
}

TEST(ReliableRecovery, RackRepairsMidBurstLossBeforeRto) {
  ConnPair pair(ReliableParams{}, {});
  pair.warm_up();
  const std::uint32_t lost = pair.sent + 3;  // seqs are 1-based
  pair.drop_a.drop_once(data_seq(lost));
  const double t0 = pair.now;
  const double rto = pair.a.rto_ms();
  pair.burst(16);
  pair.run_until_delivered(1000);
  EXPECT_EQ(pair.drop_a.dropped, 1u);
  pair.expect_exactly_once();
  EXPECT_LT(pair.now - t0, rto);
  EXPECT_EQ(pair.a.stats().fast_resends, 1u);
  EXPECT_EQ(pair.a.stats().rto_resends, 0u);
  EXPECT_EQ(pair.a.stats().tlp_probes, 0u);
  EXPECT_EQ(pair.a.stats().resends, 1u);
}

TEST(ReliableRecovery, TailLossRepairedByOneProbe) {
  ConnPair pair(ReliableParams{}, {});
  pair.warm_up();
  pair.drop_a.drop_once(data_seq(pair.sent + 16));
  const double t0 = pair.now;
  const double rto = pair.a.rto_ms();
  pair.burst(16);
  pair.run_until_delivered(1000);
  EXPECT_EQ(pair.drop_a.dropped, 1u);
  pair.expect_exactly_once();
  EXPECT_LT(pair.now - t0, rto);
  EXPECT_EQ(pair.a.stats().tlp_probes, 1u);
  EXPECT_EQ(pair.a.stats().rto_resends, 0u);
  EXPECT_EQ(pair.a.stats().fast_resends, 0u);
  EXPECT_EQ(pair.b.stats().dup_rx, 0u);
}

TEST(ReliableRecovery, LostTailAckCostsOneDuplicate) {
  ConnPair pair(ReliableParams{}, {});
  pair.warm_up();
  const std::uint32_t last = pair.sent + 16;
  pair.drop_b.drop_once([last](const Packet& p) {
    return p.type == PacketType::kAck && p.ack == last;
  });
  pair.burst(16);
  pair.run_until_delivered(1000);
  while (pair.a.in_flight() > 0 && pair.now < 1000) pair.step(1);
  EXPECT_EQ(pair.drop_b.dropped, 1u);
  pair.expect_exactly_once();
  EXPECT_EQ(pair.a.in_flight(), 0u);
  EXPECT_LE(pair.a.stats().resends, 1u);
  EXPECT_LE(pair.b.stats().dup_rx, 1u);
  EXPECT_TRUE(pair.b.take_delivered().empty());
}

TEST(Reliable, KeepaliveProbesThenExpiry) {
  ReliableParams params;
  params.keepalive_idle_ms = 100;
  params.keepalive_timeout_ms = 500;
  ConnPair pair(params, {});
  pair.run_until_established();
  // Idle but connected: pings flow, nobody dies.
  for (int i = 0; i < 40; ++i) pair.step(10);
  EXPECT_TRUE(pair.a.established());
  EXPECT_TRUE(pair.b.established());
  EXPECT_GT(pair.a.stats().pings + pair.b.stats().pings, 0u);

  // Blackhole both directions: silence must kill both ends on the
  // keep-alive clock — graceful degradation, never a hang.
  fault::NetemParams blackhole;
  blackhole.drop_prob = 1.0;
  pair.shim_a.set_params(blackhole);
  pair.shim_b.set_params(blackhole);
  for (int i = 0; i < 80 && !pair.a.defunct(); ++i) pair.step(10);
  for (int i = 0; i < 5; ++i) pair.step(10);  // let the slower side catch up
  EXPECT_EQ(pair.a.state(), ConnState::kDead);
  EXPECT_EQ(pair.a.dead_reason(), DeadReason::kKeepaliveTimeout);
  EXPECT_EQ(pair.b.state(), ConnState::kDead);
  EXPECT_EQ(pair.b.dead_reason(), DeadReason::kKeepaliveTimeout);
}

TEST(Reliable, HalfOpenDiesOnItsOwnClock) {
  // Passive side saw a SYN, answered, and the dialer vanished: the
  // half-open connection must reap itself, not pin a table slot.
  ReliableParams params;
  params.half_open_timeout_ms = 300;
  ReliableConn conn(/*conn_id=*/9, /*initiator=*/false, params, 0);
  ASSERT_EQ(conn.state(), ConnState::kSynReceived);
  conn.on_packet(Packet{PacketType::kSyn, 9, 0, 0, 0, {}}, 0);
  double now = 0;
  while (!conn.defunct() && now < 5000) {
    now += 50;
    conn.tick(now);
  }
  EXPECT_EQ(conn.state(), ConnState::kDead);
  EXPECT_EQ(conn.dead_reason(), DeadReason::kHalfOpenTimeout);
}

TEST(Reliable, SynTimeoutWhenNobodyAnswers) {
  ReliableParams params;
  ReliableConn conn(/*conn_id=*/3, /*initiator=*/true, params, 0);
  double now = 0;
  while (!conn.defunct() && now < 1e6) {
    now += 100;
    conn.tick(now);
    (void)conn.take_outgoing();
  }
  EXPECT_EQ(conn.state(), ConnState::kDead);
  EXPECT_EQ(conn.dead_reason(), DeadReason::kSynTimeout);
}

TEST(Reliable, RetryExhaustionDeclaresPeerDead) {
  ReliableParams params;
  params.max_resend = 4;
  params.rto_initial_ms = 10;
  params.rto_max_ms = 40;
  params.keepalive_timeout_ms = 1e9;  // isolate the retransmit death path
  ConnPair pair(params, {});
  pair.run_until_established();
  fault::NetemParams blackhole;
  blackhole.drop_prob = 1.0;
  pair.shim_a.set_params(blackhole);
  pair.shim_b.set_params(blackhole);
  ASSERT_EQ(pair.a.send(frame_bytes(1), pair.now), SendStatus::kQueued);
  for (int i = 0; i < 200 && !pair.a.defunct(); ++i) pair.step(10);
  EXPECT_EQ(pair.a.state(), ConnState::kDead);
  EXPECT_EQ(pair.a.dead_reason(), DeadReason::kRetryExhausted);
}

TEST(Reliable, CongestionBackpressureAtQueueCap) {
  ReliableParams params;
  params.window = 4;
  params.send_queue_cap = 8;
  params.keepalive_timeout_ms = 1e9;
  ConnPair pair(params, {});
  pair.run_until_established();
  // Blackhole acks so the window never drains, then overfill the queue.
  fault::NetemParams blackhole;
  blackhole.drop_prob = 1.0;
  pair.shim_b.set_params(blackhole);
  std::size_t queued = 0;
  SendStatus last = SendStatus::kQueued;
  for (std::uint32_t i = 0; i < 64; ++i) {
    last = pair.a.send(frame_bytes(i), pair.now);
    if (last != SendStatus::kQueued) break;
    queued++;
  }
  EXPECT_EQ(last, SendStatus::kCongested);
  EXPECT_EQ(queued, params.window + params.send_queue_cap);
  EXPECT_GT(pair.a.stats().congested, 0u);
}

TEST(Reliable, OrderlyFinClosesBothEnds) {
  ConnPair pair(ReliableParams{}, {});
  pair.run_until_established();
  ASSERT_EQ(pair.a.send(frame_bytes(0), pair.now), SendStatus::kQueued);
  pair.step(1);
  pair.a.close(pair.now);
  pair.step(1);
  EXPECT_EQ(pair.a.state(), ConnState::kClosed);
  EXPECT_EQ(pair.b.state(), ConnState::kClosed);
  EXPECT_EQ(pair.a.send(frame_bytes(1), pair.now), SendStatus::kClosed);
}

TEST(Reliable, DuplicateDataDeliversOnce) {
  ConnPair pair(ReliableParams{}, {});
  pair.run_until_established();
  const Packet data{PacketType::kData, 7, 1, 0, 0, frame_bytes(0)};
  // Each arrival is drained before the next, as a pump would: ACKs are
  // owed per drain, not per packet.
  pair.b.on_packet(data, pair.now);
  (void)pair.b.take_outgoing();
  pair.b.on_packet(data, pair.now);  // retransmit of an acked frame
  (void)pair.b.take_outgoing();
  EXPECT_EQ(pair.b.take_delivered().size(), 1u);
  EXPECT_GT(pair.b.stats().dup_rx, 0u);
  // The dup still re-acked so the sender's retries stop.
  EXPECT_GE(pair.b.stats().acks_sent, 2u);
}

TEST(Reliable, BeyondWindowDataDropped) {
  ReliableParams params;
  params.recv_window = 16;
  ConnPair pair(params, {});
  pair.run_until_established();
  const Packet far{PacketType::kData, 7, 999, 0, 0, frame_bytes(999)};
  pair.b.on_packet(far, pair.now);
  EXPECT_EQ(pair.b.take_delivered().size(), 0u);
  EXPECT_EQ(pair.b.recv_buffered(), 0u);
  EXPECT_GT(pair.b.stats().beyond_window_rx, 0u);
}

}  // namespace
}  // namespace argus::transport
