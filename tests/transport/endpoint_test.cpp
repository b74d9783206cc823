// TransportEndpoint connection-table lifecycle: LRU bounds, stale and
// undecodable traffic, peer-restart replacement, and the reaping paths
// that keep a daemon's table from leaking slots. All over the in-memory
// PipeHub with hand-stepped clocks.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "fault/netem.hpp"
#include "obs/metrics.hpp"
#include "transport/endpoint.hpp"
#include "transport/pipe.hpp"
#include "transport/wire.hpp"

namespace argus::transport {
namespace {

struct TwoEndpoints {
  PipeHub hub;
  std::unique_ptr<PipeSocket> sa, sb;
  TransportEndpoint a, b;
  double now = 0;

  explicit TwoEndpoints(EndpointParams pa = {}, EndpointParams pb = {})
      : sa(hub.open(0)), sb(hub.open(0)), a(*sa, pa), b(*sb, pb) {}

  std::pair<std::vector<TransportEndpoint::Inbound>,
            std::vector<TransportEndpoint::Inbound>>
  step(double dt) {
    now += dt;
    auto ia = a.pump(now);
    auto ib = b.pump(now);
    return {std::move(ia), std::move(ib)};
  }
};

TEST(Endpoint, EstablishAndExchangeBothWays) {
  TwoEndpoints t;
  ASSERT_EQ(t.a.send(t.sb->local_addr(), Bytes{1, 2, 3}, t.now),
            SendStatus::kQueued);
  std::vector<TransportEndpoint::Inbound> at_b;
  for (int i = 0; i < 50 && at_b.empty(); ++i) {
    auto [ia, ib] = t.step(5);
    at_b = std::move(ib);
  }
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].from, t.sa->local_addr());
  EXPECT_EQ(at_b[0].frame, (Bytes{1, 2, 3}));

  // The passive side replies over the accepted connection.
  ASSERT_EQ(t.b.send(at_b[0].from, Bytes{4, 5}, t.now), SendStatus::kQueued);
  std::vector<TransportEndpoint::Inbound> at_a;
  for (int i = 0; i < 50 && at_a.empty(); ++i) {
    auto [ia, ib] = t.step(5);
    at_a = std::move(ia);
  }
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].frame, (Bytes{4, 5}));
  EXPECT_EQ(t.a.stats().opened, 1u);
  EXPECT_EQ(t.b.stats().accepted, 1u);
  EXPECT_EQ(t.a.established_conns(), 1u);
  EXPECT_EQ(t.b.established_conns(), 1u);
}

TEST(Endpoint, OnePumpDrainingSixteenFramesSendsOneAck) {
  TwoEndpoints t;
  const NetAddr to_b = t.sb->local_addr();
  const NetAddr to_a = t.sa->local_addr();
  ASSERT_EQ(t.a.send(to_b, Bytes{0}, t.now), SendStatus::kQueued);
  for (int i = 0; i < 50 && t.b.established_conns() == 0; ++i) t.step(5);
  for (int i = 0; i < 5; ++i) t.step(5);  // settle the first frame's ack
  ASSERT_NE(t.b.conn(to_a), nullptr);
  const std::uint64_t acks0 = t.b.conn(to_a)->stats().acks_sent;
  const std::uint64_t tx0 = t.b.stats().tx_packets;

  for (std::uint8_t i = 1; i <= 16; ++i) {
    ASSERT_EQ(t.a.send(to_b, Bytes{i}, t.now), SendStatus::kQueued);
  }
  const auto at_b = t.b.pump(t.now);
  EXPECT_EQ(at_b.size(), 16u);
  EXPECT_EQ(t.b.conn(to_a)->stats().acks_sent - acks0, 1u);
  EXPECT_EQ(t.b.stats().tx_packets - tx0, 1u);
  // The one ACK covers all 16: the sender's window drains.
  t.a.pump(t.now);
  EXPECT_EQ(t.a.conn(to_b)->in_flight(), 0u);
}

TEST(Endpoint, LruBoundHoldsUnderDialFlood) {
  PipeHub hub;
  auto server_sock = hub.open(0);
  EndpointParams sp;
  sp.max_conns = 4;
  TransportEndpoint server(*server_sock, sp);

  // 12 distinct clients dial in; the server table must never exceed 4.
  std::vector<std::unique_ptr<PipeSocket>> socks;
  std::vector<std::unique_ptr<TransportEndpoint>> clients;
  double now = 0;
  for (int c = 0; c < 12; ++c) {
    socks.push_back(hub.open(0));
    clients.push_back(
        std::make_unique<TransportEndpoint>(*socks.back(), EndpointParams{}));
    clients.back()->send(server_sock->local_addr(),
                         Bytes{static_cast<std::uint8_t>(c)}, now);
    for (int i = 0; i < 10; ++i) {
      now += 5;
      for (auto& cl : clients) cl->pump(now);
      server.pump(now);
      ASSERT_LE(server.live_conns(), sp.max_conns);
    }
  }
  EXPECT_EQ(server.live_conns(), sp.max_conns);
  EXPECT_GE(server.stats().evicted, 8u);
  EXPECT_EQ(server.stats().accepted, 12u);
}

TEST(Endpoint, StaleNonSynDropped) {
  TwoEndpoints t;
  // A DATA packet from a peer the endpoint has never seen: no connection
  // is conjured up, the packet is counted and dropped.
  const Packet ghost{PacketType::kData, 99, 1, 0, 0, Bytes{7}};
  t.sa->send_to(t.sb->local_addr(), encode_packet(ghost));
  auto [ia, ib] = t.step(5);
  EXPECT_TRUE(ib.empty());
  EXPECT_EQ(t.b.live_conns(), 0u);
  EXPECT_EQ(t.b.stats().stale_dropped, 1u);
}

TEST(Endpoint, UndecodableDatagramCounted) {
  TwoEndpoints t;
  t.sa->send_to(t.sb->local_addr(), Bytes{0xDE, 0xAD, 0xBE, 0xEF});
  t.step(5);
  EXPECT_EQ(t.b.stats().decode_failed, 1u);
  EXPECT_EQ(t.b.live_conns(), 0u);
}

TEST(Endpoint, PeerRestartReplacesConnection) {
  PipeHub hub;
  auto server_sock = hub.open(0);
  TransportEndpoint server(*server_sock, {});
  double now = 0;

  auto dial = [&](TransportEndpoint& client) {
    client.send(server_sock->local_addr(), Bytes{1}, now);
    for (int i = 0; i < 20; ++i) {
      now += 5;
      client.pump(now);
      server.pump(now);
    }
  };

  // First client process on port 45001.
  {
    auto sock1 = hub.open(45001);
    EndpointParams p1;
    p1.conn_id_base = 100;  // "process 1"'s ISN
    TransportEndpoint client1(*sock1, p1);
    dial(client1);
    ASSERT_EQ(server.stats().accepted, 1u);
    ASSERT_EQ(server.established_conns(), 1u);
  }
  // It "crashes" (socket gone) and a new process binds the same port:
  // the fresh SYN carries a different conn id, so the server replaces
  // the old connection rather than mistaking the dial for a retransmit.
  {
    auto sock2 = hub.open(45001);
    EndpointParams p2;
    p2.conn_id_base = 200;  // the restarted process picks a new ISN
    TransportEndpoint client2(*sock2, p2);
    dial(client2);
    EXPECT_EQ(server.stats().replaced, 1u);
    EXPECT_EQ(server.live_conns(), 1u);
  }
}

TEST(Endpoint, HalfOpenReapedOnItsClock) {
  PipeHub hub;
  auto server_sock = hub.open(0);
  auto ghost_sock = hub.open(0);
  EndpointParams sp;
  sp.reliable.half_open_timeout_ms = 200;
  obs::MetricsRegistry metrics;
  TransportEndpoint server(*server_sock, sp, &metrics);

  // A bare SYN with no follow-up: the accepted connection must age out.
  const Packet syn{PacketType::kSyn, 123, 0, 0, 0, {}};
  ghost_sock->send_to(server_sock->local_addr(), encode_packet(syn));
  double now = 0;
  server.pump(now);
  ASSERT_EQ(server.live_conns(), 1u);
  while (server.live_conns() > 0 && now < 2000) {
    now += 20;
    server.pump(now);
  }
  EXPECT_EQ(server.live_conns(), 0u);
  EXPECT_EQ(server.stats().reaped_half_open, 1u);
  EXPECT_EQ(metrics.counter("conn.reaped_half_open").value(), 1u);
}

TEST(Endpoint, KeepaliveReapsVanishedPeer) {
  EndpointParams sp;
  sp.reliable.keepalive_idle_ms = 50;
  sp.reliable.keepalive_timeout_ms = 200;
  obs::MetricsRegistry metrics;

  PipeHub hub;
  auto server_sock = hub.open(0);
  TransportEndpoint server(*server_sock, sp, &metrics);
  double now = 0;
  {
    auto client_sock = hub.open(0);
    TransportEndpoint client(*client_sock, {});
    client.send(server_sock->local_addr(), Bytes{1}, now);
    for (int i = 0; i < 20; ++i) {
      now += 5;
      client.pump(now);
      server.pump(now);
    }
    ASSERT_EQ(server.established_conns(), 1u);
  }  // client vanishes without FIN

  while (server.live_conns() > 0 && now < 5000) {
    now += 20;
    server.pump(now);
  }
  EXPECT_EQ(server.live_conns(), 0u);
  EXPECT_EQ(server.stats().reaped_dead, 1u);
  EXPECT_EQ(metrics.counter("conn.dead.keepalive_timeout").value(), 1u);
}

TEST(Endpoint, OrderlyCloseDrainsBothTables) {
  TwoEndpoints t;
  t.a.send(t.sb->local_addr(), Bytes{1}, t.now);
  for (int i = 0; i < 20; ++i) t.step(5);
  ASSERT_EQ(t.a.established_conns(), 1u);
  t.a.close(t.sb->local_addr(), t.now);
  for (int i = 0; i < 20; ++i) t.step(5);
  EXPECT_EQ(t.a.live_conns(), 0u);
  EXPECT_EQ(t.b.live_conns(), 0u);
  EXPECT_GE(t.a.stats().closed + t.b.stats().closed, 2u);
}

TEST(Endpoint, NextDeadlineTracksTheEarliestTimer) {
  PipeHub hub;
  auto sa = hub.open(0);
  auto sb = hub.open(0);
  TransportEndpoint a(*sa, EndpointParams{});
  EXPECT_TRUE(std::isinf(a.next_deadline_ms()));  // no connections
  a.connect(sb->local_addr(), 0);
  // Nobody answers the SYN: its retry is the next thing to do.
  EXPECT_DOUBLE_EQ(a.next_deadline_ms(),
                   EndpointParams{}.reliable.rto_initial_ms);
}

TEST(Endpoint, RecoveryCountersExportedByCause) {
  PipeHub hub;
  auto sa = hub.open(0);
  auto sb = hub.open(0);
  fault::NetemParams loss;
  loss.drop_prob = 0.3;
  loss.seed = 5;
  fault::NetemSocket lossy(*sa, loss);
  obs::MetricsRegistry metrics;
  TransportEndpoint a(lossy, EndpointParams{}, &metrics);
  TransportEndpoint b(*sb, EndpointParams{});
  double now = 0;
  for (std::uint8_t i = 0; i < 40; ++i) {
    ASSERT_EQ(a.send(sb->local_addr(), Bytes{i}, now), SendStatus::kQueued);
  }
  std::size_t delivered = 0;
  while (delivered < 40 && now < 60000) {
    now += 5;
    a.pump(now);
    delivered += b.pump(now).size();
  }
  ASSERT_EQ(delivered, 40u);
  const ReliableConn::Stats& s = a.conn(sb->local_addr())->stats();
  EXPECT_GT(s.resends, 0u);
  EXPECT_EQ(s.resends, s.rto_resends + s.fast_resends + s.tlp_probes);
  const auto exported = [&](const char* name) {
    const obs::Counter* c = metrics.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_EQ(exported("transport.reliable.rto_resend"), s.rto_resends);
  EXPECT_EQ(exported("transport.reliable.fast_resend"), s.fast_resends);
  EXPECT_EQ(exported("transport.reliable.tlp_probe"), s.tlp_probes);
}

}  // namespace
}  // namespace argus::transport
