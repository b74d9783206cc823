// In-process daemon round trips: ObjectHost + SubjectClient — the exact
// engine rooms behind argusd/argusctl — driven over the pipe hub with
// loss and over real UDP loopback. The
// lossy pipe run must produce the same engine-level result set as the
// authoritative simulator (core::run_discovery), which is the same
// parity the CI loopback smoke asserts across two processes. The pipe
// drivers run lockstep (settle() after every pump() and step()); the
// multi-client and non-blocking cases drive pump() and step() without
// settling and compare against a lockstep run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "argus/discovery.hpp"
#include "common/serde.hpp"
#include "fault/netem.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "transport/client.hpp"
#include "transport/host.hpp"
#include "transport/lanes.hpp"
#include "transport/pipe.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace argus::transport {
namespace {

core::DiscoveryScenario scenario_for(std::size_t objects, int level = 2,
                                     std::uint64_t seed = 17) {
  harness::SweepPoint point;
  point.level = level;
  point.objects = objects;
  point.seed = seed;
  return harness::make_scenario(point);
}

HostConfig host_config(const core::DiscoveryScenario& scenario,
                       obs::MetricsRegistry* metrics = nullptr) {
  HostConfig cfg;
  cfg.epoch = scenario.epoch;
  cfg.metrics = metrics;
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    core::ObjectEngineConfig ocfg = core::object_engine_config(scenario, i);
    ocfg.metrics = metrics;
    cfg.objects.push_back(std::move(ocfg));
  }
  return cfg;
}

core::SubjectEngineConfig subject_config(
    const core::DiscoveryScenario& scenario,
    obs::MetricsRegistry* metrics = nullptr) {
  core::SubjectEngineConfig scfg = core::subject_engine_config(scenario);
  scfg.metrics = metrics;
  return scfg;
}

ClientParams client_params(const core::DiscoveryScenario& scenario) {
  ClientParams params;
  params.expected_objects = scenario.objects.size();
  params.epoch = scenario.epoch;
  params.retry.mode = core::RetryMode::kOn;
  return params;
}

std::set<std::tuple<std::string, int, std::string>> result_set(
    const std::vector<core::DiscoveredService>& services) {
  std::set<std::tuple<std::string, int, std::string>> out;
  for (const auto& s : services) out.emplace(s.object_id, s.level, s.variant_tag);
  return out;
}

/// One daemon + one subject over the pipe hub, with a netem shim on each
/// side, on a hand-stepped virtual clock.
struct PipeDeployment {
  core::DiscoveryScenario scenario;
  PipeHub hub;
  std::unique_ptr<PipeSocket> dsock, csock;
  fault::NetemSocket dshim, cshim;
  obs::MetricsRegistry metrics;
  TransportEndpoint dend, cend;
  SockTransport dtrans, ctrans;
  ObjectHost host;
  SubjectClient client;
  double now = 0;

  PipeDeployment(std::size_t objects, double loss,
                 EndpointParams dparams = daemon_params(),
                 std::string snapshot_path = {})
      : scenario(scenario_for(objects)),
        dsock(hub.open(0)),
        csock(hub.open(0)),
        dshim(*dsock, shim_params(loss, 11)),
        cshim(*csock, shim_params(loss, 12)),
        dend(dshim, dparams, &metrics),
        cend(cshim, client_params_ep(), &metrics),
        dtrans(dend),
        ctrans(cend),
        host(with_snapshot(host_config(scenario, &metrics),
                           std::move(snapshot_path)),
             dtrans),
        client(subject_config(scenario, &metrics), client_params(scenario),
               ctrans) {}

  static fault::NetemParams shim_params(double loss, std::uint64_t seed) {
    fault::NetemParams p;
    p.drop_prob = loss;
    p.seed = seed;
    return p;
  }
  static EndpointParams daemon_params() {
    EndpointParams p;
    p.conn_id_base = 7000;
    return p;
  }
  static EndpointParams client_params_ep() {
    EndpointParams p;
    p.conn_id_base = 9000;
    return p;
  }
  static HostConfig with_snapshot(HostConfig cfg, std::string path) {
    cfg.snapshot_path = std::move(path);
    return cfg;
  }

  ClientReport run_round(std::size_t group, double step_ms = 5,
                         double limit_ms = 60000) {
    cend.connect(dsock->local_addr(), now);
    client.begin_round(group, now);
    const double deadline = now + limit_ms;
    while (!client.round_done() && now < deadline) {
      now += step_ms;
      host.pump(now);
      host.settle();
      client.step(now);
      client.settle();
    }
    return client.finish_round(now);
  }
};

TEST(Daemon, PipeRoundMatchesSimulatorUnderLoss) {
  PipeDeployment d(20, /*loss=*/0.10);
  const ClientReport report = d.run_round(0);
  EXPECT_TRUE(report.complete())
      << report.resolved << "/" << report.expected;
  EXPECT_DOUBLE_EQ(report.delivery_ratio(), 1.0);
  EXPECT_EQ(report.services.size(), 20u);

  const core::DiscoveryReport sim = core::run_discovery(d.scenario);
  EXPECT_EQ(result_set(sim.services),
            result_set(d.client.engine().discovered()));
  // 10% loss must have made the reliable layer actually work.
  EXPECT_GT(d.dshim.stats().dropped + d.cshim.stats().dropped, 0u);
  EXPECT_EQ(d.dend.stats().decode_failed, 0u);
}

TEST(Daemon, CleanPipeRoundNoRetransmits) {
  PipeDeployment d(10, /*loss=*/0.0);
  const ClientReport report = d.run_round(0);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.que1_retransmits + report.que2_retransmits, 0u);
}

TEST(Daemon, UdpLoopbackRound) {
  const core::DiscoveryScenario scenario = scenario_for(5);
  auto dsock = UdpSocket::bind_loopback(0);
  auto csock = UdpSocket::bind_loopback(0);
  ASSERT_TRUE(dsock && csock);
  obs::MetricsRegistry metrics;
  TransportEndpoint dend(*dsock, PipeDeployment::daemon_params(), &metrics);
  TransportEndpoint cend(*csock, PipeDeployment::client_params_ep(), &metrics);
  SockTransport dtrans(dend), ctrans(cend);
  ObjectHost host(host_config(scenario, &metrics), dtrans);
  SubjectClient client(subject_config(scenario, &metrics),
                       client_params(scenario), ctrans);

  const double start = steady_now_ms();
  const auto now = [&] { return steady_now_ms() - start; };
  cend.connect(dsock->local_addr(), now());
  client.begin_round(0, now());
  while (!client.round_done() && now() < 30000) {
    host.pump(now());
    client.step(now());
  }
  const ClientReport report = client.finish_round(now());
  EXPECT_TRUE(report.complete())
      << report.resolved << "/" << report.expected;
  EXPECT_EQ(report.services.size(), 5u);
}

TEST(Daemon, ControlShutdownFlagsTheHost) {
  PipeDeployment d(2, /*loss=*/0.0);
  (void)d.run_round(0);
  ASSERT_FALSE(d.host.shutdown_requested());
  d.client.send_control(d.dsock->local_addr().pack(), CtlOp::kShutdown, d.now);
  for (int i = 0; i < 100 && !d.host.shutdown_requested(); ++i) {
    d.now += 5;
    d.host.pump(d.now);
    d.host.settle();
    d.client.step(d.now);
    d.client.settle();
  }
  EXPECT_TRUE(d.host.shutdown_requested());
}

TEST(Daemon, SnapshotRestoreRoundTrip) {
  const std::string path =
      testing::TempDir() + "/argus_daemon_snapshot_test.snap";
  std::remove(path.c_str());

  PipeDeployment d(6, /*loss=*/0.0, PipeDeployment::daemon_params(), path);
  const ClientReport report = d.run_round(0);
  ASSERT_TRUE(report.complete());
  ASSERT_TRUE(d.host.write_snapshot());
  EXPECT_EQ(d.host.stats().snapshots_written, 1u);

  // A fresh fleet with the same configs restores every engine section.
  // Restore is a pure function of (config, blob) — restoring the writer
  // itself from its own file must land both fleets on identical states.
  PipeDeployment fresh(6, /*loss=*/0.0, PipeDeployment::daemon_params(), path);
  EXPECT_EQ(fresh.host.restore_from_file(), persist::RestoreError::kOk);
  EXPECT_EQ(fresh.host.restored_engines(), 6u);
  ASSERT_EQ(d.host.restore_from_file(), persist::RestoreError::kOk);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(fresh.host.engine(i).state_digest(),
              d.host.engine(i).state_digest())
        << "engine " << i;
    EXPECT_GT(fresh.host.engine(i).open_sessions() +
                  fresh.host.engine(i).cached_replies(),
              0u)
        << "engine " << i << " restored blank";
  }
  std::remove(path.c_str());
}

TEST(Daemon, SecondRoundDedupesDiscovered) {
  PipeDeployment d(8, /*loss=*/0.05);
  ASSERT_TRUE(d.run_round(0).complete());
  const std::size_t after_first = d.client.engine().discovered().size();
  ASSERT_TRUE(d.run_round(0).complete());
  EXPECT_EQ(d.client.engine().discovered().size(), after_first);
}

// Four clients against one 16-engine host over real UDP, on the
// non-blocking path: the loop never settles, so replies and effects
// leave whenever their lanes finish. Each client must end with the lockstep run's
// result set, the engines' shared registry must count exactly what the
// engines did once the host settles, and every connection must reap.
TEST(Daemon, ShardedHostFourClientsUdp) {
  constexpr std::size_t kObjects = 16;
  constexpr std::size_t kClients = 4;
  PipeDeployment lockstep(kObjects, /*loss=*/0.0);
  ASSERT_TRUE(lockstep.run_round(0).complete());
  const auto want = result_set(lockstep.client.engine().discovered());

  const core::DiscoveryScenario scenario = scenario_for(kObjects);
  auto dsock = UdpSocket::bind_loopback(0);
  ASSERT_TRUE(dsock);
  obs::MetricsRegistry metrics;
  TransportEndpoint dend(*dsock, PipeDeployment::daemon_params(), &metrics);
  SockTransport dtrans(dend);
  HostConfig hcfg = host_config(scenario, &metrics);
  // Resumption on: every QUE2 makes a cache lookup the engine counts in
  // its stats and in the shared registry.
  for (auto& ocfg : hcfg.objects) ocfg.resumption.enabled = true;
  ObjectHost host(std::move(hcfg), dtrans);

  struct Client {
    std::unique_ptr<UdpSocket> sock;
    std::optional<TransportEndpoint> end;
    std::optional<SockTransport> trans;
    std::optional<SubjectClient> client;
  };
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto cl = std::make_unique<Client>();
    cl->sock = UdpSocket::bind_loopback(0);
    ASSERT_TRUE(cl->sock);
    EndpointParams ep = PipeDeployment::client_params_ep();
    ep.conn_id_base += static_cast<std::uint32_t>(100 * c);
    cl->end.emplace(*cl->sock, ep);
    cl->trans.emplace(*cl->end);
    core::SubjectEngineConfig scfg = subject_config(scenario);
    scfg.seed += c;  // distinct nonces, so no client replays another
    scfg.resumption.enabled = true;
    cl->client.emplace(std::move(scfg), client_params(scenario), *cl->trans);
    clients.push_back(std::move(cl));
  }

  const double start = steady_now_ms();
  const auto now = [&] { return steady_now_ms() - start; };
  for (int round = 0; round < 2; ++round) {
    for (auto& cl : clients) {
      cl->end->connect(dsock->local_addr(), now());
      cl->client->begin_round(0, now());
    }
    bool running = true;
    while (running && now() < 60000) {
      host.pump(now());
      running = false;
      for (auto& cl : clients) {
        if (cl->client->round_done()) continue;
        cl->client->step(now());
        running = running || !cl->client->round_done();
      }
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      const ClientReport report = clients[c]->client->finish_round(now());
      EXPECT_TRUE(report.complete())
          << "round " << round << " client " << c << ": " << report.resolved
          << "/" << report.expected;
    }
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(result_set(clients[c]->client->engine().discovered()), want)
        << "client " << c;
  }

  host.settle();
  EXPECT_EQ(host.in_flight(), 0u);
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  for (std::size_t i = 0; i < host.engine_count(); ++i) {
    const core::ObjectEngine::Stats& st = host.engine(i).stats();
    hits += st.resumption_hits;
    misses += st.resumption_misses;
    evictions += st.evictions;
  }
  const auto counter = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = metrics.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_GT(hits + misses, 0u);
  EXPECT_EQ(counter("object.resumption.hit"), hits);
  EXPECT_EQ(counter("object.resumption.miss"), misses);
  EXPECT_EQ(counter("object.evict"), evictions);

  // Orderly close from every client; the host reaps each connection.
  for (auto& cl : clients) cl->end->close(dsock->local_addr(), now());
  const double reap_until = now() + 10000;
  while (dend.live_conns() > 0 && now() < reap_until) {
    host.pump(now());
    for (auto& cl : clients) cl->trans->pump(now());
  }
  EXPECT_EQ(dend.live_conns(), 0u);
}

// A driver that never calls settle() — it only holds its virtual clock
// while host replies or client frames are in flight — leaves every
// engine in exactly the state the lockstep driver leaves it in. Its
// round can end a step earlier (a reply that leaves at t is answered
// within t), so both hosts take one last pump at a common time before
// their engines are compared.
TEST(Daemon, NonBlockingPumpEndsInLockstepEngineState) {
  constexpr std::size_t kObjects = 10;
  constexpr double kEnd = 1000;
  PipeDeployment lockstep(kObjects, /*loss=*/0.0);
  ASSERT_TRUE(lockstep.run_round(0).complete());
  lockstep.host.pump(kEnd);
  lockstep.host.settle();

  PipeDeployment d(kObjects, /*loss=*/0.0);
  d.cend.connect(d.dsock->local_addr(), d.now);
  d.client.begin_round(0, d.now);
  while (!d.client.round_done() && d.now < 60000) {
    if (d.host.in_flight() == 0 && d.client.in_flight() == 0) d.now += 5;
    d.host.pump(d.now);
    d.client.step(d.now);
  }
  ASSERT_TRUE(d.client.finish_round(d.now).complete());
  ASSERT_LT(d.now, kEnd);
  d.host.pump(kEnd);
  d.host.settle();
  for (std::size_t i = 0; i < kObjects; ++i) {
    EXPECT_EQ(d.host.engine(i).state_digest(),
              lockstep.host.engine(i).state_digest())
        << "engine " << i;
  }
}

// With a profiler attached to the pumping thread, each engine's work
// lands on its lane's profiler lane (pump lane + 1 + lane id), the
// subject's on the client lane's: one lane per engine, none of them the
// pump's lane, and the client's apart from every engine's.
TEST(Daemon, EngineLanesRecordOnProfilerLanes) {
  constexpr std::size_t kObjects = 6;
  constexpr std::uint64_t kPumpLane = 3;
  PipeDeployment d(kObjects, /*loss=*/0.0);
  obs::prof::Profiler prof;
  {
    obs::prof::Profiler::Attach attach(prof, kPumpLane);
    ASSERT_TRUE(d.run_round(0).complete());
  }
  std::set<std::uint64_t> object_lanes, subject_lanes;
  std::size_t que1 = 0;
  for (const auto& ev : prof.merged_events()) {
    if (ev.path.find("object.handle_que") != std::string::npos) {
      object_lanes.insert(ev.lane);
      if (ev.path == "object.handle_que1") ++que1;
    }
    if (ev.path.find("subject.handle_res") != std::string::npos) {
      subject_lanes.insert(ev.lane);
    }
  }
  EXPECT_EQ(que1, kObjects);
  EXPECT_EQ(object_lanes.size(), kObjects);
  ASSERT_EQ(subject_lanes.size(), 1u);
  EXPECT_EQ(object_lanes.count(*subject_lanes.begin()), 0u);
  EXPECT_GE(*object_lanes.begin(), kPumpLane + 1);
  EXPECT_GE(*subject_lanes.begin(), kPumpLane + 1);
}

// A client driven by step() alone — its virtual clock held while the
// host or the client has frames in flight — ends with the lockstep
// client's services and the same report counts, retransmits included.
TEST(Daemon, NonBlockingClientEndsInLockstepState) {
  constexpr std::size_t kObjects = 12;
  PipeDeployment lockstep(kObjects, /*loss=*/0.10);
  const ClientReport want = lockstep.run_round(0);
  ASSERT_TRUE(want.complete());

  PipeDeployment d(kObjects, /*loss=*/0.10);
  d.cend.connect(d.dsock->local_addr(), d.now);
  d.client.begin_round(0, d.now);
  while (!d.client.round_done() && d.now < 60000) {
    if (d.host.in_flight() == 0 && d.client.in_flight() == 0) d.now += 5;
    d.host.pump(d.now);
    d.host.settle();
    d.client.step(d.now);
  }
  const ClientReport got = d.client.finish_round(d.now);
  EXPECT_EQ(got.expected, want.expected);
  EXPECT_EQ(got.resolved, want.resolved);
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.que1_retransmits, want.que1_retransmits);
  EXPECT_EQ(got.que2_retransmits, want.que2_retransmits);
  EXPECT_EQ(got.rejects, want.rejects);
  EXPECT_EQ(result_set(got.services), result_set(want.services));
  EXPECT_EQ(result_set(d.client.engine().discovered()),
            result_set(lockstep.client.engine().discovered()));
  EXPECT_EQ(d.client.in_flight(), 0u);
}

// One host and 64 clients in one process: 68 engine lanes, and still at
// most max(1, cores - 1) workers. A probe of 64 more lanes, each task
// noting its thread, sees no more distinct threads than that either.
TEST(Daemon, EngineLanesBoundThreads) {
  constexpr std::size_t kObjects = 4;
  constexpr std::size_t kClients = 64;
  const core::DiscoveryScenario scenario = scenario_for(kObjects);
  PipeHub hub;
  auto dsock = hub.open(0);
  EndpointParams dparams = PipeDeployment::daemon_params();
  dparams.max_conns = 2 * kClients;
  TransportEndpoint dend(*dsock, dparams);
  SockTransport dtrans(dend);
  ObjectHost host(host_config(scenario), dtrans);

  struct Client {
    std::unique_ptr<PipeSocket> sock;
    std::optional<TransportEndpoint> end;
    std::optional<SockTransport> trans;
    std::optional<SubjectClient> client;
  };
  std::vector<std::unique_ptr<Client>> clients;
  double now = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto cl = std::make_unique<Client>();
    cl->sock = hub.open(0);
    EndpointParams ep = PipeDeployment::client_params_ep();
    ep.conn_id_base += static_cast<std::uint32_t>(100 * c);
    cl->end.emplace(*cl->sock, ep);
    cl->trans.emplace(*cl->end);
    core::SubjectEngineConfig scfg = subject_config(scenario);
    scfg.seed += c;
    cl->client.emplace(std::move(scfg), client_params(scenario), *cl->trans);
    cl->end->connect(dsock->local_addr(), now);
    cl->client->begin_round(0, now);
    clients.push_back(std::move(cl));
  }
  const auto in_flight = [&] {
    std::size_t n = host.in_flight();
    for (const auto& cl : clients) n += cl->client->in_flight();
    return n;
  };
  const auto done = [&] {
    return std::all_of(clients.begin(), clients.end(), [](const auto& cl) {
      return cl->client->round_done();
    });
  };
  while (!done() && now < 60000) {
    if (in_flight() == 0) now += 5;
    host.pump(now);
    for (auto& cl : clients) cl->client->step(now);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(clients[c]->client->finish_round(now).complete())
        << "client " << c;
  }

  const std::size_t bound = std::max<std::size_t>(
      1, std::max<unsigned>(1, std::thread::hardware_concurrency()) - 1);
  EXPECT_EQ(LaneSet::max_workers(), bound);
  EXPECT_GE(LaneSet::workers(), 1u);
  EXPECT_LE(LaneSet::workers(), bound);

  std::mutex mu;
  std::set<std::thread::id> threads;
  {
    LaneSet probe(kClients);
    for (std::size_t l = 0; l < probe.size(); ++l) {
      probe.post(l, [&] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        const std::lock_guard<std::mutex> lk(mu);
        threads.insert(std::this_thread::get_id());
      });
    }
    probe.wait_idle();
  }
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), bound);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

/// Holds lane tasks until opened; opens on destruction, so a failed
/// assertion never leaves a worker parked.
class Gate {
 public:
  ~Gate() { open(); }
  void open() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// The outbox hands results over in dispatch order, not finishing order:
// a result that finished early waits behind a slower lane's earlier
// one. A task that throws leaves its slot empty and the exception for
// rethrow().
TEST(EngineLanes, DrainKeepsDispatchOrderAndRethrows) {
  EngineLanes<int> lanes(2);
  Gate gate;  // after `lanes`: opens before lanes waits for its tasks
  std::atomic<int> finished{0};
  std::vector<int> got;
  const auto sink = [&](int v) { got.push_back(v); };
  lanes.post(0, [&] {
    gate.wait();
    return 1;
  });
  lanes.post(1, [&] { return ++finished, 2; });
  lanes.post(1, [&]() -> int {
    ++finished;
    throw std::runtime_error("engine failed");
  });
  lanes.post(1, [&] { return ++finished, 4; });
  while (finished.load() < 3) std::this_thread::yield();
  lanes.drain(sink);
  EXPECT_TRUE(got.empty());  // all wait behind slot 0
  EXPECT_EQ(lanes.in_flight(), 4u);
  gate.open();
  lanes.wait_idle();
  lanes.drain(sink);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(lanes.in_flight(), 0u);
  EXPECT_THROW(lanes.rethrow(), std::runtime_error);
  EXPECT_NO_THROW(lanes.rethrow());  // reported once
}

// Every worker parked, so no engine can answer: the pumps alone keep the
// connection alive past the keep-alive timeout, and once the workers are
// free the round completes.
TEST(Daemon, BusyLanesDoNotReapALivePeer) {
  PipeDeployment d(4, /*loss=*/0.0);
  LaneSet park(LaneSet::max_workers());
  Gate gate;  // after `park`: opens before park waits for its tasks
  std::latch parked(static_cast<std::ptrdiff_t>(park.size()));
  for (std::size_t l = 0; l < park.size(); ++l) {
    park.post(l, [&] {
      parked.count_down();
      gate.wait();
    });
  }
  parked.wait();

  const double past = ReliableParams{}.keepalive_timeout_ms + 1000;
  ASSERT_LT(past, core::RetryPolicy{}.round_deadline_ms);
  d.cend.connect(d.dsock->local_addr(), d.now);
  d.client.begin_round(0, d.now);
  while (d.now < past) {
    d.now += 5;
    d.host.pump(d.now);
    d.client.step(d.now);
  }
  EXPECT_GT(d.host.in_flight(), 0u);  // nothing answered
  EXPECT_FALSE(d.client.round_done());
  EXPECT_EQ(d.dend.live_conns(), 1u);
  const ReliableConn* conn = d.cend.conn(d.dsock->local_addr());
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->defunct());
  EXPECT_EQ(d.dend.stats().reaped_dead + d.cend.stats().reaped_dead, 0u);

  gate.open();
  while (!d.client.round_done() && d.now < 60000) {
    d.now += 5;
    d.host.pump(d.now);
    d.host.settle();
    d.client.step(d.now);
    d.client.settle();
  }
  const ClientReport report = d.client.finish_round(d.now);
  EXPECT_TRUE(report.complete()) << report.resolved << "/" << report.expected;
}

}  // namespace
}  // namespace argus::transport
