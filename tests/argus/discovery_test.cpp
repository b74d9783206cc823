// Simulated end-to-end discovery: the paper's testbed shape (1 subject,
// up to 20 objects, 1-4 hops) on the discrete-event ground network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>

#include "argus/discovery.hpp"
#include "harness/digest.hpp"

namespace argus::core {
namespace {

using backend::AttributeMap;
using backend::Backend;
using backend::Level;

struct Fleet {
  std::unique_ptr<Backend> be;
  backend::SubjectCredentials subject;
  std::vector<ScenarioObject> objects;
};

/// Build a testbed: `n` objects of the given level, all at `hops`.
Fleet make_fleet(std::size_t n, Level level, unsigned hops = 1) {
  Fleet f;
  f.be = std::make_unique<Backend>(crypto::Strength::b128, 11);
  f.subject = f.be->register_subject(
      "alice", AttributeMap{{"position", "employee"}}, {"support"});
  for (std::size_t i = 0; i < n; ++i) {
    const std::string id = "obj-" + std::to_string(i);
    backend::ObjectCredentials creds;
    switch (level) {
      case Level::kL1:
        creds = f.be->register_object(id, AttributeMap{{"type", "sensor"}},
                                      Level::kL1, {"read"});
        break;
      case Level::kL2:
        creds = f.be->register_object(
            id, AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
            {{"position=='employee'", "staff", {"use"}}});
        break;
      case Level::kL3:
        creds = f.be->register_object(
            id, AttributeMap{{"type", "kiosk"}}, Level::kL3, {},
            {{"position=='employee'", "staff", {"use"}}},
            {{"support", "covert", {"use", "support"}}});
        break;
    }
    f.objects.push_back(ScenarioObject{std::move(creds), hops});
  }
  return f;
}

DiscoveryScenario scenario_for(const Fleet& f) {
  DiscoveryScenario sc;
  sc.subject = f.subject;
  sc.admin_pub = f.be->admin_public_key();
  sc.objects = f.objects;
  sc.epoch = f.be->now();
  return sc;
}

TEST(DiscoveryTest, Level1TwentyObjectsDiscovered) {
  const Fleet f = make_fleet(20, Level::kL1);
  const auto report = run_discovery(scenario_for(f));
  EXPECT_EQ(report.services.size(), 20u);
  EXPECT_EQ(report.count_level(1), 20u);
  // Paper Fig 6(e): ~0.25 s for 20 Level 1 objects. Allow generous band.
  EXPECT_GT(report.total_ms, 120);
  EXPECT_LT(report.total_ms, 450);
}

TEST(DiscoveryTest, Level2TwentyObjectsDiscovered) {
  const Fleet f = make_fleet(20, Level::kL2);
  const auto report = run_discovery(scenario_for(f));
  EXPECT_EQ(report.count_level(2), 20u);
  // Paper: ~0.63 s.
  EXPECT_GT(report.total_ms, 450);
  EXPECT_LT(report.total_ms, 900);
}

TEST(DiscoveryTest, Level3TwentyObjectsDiscoveredCovertly) {
  const Fleet f = make_fleet(20, Level::kL3);
  const auto report = run_discovery(scenario_for(f));
  EXPECT_EQ(report.count_level(3), 20u);
  EXPECT_GT(report.total_ms, 450);
  EXPECT_LT(report.total_ms, 900);
}

TEST(DiscoveryTest, Level2And3TimesOverlap) {
  // Fig 6(e): Level 2 and Level 3 curves overlap — the timing signature
  // of indistinguishability at fleet scale.
  const Fleet f2 = make_fleet(10, Level::kL2);
  const Fleet f3 = make_fleet(10, Level::kL3);
  const auto r2 = run_discovery(scenario_for(f2));
  const auto r3 = run_discovery(scenario_for(f3));
  EXPECT_NEAR(r2.total_ms, r3.total_ms, 0.12 * r2.total_ms);
}

TEST(DiscoveryTest, TimeGrowsWithObjectCount) {
  double prev = 0;
  for (std::size_t n : {5u, 10u, 20u}) {
    const Fleet f = make_fleet(n, Level::kL2);
    const auto report = run_discovery(scenario_for(f));
    EXPECT_EQ(report.services.size(), n);
    EXPECT_GT(report.total_ms, prev);
    prev = report.total_ms;
  }
}

TEST(DiscoveryTest, MultiHopCostsMore) {
  const Fleet near = make_fleet(20, Level::kL2, 1);
  Fleet mixed = make_fleet(20, Level::kL2, 1);
  for (std::size_t i = 0; i < mixed.objects.size(); ++i) {
    mixed.objects[i].hops = static_cast<unsigned>(1 + i / 5);  // 5 per ring
  }
  const auto r_near = run_discovery(scenario_for(near));
  const auto r_mixed = run_discovery(scenario_for(mixed));
  EXPECT_EQ(r_mixed.services.size(), 20u);
  // Paper Fig 6(g): 0.63 s single-hop -> 1.15 s multi-hop.
  EXPECT_GT(r_mixed.total_ms, 1.2 * r_near.total_ms);
}

TEST(DiscoveryTest, SingleObjectLatencyByHops) {
  // Fig 6(h): latency grows roughly linearly with hop count.
  std::vector<double> times;
  for (unsigned hops : {1u, 2u, 3u, 4u}) {
    const Fleet f = make_fleet(1, Level::kL1, hops);
    times.push_back(run_discovery(scenario_for(f)).total_ms);
  }
  EXPECT_LT(times[0], times[1]);
  EXPECT_LT(times[1], times[2]);
  EXPECT_LT(times[2], times[3]);
  // 4-hop should be roughly 3-4.5x the 1-hop latency (paper: 0.13->0.53 s).
  EXPECT_GT(times[3], 2.5 * times[0]);
  EXPECT_LT(times[3], 5.5 * times[0]);
}

TEST(DiscoveryTest, MixedFleetConcurrentLevels) {
  // 3-in-1: one round discovers L1, L2, L3 services concurrently.
  Fleet f = make_fleet(4, Level::kL1);
  Fleet f2 = make_fleet(3, Level::kL2);
  Fleet f3 = make_fleet(2, Level::kL3);
  // Rebuild in one backend so credentials share an admin.
  Backend be(crypto::Strength::b128, 12);
  auto subject = be.register_subject(
      "alice", AttributeMap{{"position", "employee"}}, {"support"});
  std::vector<ScenarioObject> objs;
  for (int i = 0; i < 4; ++i) {
    objs.push_back({be.register_object("l1-" + std::to_string(i), {},
                                       Level::kL1, {"read"}),
                    1});
  }
  for (int i = 0; i < 3; ++i) {
    objs.push_back({be.register_object(
                        "l2-" + std::to_string(i), {}, Level::kL2, {},
                        {{"position=='employee'", "staff", {"use"}}}),
                    1});
  }
  for (int i = 0; i < 2; ++i) {
    objs.push_back({be.register_object(
                        "l3-" + std::to_string(i), {}, Level::kL3, {},
                        {{"position=='employee'", "staff", {"use"}}},
                        {{"support", "covert", {"support"}}}),
                    1});
  }
  DiscoveryScenario sc;
  sc.subject = subject;
  sc.admin_pub = be.admin_public_key();
  sc.objects = objs;
  sc.epoch = be.now();
  const auto report = run_discovery(sc);
  EXPECT_EQ(report.count_level(1), 4u);
  EXPECT_EQ(report.count_level(2), 3u);
  EXPECT_EQ(report.count_level(3), 2u);
  EXPECT_EQ(report.timeline.size(), 9u);
  (void)f;
  (void)f2;
  (void)f3;
}

TEST(DiscoveryTest, ReportAccountsMessagesAndCompute) {
  const Fleet f = make_fleet(5, Level::kL2);
  const auto report = run_discovery(scenario_for(f));
  EXPECT_GT(report.bytes_by_msg.at("QUE1"), 0u);
  EXPECT_GT(report.bytes_by_msg.at("RES1"), 0u);
  EXPECT_GT(report.bytes_by_msg.at("QUE2"), 0u);
  EXPECT_GT(report.bytes_by_msg.at("RES2"), 0u);
  // Subject: ~27.4 ms per object + RES2 processing extras.
  EXPECT_NEAR(report.subject_compute_ms, 5 * 27.4, 5 * 8.0);
  EXPECT_NEAR(report.object_compute_ms, 5 * 78.2, 5 * 4.0);
  EXPECT_EQ(report.net_stats.messages, 1u + 3 * 5u);  // QUE1 + 3 per object
}

TEST(DiscoveryTest, DeterministicGivenSeed) {
  const Fleet f = make_fleet(8, Level::kL3);
  const auto r1 = run_discovery(scenario_for(f));
  const auto r2 = run_discovery(scenario_for(f));
  EXPECT_EQ(r1.total_ms, r2.total_ms);
  EXPECT_EQ(r1.net_stats.bytes, r2.net_stats.bytes);
}

TEST(DiscoveryTest, LossyDiscoveryCompletesWithRetries) {
  // At 10% per-hop loss the retry driver (kAuto) must still terminate and
  // the loss accounting must be internally consistent.
  const Fleet f = make_fleet(10, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.radio.drop_prob = 0.10;
  const auto report = run_discovery(sc);
  ASSERT_EQ(report.outcomes.size(), 10u);
  for (const auto& out : report.outcomes) {
    // Each object either made it or explicitly ran out of budget/deadline.
    if (!out.discovered) {
      EXPECT_TRUE(report.net_stats.dropped > 0);
    }
  }
  EXPECT_EQ(report.services.size(),
            static_cast<std::size_t>(
                std::count_if(report.outcomes.begin(), report.outcomes.end(),
                              [](const ObjectOutcome& o) { return o.discovered; })));
  // Delivery ratio must match the raw rx counters.
  const auto& ns = report.net_stats;
  if (ns.deliveries + ns.dropped > 0) {
    EXPECT_DOUBLE_EQ(report.delivery_ratio,
                     static_cast<double>(ns.deliveries) /
                         static_cast<double>(ns.deliveries + ns.dropped));
  }
  EXPECT_LE(report.delivery_ratio, 1.0);
  // Offered >= delivered under loss; equality only on a clean channel.
  EXPECT_GE(report.offered_messages, report.net_stats.messages);
  EXPECT_GE(report.offered_bytes, report.net_stats.bytes);
  // The round deadline bounds the run even in the worst case.
  EXPECT_LE(report.total_ms, sc.retry.round_deadline_ms);

  // The same lossy run with a flooder armed: the report's traffic fields
  // and the scenario registry's net.msg.* counters tell one story, and
  // flood traffic is booked under its own type.
  obs::MetricsRegistry registry;
  sc.metrics = &registry;
  sc.flood.rate_per_s = 100;
  sc.flood.kind = FloodSpec::Kind::kGarbageQue2;
  const auto flooded = run_discovery(sc);
  const auto sum = [&](std::string_view prefix) {
    std::uint64_t total = 0;
    for (const auto& [name, counter] : registry.counters()) {
      if (name.starts_with(prefix)) total += counter.value();
    }
    return total;
  };
  EXPECT_EQ(sum("net.msg.offered.count."), flooded.offered_messages);
  EXPECT_EQ(sum("net.msg.offered.bytes."), flooded.offered_bytes);
  EXPECT_EQ(sum("net.msg.count."), flooded.net_stats.messages);
  EXPECT_EQ(sum("net.msg.bytes."), flooded.net_stats.bytes);
  std::map<std::string, std::uint64_t> delivered_bytes;
  constexpr std::string_view kBytes = "net.msg.bytes.";
  for (const auto& [name, counter] : registry.counters()) {
    if (name.starts_with(kBytes)) {
      delivered_bytes[name.substr(kBytes.size())] = counter.value();
    }
  }
  EXPECT_EQ(flooded.bytes_by_msg, delivered_bytes);
  EXPECT_TRUE(flooded.bytes_by_msg.contains("FLOOD"));
  EXPECT_NE(registry.find_counter("net.msg.offered.count.FLOOD"), nullptr);
  EXPECT_GT(flooded.offered_messages, flooded.net_stats.messages);
}

TEST(DiscoveryTest, LossyDiscoveryIsDeterministic) {
  // Same seed + same RadioParams -> byte-identical report, drops included.
  const Fleet f = make_fleet(8, Level::kL3);
  DiscoveryScenario sc = scenario_for(f);
  sc.radio.drop_prob = 0.15;
  sc.radio.dup_prob = 0.05;
  const auto r1 = run_discovery(sc);
  const auto r2 = run_discovery(sc);
  EXPECT_EQ(r1.total_ms, r2.total_ms);
  EXPECT_EQ(r1.services.size(), r2.services.size());
  EXPECT_EQ(r1.net_stats.messages, r2.net_stats.messages);
  EXPECT_EQ(r1.net_stats.bytes, r2.net_stats.bytes);
  EXPECT_EQ(r1.net_stats.dropped, r2.net_stats.dropped);
  EXPECT_EQ(r1.net_stats.duplicates, r2.net_stats.duplicates);
  EXPECT_EQ(r1.offered_messages, r2.offered_messages);
  EXPECT_EQ(r1.offered_bytes, r2.offered_bytes);
  EXPECT_EQ(r1.que1_retransmits, r2.que1_retransmits);
  EXPECT_EQ(r1.que2_retransmits, r2.que2_retransmits);
  EXPECT_EQ(r1.delivery_ratio, r2.delivery_ratio);
  ASSERT_EQ(r1.timeline.size(), r2.timeline.size());
  for (std::size_t i = 0; i < r1.timeline.size(); ++i) {
    EXPECT_EQ(r1.timeline[i].object_id, r2.timeline[i].object_id);
    EXPECT_EQ(r1.timeline[i].at_ms, r2.timeline[i].at_ms);
  }
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    EXPECT_EQ(r1.outcomes[i].discovered, r2.outcomes[i].discovered);
    EXPECT_EQ(r1.outcomes[i].que2_retransmits, r2.outcomes[i].que2_retransmits);
  }
}

TEST(DiscoveryTest, RetryPathTraceDigestIsReplayable) {
  // The strongest determinism claim for the loss/retry layer: replaying a
  // lossy run (fixed seed, drop_prob > 0) yields a byte-identical golden
  // digest — every traced event, every counter (retransmits, drops,
  // timer-driven resends included), every report field.
  const Fleet f = make_fleet(6, Level::kL2);
  const auto one_run = [&f](core::DiscoveryReport* report_out) {
    DiscoveryScenario sc = scenario_for(f);
    sc.radio.drop_prob = 0.20;
    obs::Tracer trace;
    obs::MetricsRegistry metrics;
    sc.tracer = &trace;
    sc.metrics = &metrics;
    const auto report = run_discovery(sc);
    if (report_out) *report_out = report;
    return harness::golden_digest(trace, metrics, report);
  };
  core::DiscoveryReport r1, r2;
  const std::string d1 = one_run(&r1);
  const std::string d2 = one_run(&r2);
  EXPECT_EQ(d1, d2);
  // At 20% loss the run must actually have exercised the retry path —
  // otherwise the digest equality proves nothing about it.
  EXPECT_GT(r1.que1_retransmits + r1.que2_retransmits, 0u);
  EXPECT_EQ(r1.que1_retransmits, r2.que1_retransmits);
  EXPECT_EQ(r1.que2_retransmits, r2.que2_retransmits);
  EXPECT_GT(r1.net_stats.dropped, 0u);
  // And a different seed must visibly change the behaviour stream.
  DiscoveryScenario other = scenario_for(f);
  other.radio.drop_prob = 0.20;
  other.seed = 1234;
  obs::Tracer trace;
  obs::MetricsRegistry metrics;
  other.tracer = &trace;
  other.metrics = &metrics;
  const auto report = run_discovery(other);
  EXPECT_NE(harness::golden_digest(trace, metrics, report), d1);
}

TEST(DiscoveryTest, CleanChannelReportUnchangedByRetryLayer) {
  // kAuto on a lossless radio must leave the legacy driver untouched:
  // no retransmits, offered == delivered, ratio exactly 1.
  const Fleet f = make_fleet(6, Level::kL2);
  const auto report = run_discovery(scenario_for(f));
  EXPECT_EQ(report.que1_retransmits, 0u);
  EXPECT_EQ(report.que2_retransmits, 0u);
  EXPECT_EQ(report.offered_messages, report.net_stats.messages);
  EXPECT_EQ(report.offered_bytes, report.net_stats.bytes);
  EXPECT_DOUBLE_EQ(report.delivery_ratio, 1.0);
  for (const auto& out : report.outcomes) EXPECT_TRUE(out.discovered);
}

TEST(DiscoveryTest, LossyRediscoveryRoundsSettleLikeTheFirst) {
  // Later rounds on one testbed re-discover services the subject already
  // holds. Those exchanges must settle as soon as the object answers, not
  // ride out every QUE2 budget (Level 2) or the whole QUE1 re-broadcast
  // budget (Level 1) to the round deadline.
  for (const Level level : {Level::kL1, Level::kL2}) {
    const Fleet f = make_fleet(10, level);
    DiscoveryScenario sc = scenario_for(f);
    sc.radio.drop_prob = 0.05;
    sc.seed = 17;
    const auto run = [&sc](std::size_t rounds, std::vector<double>* round_ms) {
      DiscoveryTestbed testbed(sc);
      for (std::size_t r = 0; r < rounds; ++r) {
        const double start = testbed.now();
        testbed.run_round(0);
        round_ms->push_back(testbed.now() - start);
      }
      return testbed.finalize();
    };
    std::vector<double> round_ms, first_ms;
    const DiscoveryReport all = run(4, &round_ms);
    const DiscoveryReport first = run(1, &first_ms);  // round 0 replayed
    ASSERT_EQ(first_ms[0], round_ms[0]);
    for (std::size_t r = 1; r < 4; ++r) {
      EXPECT_LE(round_ms[r], 2 * round_ms[0])
          << "level " << static_cast<int>(level) << " round " << r;
    }
    // Per object, rounds 1-3 together resent fewer QUE2s than one
    // round's budget, so no round exhausted it.
    ASSERT_EQ(all.outcomes.size(), first.outcomes.size());
    for (std::size_t i = 0; i < all.outcomes.size(); ++i) {
      EXPECT_LT(all.outcomes[i].que2_retransmits -
                    first.outcomes[i].que2_retransmits,
                sc.retry.max_retries)
          << "level " << static_cast<int>(level) << " object " << i;
    }
  }
}

TEST(DiscoveryTest, TotalLossTimesOutGracefully) {
  // A fully opaque channel must not hang: the QUE1 retries burn their
  // budget, the deadline closes the round, every outcome reads timed-out,
  // and total_ms reports the real end of the run, not zero.
  const Fleet f = make_fleet(3, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.radio.drop_prob = 1.0;
  const auto report = run_discovery(sc);
  EXPECT_TRUE(report.services.empty());
  EXPECT_TRUE(report.timeline.empty());
  ASSERT_EQ(report.outcomes.size(), 3u);
  for (const auto& out : report.outcomes) EXPECT_FALSE(out.discovered);
  EXPECT_GT(report.total_ms, 0.0);
  EXPECT_LE(report.total_ms, sc.retry.round_deadline_ms);
  EXPECT_EQ(report.que1_retransmits, sc.retry.max_retries);
  EXPECT_DOUBLE_EQ(report.delivery_ratio, 0.0);
  EXPECT_EQ(report.net_stats.messages, 0u);  // nothing was ever delivered
  EXPECT_GT(report.offered_messages, 0u);
}

TEST(DiscoveryTest, EmptyRoundReportsElapsedTime) {
  // Satellite fix: a round that discovers nothing (silent-by-policy fleet)
  // used to report total_ms == 0 even though virtual time passed.
  Backend be(crypto::Strength::b128, 21);
  auto subject = be.register_subject("eve", AttributeMap{{"position", "guest"}});
  std::vector<ScenarioObject> objs;
  objs.push_back({be.register_object(
                      "locked", {}, Level::kL2, {},
                      {{"position=='employee'", "staff", {"use"}}}),
                  1});
  DiscoveryScenario sc;
  sc.subject = subject;
  sc.admin_pub = be.admin_public_key();
  sc.objects = objs;
  sc.epoch = be.now();
  const auto report = run_discovery(sc);
  EXPECT_TRUE(report.services.empty());
  EXPECT_GT(report.total_ms, 0.0);  // QUE1 + RES1 + QUE2 still traversed air
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_FALSE(report.outcomes[0].discovered);
}

TEST(DiscoveryTest, ZeroObjectRoundGuardsDerivedRatios) {
  // Degenerate but reachable (a fleet whose whole group churned away):
  // no responders means nothing is offered an ack, and every derived
  // ratio must stay finite instead of dividing by zero.
  Backend be(crypto::Strength::b128, 23);
  DiscoveryScenario sc;
  sc.subject = be.register_subject("alice",
                                   AttributeMap{{"position", "employee"}});
  sc.admin_pub = be.admin_public_key();
  sc.epoch = be.now();
  const auto report = run_discovery(sc);
  EXPECT_TRUE(report.services.empty());
  EXPECT_TRUE(report.outcomes.empty());
  EXPECT_TRUE(std::isfinite(report.delivery_ratio));
  EXPECT_GE(report.delivery_ratio, 0.0);
  EXPECT_LE(report.delivery_ratio, 1.0);
  EXPECT_TRUE(std::isfinite(report.total_ms));
  EXPECT_GE(report.total_ms, 0.0);
}

TEST(DiscoveryTest, FloodedDiscoveryCompletesAndSheds) {
  const Fleet f = make_fleet(5, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.flood.rate_per_s = 200;
  sc.admission.enabled = true;
  const auto report = run_discovery(sc);
  EXPECT_EQ(report.services.size(), 5u);  // the storm is shed, not served
  EXPECT_GT(report.shed_overload + report.rate_limited, 0u);
  for (const auto& oc : report.outcomes) EXPECT_TRUE(oc.discovered);
}

TEST(DiscoveryTest, FloodWithRetriesOffStillTerminates) {
  // An unbounded flood keeps the event queue nonempty forever; the round
  // driver must run to its deadline rather than draining to quiescence.
  const Fleet f = make_fleet(3, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.flood.rate_per_s = 100;
  sc.admission.enabled = true;
  sc.retry.mode = RetryMode::kOff;
  const auto report = run_discovery(sc);
  EXPECT_EQ(report.services.size(), 3u);
  EXPECT_LE(report.total_ms, sc.retry.round_deadline_ms);
}

TEST(DiscoveryTest, FloodFreeReportCarriesNoOverloadFields) {
  // Digest safety: without a flooder or bounded queues, none of the
  // overload machinery may leave a trace in the report.
  const Fleet f = make_fleet(3, Level::kL2);
  const auto report = run_discovery(scenario_for(f));
  EXPECT_EQ(report.shed_overload, 0u);
  EXPECT_EQ(report.rate_limited, 0u);
  EXPECT_EQ(report.net_stats.queue_rejected, 0u);
  EXPECT_EQ(report.net_stats.queue_evicted, 0u);
}

TEST(DiscoveryTest, RetryModeOffDisablesRecovery) {
  // Explicit kOff on a lossy channel: the run still terminates (nothing
  // retransmits, the queue simply drains) and losses go unrepaired.
  const Fleet f = make_fleet(5, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.radio.drop_prob = 0.4;
  sc.retry.mode = RetryMode::kOff;
  const auto report = run_discovery(sc);
  EXPECT_EQ(report.que1_retransmits, 0u);
  EXPECT_EQ(report.que2_retransmits, 0u);
  EXPECT_LT(report.delivery_ratio, 1.0);
}

fault::FaultEvent scripted(std::size_t object, fault::FaultKind kind,
                           double at_ms, double duration_ms = -1) {
  fault::FaultEvent ev;
  ev.object = object;
  ev.kind = kind;
  ev.at_ms = at_ms;
  ev.duration_ms = duration_ms;
  return ev;
}

TEST(DiscoveryTest, CrashMidRoundCannotStallRound) {
  // A node that dies before replying must not hang the round: the retry
  // driver's deadline bounds it, and the crash is attributed.
  const Fleet f = make_fleet(5, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.faults.scripted.push_back(
      scripted(2, fault::FaultKind::kCrash, 1));
  const auto report = run_discovery(sc);
  EXPECT_LE(report.total_ms, sc.retry.round_deadline_ms);
  EXPECT_EQ(report.services.size(), 4u);
  ASSERT_EQ(report.outcomes.size(), 5u);
  EXPECT_FALSE(report.outcomes[2].discovered);
  EXPECT_EQ(report.outcomes[2].reason, FailReason::kCrashed);
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_TRUE(report.outcomes[i].discovered) << "object " << i;
  }
  EXPECT_EQ(report.fault_counts.at("crash"), 1u);
  EXPECT_GT(report.net_stats.fault_dropped, 0u);
}

TEST(DiscoveryTest, CrashWithRebootIsRediscovered) {
  // The node reboots with an empty session table; the QUE1 watchdog's
  // re-broadcast restarts its exchange from scratch.
  const Fleet f = make_fleet(3, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.faults.scripted.push_back(
      scripted(0, fault::FaultKind::kCrash, 1, /*duration_ms=*/400));
  const auto report = run_discovery(sc);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_TRUE(report.outcomes[0].discovered);
  EXPECT_EQ(report.services.size(), 3u);
  EXPECT_EQ(report.fault_counts.at("reboot"), 1u);
  EXPECT_GT(report.que1_retransmits, 0u);
}

TEST(DiscoveryTest, ZombieObjectTimesOutCleanly) {
  // A silent-drop zombie burns compute but never replies; its exchange
  // must park at a terminal timeout, not spin forever.
  const Fleet f = make_fleet(3, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  sc.faults.scripted.push_back(scripted(1, fault::FaultKind::kZombie, 1));
  const auto report = run_discovery(sc);
  EXPECT_LE(report.total_ms, sc.retry.round_deadline_ms);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_FALSE(report.outcomes[1].discovered);
  EXPECT_EQ(report.outcomes[1].reason, FailReason::kTimedOut);
  EXPECT_EQ(report.fault_counts.at("zombie"), 1u);
  EXPECT_GE(report.fault_counts.at("zombie_suppressed"), 1u);
}

TEST(DiscoveryTest, ByzantineObjectIsDetected) {
  // Truncated replies can never verify; the subject rejects them and the
  // outcome is attributed to the Byzantine fault.
  const Fleet f = make_fleet(3, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  auto ev = scripted(2, fault::FaultKind::kByzantine, 0);
  ev.mode = fault::ByzantineMode::kTruncate;
  ev.seed = 77;
  sc.faults.scripted.push_back(ev);
  const auto report = run_discovery(sc);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_FALSE(report.outcomes[2].discovered);
  EXPECT_EQ(report.outcomes[2].reason, FailReason::kByzantineDetected);
  EXPECT_GT(report.outcomes[2].rejects, 0u);
  EXPECT_EQ(report.fault_counts.at("byzantine"), 1u);
  // Honest peers are unaffected by their neighbor's corruption.
  EXPECT_TRUE(report.outcomes[0].discovered);
  EXPECT_TRUE(report.outcomes[1].discovered);
}

TEST(DiscoveryTest, StragglerDelaysButCompletes) {
  const Fleet f = make_fleet(3, Level::kL2);
  DiscoveryScenario clean_sc = scenario_for(f);
  const auto clean = run_discovery(clean_sc);
  ASSERT_EQ(clean.services.size(), 3u);

  DiscoveryScenario sc = scenario_for(f);
  auto ev = scripted(0, fault::FaultKind::kStraggle, 1,
                     /*duration_ms=*/1500);
  ev.factor = 8.0;
  sc.faults.scripted.push_back(ev);
  const auto report = run_discovery(sc);
  EXPECT_EQ(report.services.size(), 3u);  // slow, not lost
  EXPECT_GT(report.total_ms, clean.total_ms);
  EXPECT_EQ(report.fault_counts.at("straggle"), 1u);
}

TEST(DiscoveryTest, FaultFreeReportCarriesNoFaultFields) {
  // The chaos layer must be invisible when unarmed: no fault counters,
  // no failure reasons, no fault-dropped deliveries — byte-identical
  // reports to a build without the fault layer.
  const Fleet f = make_fleet(3, Level::kL2);
  DiscoveryScenario sc = scenario_for(f);
  const auto report = run_discovery(sc);
  EXPECT_TRUE(report.fault_counts.empty());
  EXPECT_EQ(report.net_stats.fault_dropped, 0u);
  for (const auto& oc : report.outcomes) {
    EXPECT_EQ(oc.reason, FailReason::kNone);
    EXPECT_EQ(oc.rejects, 0u);
  }
}

TEST(DiscoveryTest, MultiRoundFindsServicesAcrossGroups) {
  Backend be(crypto::Strength::b128, 13);
  auto subject =
      be.register_subject("carol", {}, {"support", "disability"});
  std::vector<ScenarioObject> objs;
  objs.push_back({be.register_object(
                      "kiosk", {}, Level::kL3, {},
                      {{"position!='x'", "staff", {"use"}}},
                      {{"support", "covert-a", {"a"}}}),
                  1});
  objs.push_back({be.register_object(
                      "ramp", {}, Level::kL3, {},
                      {{"position!='x'", "staff", {"use"}}},
                      {{"disability", "covert-b", {"b"}}}),
                  1});
  DiscoveryScenario sc;
  sc.subject = subject;
  sc.admin_pub = be.admin_public_key();
  sc.objects = objs;
  sc.epoch = be.now();
  sc.rounds = 2;  // cycle both group keys (§VI-C)
  const auto report = run_discovery(sc);
  std::size_t covert = report.count_level(3);
  EXPECT_EQ(covert, 2u);
}

}  // namespace
}  // namespace argus::core
