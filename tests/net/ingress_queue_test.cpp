// Differential test of the per-node ingress queue.
//
// net::Network arms one wake event per busy node and replays each parked
// message's wake at its virtual (time, seq) key (net/ingress_queue.hpp).
// RefNetwork below is a frozen copy of the simpler model it replaced: one
// cancellable timer per parked message, every timer firing at busy_until
// and re-parking behind the next busy window. Both run the same seeded
// scripts on integer times and costs, so same-instant ties are common,
// and must agree on every delivery, trace event, Stats field and the
// final clock. Only the number of simulator events may differ.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"

namespace argus::net {
namespace {

/// Reference ingress model: per-message wake timers (frozen behaviour).
/// Loss, duplication and jitter are left out; the scripts run lossless.
class RefNetwork {
 public:
  using Stats = Network::Stats;

  RefNetwork(Simulator& sim, RadioParams radio, std::uint64_t /*seed*/)
      : sim_(sim), radio_(radio) {
    nodes_.resize(1);
  }

  NodeId add_node(SimNode* node, unsigned hops) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    NodeSlot s;
    s.node = node;
    s.hops = hops;
    nodes_.push_back(std::move(s));
    if (rings_.size() <= hops) rings_.resize(hops + 1);
    rings_[hops].push_back(id);
    if (hops > max_hops_) max_hops_ = hops;
    return id;
  }
  void set_node_up(NodeId id, bool up) {
    nodes_[id].up = up;
    nodes_[id].busy_until = sim_.now();
  }
  void consume_compute(NodeId id, double ms) {
    NodeSlot& s = nodes_[id];
    const SimTime start = std::max(s.busy_until, sim_.now());
    s.busy_until = start + ms;
    if (tracer_ && ms > 0) {
      tracer_->begin(start, id, "compute", "compute");
      tracer_->end(start + ms, id);
    }
  }
  [[nodiscard]] std::size_t queue_length(NodeId id) const {
    return nodes_[id].parked.size();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  SendOutcome unicast(NodeId from, NodeId to, Bytes payload) {
    const unsigned ha = nodes_[from].hops;
    const unsigned hb = nodes_[to].hops;
    const unsigned hops = std::max(1u, ha > hb ? ha - hb : hb - ha);
    const double occupancy =
        static_cast<double>(payload.size()) / radio_.bandwidth_bytes_per_ms;
    stats_.messages += 1;
    stats_.bytes += payload.size();
    const unsigned base = std::min(ha, hb);
    SimTime arrival = std::max(sim_.now(), nodes_[from].busy_until);
    for (unsigned h = 0; h < hops; ++h) {
      const SimTime start = reserve_channel(base + h, arrival, occupancy);
      arrival = start + occupancy + radio_.per_hop_latency_ms;
      stats_.hop_bytes += payload.size();
    }
    SendOutcome out;
    out.congested = queue_full(to);
    out.delivered = true;
    deliver(from, to, std::make_shared<const Bytes>(std::move(payload)),
            arrival);
    return out;
  }

  SendOutcome broadcast(NodeId from, Bytes payload) {
    const double occupancy =
        static_cast<double>(payload.size()) / radio_.bandwidth_bytes_per_ms;
    const SimTime ready = std::max(sim_.now(), nodes_[from].busy_until);
    std::vector<SimTime> ring_arrival(max_hops_ + 1, ready);
    SimTime prev = ready;
    for (unsigned h = 1; h <= max_hops_; ++h) {
      const SimTime start = reserve_channel(h - 1, prev, occupancy);
      ring_arrival[h] = start + occupancy + radio_.per_hop_latency_ms;
      prev = ring_arrival[h];
      stats_.hop_bytes += payload.size();
    }
    stats_.messages += 1;
    stats_.bytes += payload.size();
    SendOutcome out;
    const auto frame = std::make_shared<const Bytes>(std::move(payload));
    for (unsigned ring = 0; ring < rings_.size(); ++ring) {
      for (const NodeId id : rings_[ring]) {
        if (id == from) continue;
        out.congested = out.congested || queue_full(id);
        const unsigned h = std::max(1u, ring);
        out.delivered = true;
        deliver(from, id, frame, ring_arrival[std::min(h, max_hops_)]);
      }
    }
    return out;
  }

 private:
  using Frame = std::shared_ptr<const Bytes>;
  struct Parked {
    std::uint64_t park_id = 0;
    TimerId timer = 0;
    NodeId from = 0;
    std::size_t bytes = 0;
  };
  struct NodeSlot {
    SimNode* node = nullptr;
    unsigned hops = 0;
    SimTime busy_until = 0;
    bool up = true;
    std::deque<Parked> parked;
  };

  SimTime reserve_channel(unsigned ring, SimTime earliest, double occupancy) {
    if (ring_free_.size() <= ring) ring_free_.resize(ring + 1, 0);
    const SimTime start = std::max(earliest, ring_free_[ring]);
    ring_free_[ring] = start + occupancy;
    stats_.channel_busy_ms += occupancy;
    return start;
  }
  [[nodiscard]] bool queue_full(NodeId to) const {
    return radio_.queue_depth > 0 &&
           nodes_[to].parked.size() >= radio_.queue_depth;
  }

  void deliver(NodeId from, NodeId to, Frame frame, SimTime arrival) {
    sim_.schedule_at(arrival, [this, from, to, frame = std::move(frame)] {
      if (!nodes_[to].up) {
        fault_drop(from, to, frame->size());
        return;
      }
      if (tracer_) {
        tracer_->instant(sim_.now(), to, "rx", "net", frame->size(), from);
      }
      process(from, to, frame);
    });
  }
  void process(NodeId from, NodeId to, const Frame& frame) {
    NodeSlot& s = nodes_[to];
    if (!s.up) {
      fault_drop(from, to, frame->size());
      return;
    }
    if (s.busy_until > sim_.now()) {
      park(from, to, frame);
      return;
    }
    ++stats_.deliveries;
    s.node->on_message(from, *frame);
  }
  void park(NodeId from, NodeId to, const Frame& frame) {
    NodeSlot& s = nodes_[to];
    if (queue_full(to) && !make_room(to)) {
      queue_shed(from, to, frame->size(), false);
      return;
    }
    Parked entry;
    entry.park_id = next_park_++;
    entry.from = from;
    entry.bytes = frame->size();
    const std::uint64_t park_id = entry.park_id;
    entry.timer = sim_.schedule_timer_at(
        s.busy_until,
        [this, from, to, park_id, frame] { wake(from, to, park_id, frame); });
    s.parked.push_back(entry);
    stats_.queue_peak =
        std::max<std::uint64_t>(stats_.queue_peak, s.parked.size());
  }
  void wake(NodeId from, NodeId to, std::uint64_t park_id,
            const Frame& frame) {
    NodeSlot& s = nodes_[to];
    for (auto it = s.parked.begin(); it != s.parked.end(); ++it) {
      if (it->park_id == park_id) {
        s.parked.erase(it);
        break;
      }
    }
    if (!s.up) {
      fault_drop(from, to, frame->size());
      return;
    }
    if (s.busy_until > sim_.now()) {
      park(from, to, frame);
      return;
    }
    ++stats_.deliveries;
    s.node->on_message(from, *frame);
  }
  bool make_room(NodeId to) {
    NodeSlot& s = nodes_[to];
    if (radio_.queue_policy != QueuePolicy::kDropOldest) return false;
    const Parked victim = s.parked.front();
    sim_.cancel_timer(victim.timer);
    s.parked.pop_front();
    queue_shed(victim.from, to, victim.bytes, true);
    return true;
  }
  void queue_shed(NodeId from, NodeId to, std::size_t bytes, bool evicted) {
    ++(evicted ? stats_.queue_evicted : stats_.queue_rejected);
    if (tracer_) {
      tracer_->instant(sim_.now(), to,
                       evicted ? "drop.queue_evict" : "drop.queue_full",
                       "net", bytes, from);
    }
  }
  void fault_drop(NodeId from, NodeId to, std::size_t bytes) {
    ++stats_.fault_dropped;
    if (tracer_) {
      tracer_->instant(sim_.now(), to, "drop.crashed", "net", bytes, from);
    }
  }

  Simulator& sim_;
  RadioParams radio_;
  std::vector<NodeSlot> nodes_;
  std::vector<std::vector<NodeId>> rings_;
  unsigned max_hops_ = 0;
  std::uint64_t next_park_ = 1;
  std::vector<SimTime> ring_free_;
  Stats stats_;
  obs::Tracer* tracer_ = nullptr;
};

/// Payload layout: [wire type, cost index, reply ttl, reply target, id].
constexpr double kCost[] = {0, 0, 1, 2, 3, 5, 10};
constexpr std::size_t kCosts = std::size(kCost);

struct Action {
  enum Kind { kSend, kBroadcast, kCrash, kReboot } kind = kSend;
  SimTime at = 0;
  NodeId node = 1;  // sender, or the node a fault hits
  NodeId to = 1;
  Bytes payload;
  /// kSend: back-to-back copies; copy r has id payload[4] + r and the
  /// wire type r places further along the 1..6 cycle.
  std::size_t repeat = 1;
};

struct Scenario {
  RadioParams radio;
  std::vector<unsigned> hops;  // hops[i] for node i + 1
  std::vector<Action> script;
};

class ScriptNode : public SimNode {
 public:
  std::function<void(NodeId, const Bytes&)> handler;
  void on_message(NodeId from, const Bytes& payload) override {
    handler(from, payload);
  }
};

struct Outcome {
  std::vector<std::string> deliveries;  // "time node from payload queued"
  std::vector<std::string> trace;       // every non-"sim" trace event
  Network::Stats stats;
  SimTime end = 0;
  std::uint64_t events = 0;
};

std::string dotted(const Bytes& b) {
  std::ostringstream os;
  for (const auto byte : b) os << static_cast<int>(byte) << '.';
  return os.str();
}

/// Run `sc` on either implementation; both see identical calls.
template <typename Net>
Outcome run(const Scenario& sc) {
  Simulator sim;
  obs::Tracer tracer;
  sim.set_tracer(&tracer);
  Net net(sim, sc.radio, 1);
  net.set_tracer(&tracer);
  const std::size_t n = sc.hops.size();
  std::vector<std::unique_ptr<ScriptNode>> nodes;
  Outcome out;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<ScriptNode>());
    const NodeId self = net.add_node(nodes.back().get(), sc.hops[i]);
    nodes.back()->handler = [&, self](NodeId from, const Bytes& p) {
      std::ostringstream os;
      os.precision(17);
      os << sim.now() << ' ' << self << ' ' << from << ' ' << dotted(p) << ' '
         << net.queue_length(self);
      out.deliveries.push_back(os.str());
      net.consume_compute(self, kCost[p[1] % kCosts]);
      if (p[2] == 0) return;
      Bytes reply = p;
      reply[1] = static_cast<std::uint8_t>(p[1] + 1);
      reply[2] = static_cast<std::uint8_t>(p[2] - 1);
      const NodeId target = static_cast<NodeId>(p[3] % n + 1);
      if (target == self) {
        net.broadcast(self, std::move(reply));
      } else {
        net.unicast(self, target, std::move(reply));
      }
    };
  }
  for (const Action& a : sc.script) {
    sim.schedule_at(a.at, [&net, &a] {
      switch (a.kind) {
        case Action::kSend:
          for (std::size_t r = 0; r < a.repeat; ++r) {
            Bytes p = a.payload;
            p[0] = static_cast<std::uint8_t>(1 + (p[0] - 1 + r) % 6);
            p[4] = static_cast<std::uint8_t>(p[4] + r);
            net.unicast(a.node, a.to, std::move(p));
          }
          break;
        case Action::kBroadcast:
          net.broadcast(a.node, a.payload);
          break;
        case Action::kCrash:
          net.set_node_up(a.node, false);
          break;
        case Action::kReboot:
          net.set_node_up(a.node, true);
          break;
      }
    });
  }
  out.end = sim.run();
  out.events = sim.executed();
  out.stats = net.stats();
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.cat == "sim") continue;  // sim.run carries the event count
    std::ostringstream os;
    os.precision(17);
    os << static_cast<int>(ev.kind) << ' ' << ev.ts << ' ' << ev.node << ' '
       << ev.name << ' ' << ev.a << ' ' << ev.b;
    out.trace.push_back(os.str());
  }
  return out;
}

void expect_same(const Outcome& ref, const Outcome& got, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.deliveries, ref.deliveries);
  EXPECT_EQ(got.trace, ref.trace);
  EXPECT_EQ(got.end, ref.end);
  const Network::Stats& a = ref.stats;
  const Network::Stats& b = got.stats;
  EXPECT_EQ(b.messages, a.messages);
  EXPECT_EQ(b.bytes, a.bytes);
  EXPECT_EQ(b.hop_bytes, a.hop_bytes);
  EXPECT_EQ(b.channel_busy_ms, a.channel_busy_ms);
  EXPECT_EQ(b.deliveries, a.deliveries);
  EXPECT_EQ(b.fault_dropped, a.fault_dropped);
  EXPECT_EQ(b.no_dest_dropped, a.no_dest_dropped);
  EXPECT_EQ(b.queue_rejected, a.queue_rejected);
  EXPECT_EQ(b.queue_evicted, a.queue_evicted);
  EXPECT_EQ(b.queue_peak, a.queue_peak);
}

Outcome check(const Scenario& sc, const char* what) {
  const Outcome ref = run<RefNetwork>(sc);
  const Outcome got = run<Network>(sc);
  expect_same(ref, got, what);
  // One wake per busy window can only save events.
  EXPECT_LE(got.events, ref.events) << what;
  return got;
}

RadioParams integer_radio(std::size_t depth, QueuePolicy policy) {
  RadioParams r;
  r.bandwidth_bytes_per_ms = 1;  // occupancy = payload bytes, in ms
  r.per_hop_latency_ms = 1;
  r.jitter_ms = 0;
  r.queue_depth = depth;
  r.queue_policy = policy;
  return r;
}

Bytes payload(std::uint8_t type, std::uint8_t cost, std::uint8_t ttl,
              std::uint8_t target, std::uint8_t id) {
  return {type, cost, ttl, target, id};
}

Scenario random_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  Scenario sc;
  sc.radio = integer_radio(pick(2) ? 0 : 1 + pick(4),
                           static_cast<QueuePolicy>(pick(2)));
  sc.radio.per_hop_latency_ms = static_cast<double>(pick(3));
  const std::size_t n = 2 + pick(5);
  sc.hops.push_back(0);
  for (std::size_t i = 1; i < n; ++i) {
    sc.hops.push_back(static_cast<unsigned>(1 + pick(3)));
  }
  const std::size_t actions = 10 + pick(40);
  for (std::size_t i = 0; i < actions; ++i) {
    Action a;
    a.at = static_cast<SimTime>(pick(40));
    a.node = static_cast<NodeId>(1 + pick(n));
    a.to = static_cast<NodeId>(1 + pick(n));
    a.payload = payload(static_cast<std::uint8_t>(1 + pick(6)),
                        static_cast<std::uint8_t>(pick(kCosts)),
                        static_cast<std::uint8_t>(pick(3)),
                        static_cast<std::uint8_t>(pick(n)),
                        static_cast<std::uint8_t>(i));
    const std::uint64_t k = pick(20);
    if (k < 11) {
      a.kind = Action::kSend;
    } else if (k < 14) {
      a.kind = Action::kBroadcast;
    } else if (k < 17) {
      a.kind = Action::kCrash;
    } else {
      a.kind = Action::kReboot;
    }
    sc.script.push_back(std::move(a));
  }
  return sc;
}

TEST(IngressQueueTest, SeededFuzzMatchesPerMessageTimers) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Scenario sc = random_scenario(seed);
    const std::string what = "seed " + std::to_string(seed);
    check(sc, what.c_str());
    if (testing::Test::HasFailure()) break;
  }
}

Action send(SimTime at, NodeId from, NodeId to, Bytes p) {
  Action a;
  a.at = at;
  a.node = from;
  a.to = to;
  a.payload = std::move(p);
  return a;
}

Action fault(Action::Kind kind, SimTime at, NodeId node) {
  Action a;
  a.kind = kind;
  a.at = at;
  a.node = node;
  return a;
}

/// Node 1 sends `count` messages to node 2 at t = 0, each costing
/// kCost[cost]. At 5 bytes/ms a 5-byte message occupies the channel for
/// 1 ms, so arrivals land at t = 2, 3, 4, ...
Scenario burst(std::size_t count, std::uint8_t cost, std::size_t depth,
               QueuePolicy policy) {
  Scenario sc;
  sc.radio = integer_radio(depth, policy);
  sc.radio.bandwidth_bytes_per_ms = 5;
  sc.hops = {0, 1};
  Action a = send(0, 1, 2, payload(1, cost, 0, 0, 0));
  a.repeat = count;
  sc.script.push_back(std::move(a));
  return sc;
}

std::size_t delivery_index(const Outcome& out, std::uint8_t id) {
  const std::string tail = "." + std::to_string(id) + ". ";
  for (std::size_t i = 0; i < out.deliveries.size(); ++i) {
    if (out.deliveries[i].find(tail) != std::string::npos) return i;
  }
  return out.deliveries.size();
}

TEST(IngressQueueTest, ZeroComputeTiesKeepOrder) {
  // Two senders on disjoint rings land on node 2 at the same instants;
  // some handlers take no time, so entries wake into an idle node.
  Scenario sc;
  sc.radio = integer_radio(0, QueuePolicy::kDropTail);
  sc.hops = {0, 1, 2};
  for (std::uint8_t i = 0; i < 12; ++i) {
    const std::uint8_t cost = i % 3;
    sc.script.push_back(send(0, 1, 2, payload(1, cost, 0, 0, i)));
    sc.script.push_back(send(0, 3, 2, payload(1, cost, 0, 0, 100 + i)));
  }
  const Outcome got = check(sc, "ties");
  EXPECT_EQ(got.stats.deliveries, 24u);
}

TEST(IngressQueueTest, RebootBeforeOldWakeParksAheadOfOlderEntries) {
  // Node 2 handles #0 at t = 2 and is busy until 7, so #1 parks with wake
  // key (7, s1). It crashes at 4 (#2 is lost on arrival) and reboots at
  // 5. #3 arrives at 5 and keeps it busy until 6, so #4, landing at 5
  // from another ring, parks with key (6, s4): ahead of the older #1.
  Scenario sc;
  sc.radio = integer_radio(0, QueuePolicy::kDropTail);
  sc.radio.bandwidth_bytes_per_ms = 5;
  sc.hops = {0, 1, 2};
  sc.script.push_back(send(0, 1, 2, payload(1, 5, 0, 0, 0)));
  sc.script.push_back(send(0, 1, 2, payload(1, 0, 0, 0, 1)));
  sc.script.push_back(send(0, 1, 2, payload(1, 0, 0, 0, 2)));
  sc.script.push_back(send(0, 1, 2, payload(1, 2, 0, 0, 3)));
  sc.script.push_back(send(3, 3, 2, payload(1, 0, 0, 0, 4)));
  sc.script.push_back(fault(Action::kCrash, 4, 2));
  sc.script.push_back(fault(Action::kReboot, 5, 2));
  const Outcome got = check(sc, "reboot");
  EXPECT_EQ(got.stats.fault_dropped, 1u);
  EXPECT_EQ(got.stats.deliveries, 4u);
  EXPECT_LT(delivery_index(got, 4), delivery_index(got, 1));
}

TEST(IngressQueueTest, ArrivalBetweenSameInstantWakesKeepsItsTurn) {
  // #1 (t = 3) and #2 (t = 5) both park behind the window ending at 7.
  // #3 is sent at 5, before #2 parks, and lands at exactly 7: its
  // arrival falls between the two wakes and must park before #2 does.
  Scenario sc;
  sc.radio = integer_radio(0, QueuePolicy::kDropTail);
  sc.radio.bandwidth_bytes_per_ms = 5;
  sc.hops = {0, 1, 2};
  sc.script.push_back(send(0, 1, 2, payload(1, 5, 0, 0, 0)));
  sc.script.push_back(send(0, 1, 2, payload(1, 3, 0, 0, 1)));
  sc.script.push_back(send(5, 3, 2, payload(1, 0, 0, 0, 3)));
  sc.script.push_back(send(3, 1, 2, payload(1, 0, 0, 0, 2)));
  const Outcome got = check(sc, "between");
  EXPECT_LT(delivery_index(got, 3), delivery_index(got, 2));
}

TEST(IngressQueueTest, DropOldestAfterRebootEvictsEarliestPark) {
  // #1 parks behind a 10 ms window (wake key time 12). A crash and
  // reboot reset the window, so #4 parks later but with an earlier key
  // (7). When #5 finds the queue full, drop_oldest must evict #1, the
  // earliest park, not #4, the earliest wake.
  Scenario sc;
  sc.radio = integer_radio(2, QueuePolicy::kDropOldest);
  sc.radio.bandwidth_bytes_per_ms = 5;
  sc.hops = {0, 1, 2};
  sc.script.push_back(send(0, 1, 2, payload(1, 6, 0, 0, 0)));
  sc.script.push_back(send(0, 1, 2, payload(1, 0, 0, 0, 1)));
  sc.script.push_back(send(3, 1, 2, payload(1, 3, 0, 0, 3)));
  sc.script.push_back(send(4, 3, 2, payload(1, 0, 0, 0, 4)));
  sc.script.push_back(send(4, 1, 2, payload(1, 0, 0, 0, 5)));
  sc.script.push_back(fault(Action::kCrash, 4, 2));
  sc.script.push_back(fault(Action::kReboot, 5, 2));
  const Outcome got = check(sc, "drop_oldest after reboot");
  EXPECT_EQ(got.stats.queue_evicted, 1u);
  EXPECT_EQ(delivery_index(got, 1), got.deliveries.size());
  EXPECT_LT(delivery_index(got, 4), got.deliveries.size());
}

TEST(IngressQueueTest, CrashDropsEachEntryAtItsWakeTime) {
  // Entries park behind windows ending at 7, 12, 17, ...; the crash at
  // t = 10 leaves each to be dropped when its own wake comes due.
  Scenario sc = burst(8, 5, 0, QueuePolicy::kDropTail);
  sc.script.push_back(fault(Action::kCrash, 10, 2));
  const Outcome got = check(sc, "crash");
  EXPECT_GT(got.stats.fault_dropped, 0u);
}

TEST(IngressQueueTest, BoundedPoliciesEvictTheSameEntries) {
  for (const QueuePolicy policy :
        {QueuePolicy::kDropTail, QueuePolicy::kDropOldest}) {
    for (const std::size_t depth : {1u, 2u, 3u}) {
      const Scenario sc = burst(16, 5, depth, policy);
      const std::string what = std::string(queue_policy_name(policy)) +
                               " depth " + std::to_string(depth);
      const Outcome got = check(sc, what.c_str());
      EXPECT_GT(got.stats.queue_rejected + got.stats.queue_evicted, 0u)
          << what;
    }
  }
}

TEST(IngressQueueTest, BurstInOneBusyWindowDispatchesLinearEvents) {
  // k arrivals during one busy window: per-message timers re-fire the
  // whole backlog at every window end (about k^2/2 events); one wake per
  // busy window needs the k arrivals plus at most one wake per delivery.
  constexpr std::size_t k = 256;
  Scenario sc = burst(k, 5, 0, QueuePolicy::kDropTail);
  sc.radio.bandwidth_bytes_per_ms = 5000;  // all k land in the first window
  const Outcome ref = run<RefNetwork>(sc);
  const Outcome got = run<Network>(sc);
  expect_same(ref, got, "burst");
  EXPECT_EQ(got.stats.deliveries, k);
  EXPECT_LE(got.events, 2 * k + 4);
  EXPECT_GT(ref.events, k * k / 4);
}

}  // namespace
}  // namespace argus::net
