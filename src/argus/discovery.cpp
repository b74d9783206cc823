#include "argus/discovery.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "fault/byzantine.hpp"
#include "fault/chaos.hpp"

namespace argus::core {

namespace {

/// The type byte of a wire message; 0, which names no type, when empty.
MsgType wire_type(ByteSpan wire) {
  return wire.empty() ? MsgType{} : static_cast<MsgType>(wire[0]);
}

/// One message type's traffic. Offered counts every send attempt;
/// delivered counts only copies the radio let through, so a lossy run's
/// report never claims traffic the peer never saw. On a clean channel
/// the two are equal.
struct Traffic {
  std::uint64_t offered_count = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t count = 0;  // delivered
  std::uint64_t bytes = 0;  // delivered
};

// Per-run observability context. `metrics` always points at the run-local
// registry; `tracer` is the user's, if any. `traffic` is the single source
// for the report's traffic accounting and the net.msg.* counters, keyed by
// the static type name (msg_type_name, or "FLOOD").
struct Shared {
  DiscoveryReport* report = nullptr;
  std::uint64_t epoch = 0;
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::map<std::string_view, Traffic> traffic;

  void tally(std::string_view type, std::size_t size, bool delivered) {
    Traffic& t = traffic[type];
    ++t.offered_count;
    t.offered_bytes += size;
    if (delivered) {
      ++t.count;
      t.bytes += size;
    }
  }
};

class ObjectNode final : public net::SimNode {
 public:
  ObjectNode(ObjectEngineConfig cfg, Shared* shared)
      : cfg_(std::move(cfg)), shared_(shared) {
    engine_.emplace(cfg_);
  }

  /// Reboot after a crash: the engine restarts from its config with an
  /// empty session table (and a reset DRBG — bad post-reboot entropy is
  /// realistic). Any Byzantine arming dies with the old process image.
  void restart_engine() { engine_.emplace(cfg_); }

  /// Silent-drop zombie: the node keeps receiving and even burns compute,
  /// but no reply ever leaves it again.
  void make_zombie() { zombie_ = true; }

  void arm_byzantine(fault::ByzantineMode mode, std::uint64_t seed) {
    engine_->arm(mode, seed);
  }

  void on_message(net::NodeId from, const Bytes& payload) override {
    obs::Tracer* const tr = shared_->tracer;
    const std::uint64_t fellows_before =
        engine_->inner().stats().fellows_confirmed;
    if (tr) {
      tr->begin(net_->now(), node_id(),
                std::string("handle.") + msg_type_name(wire_type(payload)),
                "phase", payload.size());
    }
    engine_->inner().advance_clock(net_->now());
    auto reply = engine_->handle(payload, shared_->epoch, from);
    const double ms = engine_->take_consumed_ms();
    net_->consume_compute(node_id(), ms);
    shared_->report->object_compute_ms += ms;
    if (tr && is_reject(reply.status)) {
      tr->instant(net_->now(), node_id(),
                  std::string("reject.") + status_name(reply.status), "fault",
                  payload.size(), from);
    }
    if (tr && is_shed(reply.status)) {
      // Admission sheds only fire when admission control is enabled, so
      // flood-free traces stay byte-identical.
      tr->instant(net_->now(), node_id(),
                  std::string("shed.") + status_name(reply.status), "fault",
                  payload.size(), from);
    }
    std::uint64_t reply_level = 0;
    if (reply && zombie_) {
      // The engine did the work; the zombie eats the reply.
      shared_->metrics->counter("fault.zombie_suppressed").inc();
      if (tr) {
        tr->instant(net_->now(), node_id(), "drop.zombie", "fault",
                    reply->size(), from);
      }
      reply.reply.reset();
    }
    if (reply) {
      if (wire_type(*reply) == MsgType::kRes2) {
        reply_level =
            engine_->inner().stats().fellows_confirmed > fellows_before ? 3
                                                                        : 2;
      }
      const char* type = msg_type_name(wire_type(*reply));
      const std::size_t size = reply->size();
      if (tr) {
        tr->instant(net_->now(), node_id(), std::string("tx.") + type, "net",
                    size, reply_level);
      }
      const auto sent = net_->unicast(node_id(), from, std::move(*reply));
      shared_->tally(type, size, sent.delivered);
    }
    // The span closes when the node's modeled compute drains; its `b`
    // carries the reply level the auditor partitions faces by.
    if (tr) tr->end(net_->node_free_at(node_id()), node_id(), 0, reply_level);
  }

  ObjectEngine& engine() { return engine_->inner(); }
  [[nodiscard]] const ObjectEngine& engine() const { return engine_->inner(); }

 private:
  ObjectEngineConfig cfg_;  // kept for reboot-time engine rebuilds
  std::optional<fault::ByzantineEngine<ObjectEngine>> engine_;
  bool zombie_ = false;
  Shared* shared_;
};

/// Simulator adapter over the round driver: maps radio node ids onto
/// driver slots and the driver's effects onto the radio and Simulator
/// timers, and keeps the simulator-only work — trace instants, message
/// tallies, compute charging, and the discovery timeline.
class SubjectNode final : public net::SimNode {
 public:
  SubjectNode(SubjectEngineConfig cfg, std::size_t objects,
              const RetryPolicy& policy, Shared* shared)
      : driver_(std::move(cfg), objects, shared->epoch, policy),
        shared_(shared),
        timers_(objects + 1) {}

  /// Objects join in slot order (and in ascending node id).
  void add_object(net::NodeId node) { objects_.push_back(node); }

  void begin_round(std::size_t group_idx) {
    group_idx_ = group_idx;
    apply(driver_.begin_round(group_idx));
  }

  /// Close out the round: no stale timer leaks into the next one.
  void finish_round() {
    apply(driver_.end_round());
    const RoundDriver::Counts& counts = driver_.counts();
    shared_->report->que1_retransmits += counts.que1_retransmits;
    shared_->report->que2_retransmits += counts.que2_retransmits;
  }

  void on_message(net::NodeId from, const Bytes& payload) override {
    const auto it = std::lower_bound(objects_.begin(), objects_.end(), from);
    if (it == objects_.end() || *it != from) return;  // only objects answer
    obs::Tracer* const tr = shared_->tracer;
    if (tr) {
      tr->begin(net_->now(), node_id(),
                std::string("handle.") + msg_type_name(wire_type(payload)),
                "phase", payload.size());
    }
    SubjectEngine& engine = driver_.engine();
    const std::size_t before = engine.discovered().size();
    const RoundDriver::Handled handled = driver_.on_frame(
        static_cast<std::size_t>(it - objects_.begin()), payload);
    const double ms = engine.take_consumed_ms();
    net_->consume_compute(node_id(), ms);
    shared_->report->subject_compute_ms += ms;
    if (tr && is_reject(handled.status)) {
      tr->instant(net_->now(), node_id(),
                  std::string("reject.") + status_name(handled.status),
                  "fault", payload.size(), from);
    }
    if (engine.discovered().size() > before) {
      const auto& svc = engine.discovered().back();
      shared_->report->timeline.push_back(DiscoveryEvent{
          svc.object_id, svc.level, svc.variant_tag,
          net_->node_free_at(node_id())});
      if (tr) {
        tr->instant(net_->now(), node_id(), "discovered", "phase",
                    static_cast<std::uint64_t>(svc.level), 0, svc.object_id);
      }
    }
    apply(handled.effects);
    if (tr) tr->end(net_->node_free_at(node_id()), node_id());
  }

  [[nodiscard]] const RoundDriver& driver() const { return driver_; }
  SubjectEngine& engine() { return driver_.engine(); }
  [[nodiscard]] const SubjectEngine& engine() const { return driver_.engine(); }

 private:
  void apply(RoundDriver::Effects effects) {
    obs::Tracer* const tr = shared_->tracer;
    for (const RoundDriver::Effect& e : effects) {
      switch (e.kind) {
        case RoundDriver::Effect::Kind::kBroadcast:
        case RoundDriver::Effect::Kind::kSend: {
          const bool bcast = e.kind == RoundDriver::Effect::Kind::kBroadcast;
          const char* type = msg_type_name(wire_type(e.wire));
          if (tr) {
            tr->instant(net_->now(), node_id(), std::string("tx.") + type,
                        "net", e.wire.size(), bcast ? group_idx_ : 0);
          }
          Bytes wire(e.wire.begin(), e.wire.end());
          const auto sent =
              bcast ? net_->broadcast(node_id(), std::move(wire))
                    : net_->unicast(node_id(), objects_[e.slot],
                                    std::move(wire));
          // A broadcast with no receivers loses nothing; count it delivered.
          shared_->tally(type, e.wire.size(),
                         sent.delivered || (bcast && sent.drops == 0));
          break;
        }
        case RoundDriver::Effect::Kind::kArm:
          timers_[e.slot] = net_->sim().schedule_timer_at(
              net_->now() + e.delay_ms,
              [this, timer = e.slot] { apply(driver_.on_timer(timer)); });
          break;
        case RoundDriver::Effect::Kind::kCancel:
          net_->sim().cancel_timer(timers_[e.slot]);
          break;
      }
    }
  }

  RoundDriver driver_;
  Shared* shared_;
  std::vector<net::NodeId> objects_;  // slot -> node id
  std::vector<net::TimerId> timers_;  // driver timer id -> Simulator timer
  std::size_t group_idx_ = 0;
};

/// The flooding adversary: a network node that sprays the object fleet
/// with protocol-shaped traffic at a fixed rate (round-robin across the
/// targets so every object feels the load). It ignores every reply — a
/// flooder never completes a handshake; the point is to burn the victims'
/// admission budget and queue slots, not to talk to them.
class FlooderNode final : public net::SimNode {
 public:
  FlooderNode(const FloodSpec& spec, std::vector<net::NodeId> targets,
              Shared* shared)
      : spec_(spec),
        targets_(std::move(targets)),
        shared_(shared),
        rng_(crypto::make_rng(spec.seed, "flooder")) {}

  void start() {
    if (!spec_.armed() || targets_.empty()) return;
    start_ms_ = spec_.start_ms;
    net_->sim().schedule_at(start_ms_, [this] { tick(); });
  }

  void on_message(net::NodeId, const Bytes&) override {}  // replies ignored

  [[nodiscard]] std::uint64_t sent() const { return sent_; }

 private:
  void tick() {
    const double now = net_->now();
    if (spec_.duration_ms >= 0 && now >= start_ms_ + spec_.duration_ms) return;
    Bytes payload = make_payload();
    const net::NodeId target = targets_[next_target_++ % targets_.size()];
    const std::size_t size = payload.size();
    if (obs::Tracer* const tr = shared_->tracer) {
      tr->instant(now, node_id(), "tx.FLOOD", "attack", size, target);
    }
    const auto out = net_->unicast(node_id(), target, std::move(payload));
    shared_->tally("FLOOD", size, out.delivered);
    ++sent_;
    net_->sim().schedule(1000.0 / spec_.rate_per_s, [this] { tick(); });
  }

  Bytes make_payload() {
    switch (spec_.kind) {
      case FloodSpec::Kind::kQue1Storm:
        // Fresh nonce each tick: every one reads as a brand-new exchange.
        return encode(Message{Que1{rng_.generate(kNonceSize)}});
      case FloodSpec::Kind::kGarbageQue2: {
        Bytes junk = rng_.generate(64 + (rng_.generate(1)[0] % 128));
        junk[0] = static_cast<std::uint8_t>(MsgType::kQue2);
        return junk;
      }
      case FloodSpec::Kind::kReplay:
        return spec_.replay_wire;
    }
    return {};
  }

  FloodSpec spec_;
  std::vector<net::NodeId> targets_;
  Shared* shared_;
  crypto::HmacDrbg rng_;
  double start_ms_ = 0;
  std::size_t next_target_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace

ObjectEngineConfig object_engine_config(const DiscoveryScenario& scenario,
                                        std::size_t i) {
  ObjectEngineConfig cfg;
  cfg.version = scenario.version;
  cfg.creds = scenario.objects[i].creds;
  cfg.admin_pub = scenario.admin_pub;
  cfg.strength = scenario.strength;
  cfg.seed = scenario.seed + 1000 + i;
  cfg.compute = scenario.object_compute;
  cfg.pad_res2 = scenario.pad_res2;
  cfg.equalize_timing = scenario.equalize_timing;
  cfg.admission = scenario.admission;
  cfg.replay_window = scenario.replay_window;
  cfg.metrics = scenario.metrics;
  return cfg;
}

SubjectEngineConfig subject_engine_config(const DiscoveryScenario& scenario) {
  SubjectEngineConfig cfg;
  cfg.version = scenario.version;
  cfg.creds = scenario.subject;
  cfg.admin_pub = scenario.admin_pub;
  cfg.strength = scenario.strength;
  cfg.seed = scenario.seed;
  cfg.compute = scenario.subject_compute;
  cfg.seek_level3 = scenario.seek_level3;
  cfg.metrics = scenario.metrics;
  return cfg;
}

std::size_t DiscoveryReport::count_level(int level) const {
  return static_cast<std::size_t>(
      std::count_if(services.begin(), services.end(),
                    [&](const DiscoveredService& s) { return s.level == level; }));
}

/// Everything run_discovery used to hold on its stack, kept alive so the
/// testbed can reach between rounds. Construction order (and therefore
/// every node id, tracer event, and DRBG draw) is exactly the historical
/// run_discovery sequence — golden digests depend on it.
struct DiscoveryTestbed::Impl {
  DiscoveryScenario scenario;
  net::Simulator sim;
  net::Network net;
  DiscoveryReport report;
  // Run-local counters (fault.*, and net.msg.* written from the traffic
  // ledger in finalize); a user-supplied registry receives a copy at the
  // end so cross-run accumulation never skews this report.
  obs::MetricsRegistry local_metrics;
  Shared shared;
  std::optional<SubjectNode> subject;  // optional: nodes must never move
  std::vector<std::unique_ptr<ObjectNode>> objects;
  std::vector<net::NodeId> object_ids;
  std::optional<FlooderNode> flooder;
  bool flooded = false;
  bool faulted = false;
  bool retries = false;
  std::optional<fault::ChaosScheduler> chaos;
  /// Per-object sealed snapshot captured at crash time; consulted by the
  /// reboot hook under RebootPolicy::kFromSnapshot.
  std::vector<Bytes> crash_snapshots;
  std::size_t rounds = 1;

  explicit Impl(const DiscoveryScenario& s)
      : scenario(s),
        net(sim, scenario.radio, scenario.seed),
        shared{&report, scenario.epoch, scenario.tracer, &local_metrics, {}} {
    sim.set_tracer(scenario.tracer);
    net.set_tracer(scenario.tracer);
    net.set_metrics(scenario.metrics);

    SubjectEngineConfig scfg = subject_engine_config(scenario);

    // Retries default to kAuto: armed only when the radio can actually
    // lose or duplicate frames, a fault plan is live, or a flooder is
    // spraying (shed traffic needs the backoff driver — and the round
    // deadline — to recover), so a lossless fault-free run never
    // schedules a timer and its event sequence (and therefore every
    // derived number) is unchanged.
    faulted = scenario.faults.armed();
    flooded = scenario.flood.armed();
    const bool lossy =
        scenario.radio.drop_prob > 0.0 || scenario.radio.dup_prob > 0.0;
    retries = scenario.retry.mode == RetryMode::kOn ||
              (scenario.retry.mode == RetryMode::kAuto &&
               (lossy || faulted || flooded));
    RetryPolicy policy = scenario.retry;
    policy.mode = retries ? RetryMode::kOn : RetryMode::kOff;
    subject.emplace(std::move(scfg), scenario.objects.size(), policy,
                    &shared);
    net.add_node(&*subject, 0);
    if (scenario.tracer) {
      scenario.tracer->instant(sim.now(), subject->node_id(), "node", "meta",
                               0, 0, scenario.subject.id);
    }

    objects.reserve(scenario.objects.size());
    object_ids.reserve(scenario.objects.size());
    for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
      objects.push_back(std::make_unique<ObjectNode>(
          object_engine_config(scenario, i), &shared));
      const net::NodeId id = net.add_node(
          objects.back().get(), std::max(1u, scenario.objects[i].hops));
      object_ids.push_back(id);
      subject->add_object(id);
      if (scenario.tracer) {
        scenario.tracer->instant(
            sim.now(), id, "node", "meta",
            static_cast<std::uint64_t>(scenario.objects[i].creds.level),
            scenario.objects[i].hops, scenario.objects[i].creds.id);
      }
    }
    crash_snapshots.resize(scenario.objects.size());

    // Flooding adversary: one extra node spraying the object fleet.
    // Unarmed specs add no node and schedule nothing.
    if (flooded) {
      flooder.emplace(scenario.flood, object_ids, &shared);
      const net::NodeId fid =
          net.add_node(&*flooder, std::max(1u, scenario.flood.hops));
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), fid, "node", "meta", 0,
                                 scenario.flood.hops, "flooder");
      }
      flooder->start();
    }

    // Chaos layer: translate the plan's timeline into node/engine faults.
    // An unarmed plan schedules nothing (arm() below is skipped), so this
    // block adds zero events to fault-free runs.
    fault::ChaosHooks hooks;
    hooks.crash = [this](std::size_t i) {
      net.set_node_up(object_ids[i], false);
      shared.metrics->counter("fault.crash").inc();
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), object_ids[i], "fault.crash",
                                 "fault");
      }
      if (scenario.faults.reboot_policy ==
          fault::RebootPolicy::kFromSnapshot) {
        // Capture the sealed engine state the reboot will restore from.
        // Only under the snapshot policy: blank-reboot runs take neither
        // the counter nor the trace event, keeping their bytes intact.
        crash_snapshots[i] = objects[i]->engine().snapshot();
        shared.metrics->counter("persist.snapshot").inc();
        if (scenario.tracer) {
          scenario.tracer->instant(sim.now(), object_ids[i],
                                   "persist.snapshot", "persist",
                                   crash_snapshots[i].size());
        }
      }
    };
    hooks.reboot = [this](std::size_t i) {
      objects[i]->restart_engine();  // empty session table, fresh DRBG
      if (scenario.faults.reboot_policy ==
          fault::RebootPolicy::kFromSnapshot) {
        // Strict restore: any integrity/identity failure leaves the
        // engine blank — exactly the historical reboot — and is traced,
        // never thrown.
        const persist::RestoreError err =
            crash_snapshots[i].empty()
                ? persist::RestoreError::kIoError
                : objects[i]->engine().restore(crash_snapshots[i]);
        if (err == persist::RestoreError::kOk) {
          shared.metrics->counter("persist.restore").inc();
          if (scenario.tracer) {
            scenario.tracer->instant(sim.now(), object_ids[i],
                                     "persist.restore", "persist",
                                     crash_snapshots[i].size());
          }
        } else {
          shared.metrics->counter("persist.restore_failed").inc();
          if (scenario.tracer) {
            scenario.tracer->instant(
                sim.now(), object_ids[i], "persist.restore_failed",
                "persist", static_cast<std::uint64_t>(err), 0,
                persist::restore_error_name(err));
          }
        }
        crash_snapshots[i].clear();
      }
      net.set_node_up(object_ids[i], true);
      shared.metrics->counter("fault.reboot").inc();
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), object_ids[i], "fault.reboot",
                                 "fault");
      }
    };
    hooks.straggle_begin = [this](std::size_t i, double factor) {
      net.set_compute_factor(object_ids[i], factor);
      shared.metrics->counter("fault.straggle").inc();
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), object_ids[i],
                                 "fault.straggle.begin", "fault",
                                 static_cast<std::uint64_t>(factor));
      }
    };
    hooks.straggle_end = [this](std::size_t i) {
      net.set_compute_factor(object_ids[i], 1.0);
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), object_ids[i],
                                 "fault.straggle.end", "fault");
      }
    };
    hooks.zombie = [this](std::size_t i) {
      objects[i]->make_zombie();
      shared.metrics->counter("fault.zombie").inc();
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), object_ids[i], "fault.zombie",
                                 "fault");
      }
    };
    hooks.byzantine = [this](std::size_t i, fault::ByzantineMode mode,
                             std::uint64_t seed) {
      objects[i]->arm_byzantine(mode, seed);
      shared.metrics->counter("fault.byzantine").inc();
      if (scenario.tracer) {
        scenario.tracer->instant(sim.now(), object_ids[i], "fault.byzantine",
                                 "fault", static_cast<std::uint64_t>(mode));
      }
    };
    chaos.emplace(sim, std::move(hooks));
    if (faulted) chaos->arm(scenario.faults, scenario.objects.size());

    rounds = std::min<std::size_t>(std::max<std::size_t>(1, scenario.rounds),
                                   subject->engine().group_key_count());
  }

  void run_round(std::size_t group_idx) {
    const std::size_t idx = group_idx % subject->engine().group_key_count();
    sim.schedule(0, [this, idx] { subject->begin_round(idx); });
    if (retries || flooded) {
      // Bounded round: the deadline guarantees termination even if every
      // retransmission is lost (or a flooder's tick chain never ends);
      // pending (cancelled) retry timers past the deadline are discarded
      // by finish_round below.
      sim.drain_until(subject->driver().deadline_after(sim.now()));
    } else {
      sim.run();
    }
    subject->finish_round();
  }

  Bytes fleet_bundle() const {
    persist::BundleEntries entries;
    entries.emplace_back("subject", subject->engine().snapshot());
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const std::string& id = scenario.objects[i].creds.id;
      entries.emplace_back(persist::object_section(id),
                           objects[i]->engine().snapshot());
    }
    return persist::seal_bundle(entries);
  }

  DiscoveryReport finalize();
};

DiscoveryReport DiscoveryTestbed::Impl::finalize() {
  report.services = subject->engine().discovered();
  // Traffic accounting: totals, the per-type split and the net.msg.*
  // counters all derive from the one ledger, so they cannot disagree
  // (hop_bytes and channel occupancy remain radio-model quantities). A
  // delivered counter exists only if a copy of that type was delivered.
  report.net_stats = net.stats();
  report.net_stats.messages = 0;
  report.net_stats.bytes = 0;
  for (const auto& [type, t] : shared.traffic) {
    const std::string name(type);
    report.offered_messages += t.offered_count;
    report.offered_bytes += t.offered_bytes;
    local_metrics.counter("net.msg.offered.count." + name).inc(t.offered_count);
    local_metrics.counter("net.msg.offered.bytes." + name).inc(t.offered_bytes);
    if (t.count == 0) continue;
    report.net_stats.messages += t.count;
    report.net_stats.bytes += t.bytes;
    report.bytes_by_msg[name] = t.bytes;
    local_metrics.counter("net.msg.count." + name).inc(t.count);
    local_metrics.counter("net.msg.bytes." + name).inc(t.bytes);
  }
  if (scenario.metrics != nullptr) {
    for (const auto& [name, counter] : local_metrics.counters()) {
      scenario.metrics->counter(name).inc(counter.value());
    }
  }

  // Receiver-side delivery ratio: copies the radio let through over copies
  // it was asked to carry. 1.0 on a clean channel (or an empty run).
  const std::uint64_t attempted =
      report.net_stats.deliveries + report.net_stats.dropped;
  report.delivery_ratio =
      attempted == 0 ? 1.0
                     : static_cast<double>(report.net_stats.deliveries) /
                           static_cast<double>(attempted);

  // Chaos accounting for the report (stripped "fault." prefix).
  constexpr std::string_view kFaultPrefix = "fault.";
  for (const auto& [name, counter] : local_metrics.counters()) {
    if (name.starts_with(kFaultPrefix)) {
      report.fault_counts[name.substr(kFaultPrefix.size())] = counter.value();
    }
  }

  // Overload accounting: admission sheds summed over the object fleet
  // (zero, and untouched, unless admission control was enabled).
  for (const auto& obj : objects) {
    report.shed_overload += obj->engine().stats().shed_overload;
    report.rate_limited += obj->engine().stats().rate_limited;
  }

  // Graceful degradation: one verdict per scenario object, in input order.
  // "Discovered" means any variant of the object landed in any round; the
  // retransmit count is the cumulative timer-driven QUE2 resends to it.
  // Failure reasons are attributed only in faulted runs — fault-free
  // reports stay byte-identical to pre-fault builds.
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    ObjectOutcome out;
    out.object_id = scenario.objects[i].creds.id;
    for (const auto& svc : report.services) {
      if (svc.object_id == out.object_id) {
        out.discovered = true;
        break;
      }
    }
    const RoundDriver::Exchange& ex = subject->driver().exchange(i);
    out.que2_retransmits = ex.retransmits;
    out.rejects = ex.rejects;
    const bool timed_out = ex.phase == RoundDriver::Phase::kTimedOut;
    if ((faulted || flooded) && !out.discovered) {
      using fault::FaultKind;
      // Byzantine corruption can surface on either side: the subject
      // rejects the corrupted reply outright, or it accepts bytes whose
      // damage only breaks the handshake transcript — in which case the
      // *object* rejects every follow-up QUE2 bound to the corrupted
      // echo. Both count as detection.
      const bool rejected_by_peer = objects[i]->engine().stats().rejects > 0;
      const auto& ostats = objects[i]->engine().stats();
      if (chaos->ever(i, FaultKind::kCrash)) {
        out.reason = FailReason::kCrashed;
      } else if (chaos->ever(i, FaultKind::kByzantine) &&
                 (out.rejects > 0 || rejected_by_peer)) {
        out.reason = FailReason::kByzantineDetected;
      } else if (out.rejects > 0) {
        out.reason = FailReason::kRejectedMalformed;
      } else if (ostats.shed_overload + ostats.rate_limited > 0) {
        // The object was actively shedding; the subject's traffic was
        // (at least partly) load it refused, not loss.
        out.reason = FailReason::kOverloaded;
      } else if (timed_out || chaos->ever(i, FaultKind::kZombie)) {
        out.reason = FailReason::kTimedOut;
      } else {
        out.reason = FailReason::kSilent;
      }
    }
    report.outcomes.push_back(std::move(out));
  }

  for (const auto& ev : report.timeline) {
    report.total_ms = std::max(report.total_ms, ev.at_ms);
  }
  if (report.timeline.empty()) {
    // Nothing discovered (silent-by-policy fleet or total loss): report how
    // long the run actually took instead of a misleading zero.
    report.total_ms = sim.now();
  }

  // Optional state dump, strictly after the report is built: snapshots
  // read engine state without mutating it and tally nothing, so runs
  // with and without a snapshot_path stay byte-identical.
  if (!scenario.snapshot_path.empty()) {
    (void)persist::write_snapshot_file(scenario.snapshot_path, fleet_bundle());
  }
  return report;
}

DiscoveryTestbed::DiscoveryTestbed(const DiscoveryScenario& scenario)
    : impl_(std::make_unique<Impl>(scenario)) {}
DiscoveryTestbed::~DiscoveryTestbed() = default;
DiscoveryTestbed::DiscoveryTestbed(DiscoveryTestbed&&) noexcept = default;
DiscoveryTestbed& DiscoveryTestbed::operator=(DiscoveryTestbed&&) noexcept =
    default;

std::size_t DiscoveryTestbed::planned_rounds() const { return impl_->rounds; }

void DiscoveryTestbed::run_round(std::size_t group_idx) {
  impl_->run_round(group_idx);
}

DiscoveryReport DiscoveryTestbed::finalize() { return impl_->finalize(); }

double DiscoveryTestbed::now() const { return impl_->sim.now(); }

std::size_t DiscoveryTestbed::object_count() const {
  return impl_->objects.size();
}

DiscoveryTestbed::FleetGauges DiscoveryTestbed::gauges() const {
  FleetGauges g;
  for (const auto& obj : impl_->objects) {
    const ObjectEngine& e = obj->engine();
    g.object_sessions += e.open_sessions();
    g.object_cached_replies += e.cached_replies();
    g.object_resume_entries += e.resume_entries();
    g.object_replay_entries += e.replay_entries();
    g.object_peer_buckets += e.peer_bucket_count();
    g.object_verified_entries += e.verified_cache().size();
  }
  const SubjectEngine& s = impl_->subject->engine();
  g.subject_sessions = s.open_sessions();
  g.subject_resume_entries = s.resume_entries();
  g.subject_verified_entries = s.verified_cache().size();
  g.timeline_events = impl_->report.timeline.size();
  g.sim_pending = impl_->sim.pending();
  g.metrics_counters = impl_->local_metrics.counters().size();
  g.metrics_histograms = impl_->local_metrics.histograms().size();
  if (impl_->scenario.metrics != nullptr) {
    g.metrics_counters += impl_->scenario.metrics->counters().size();
    g.metrics_histograms += impl_->scenario.metrics->histograms().size();
  }
  return g;
}

Bytes DiscoveryTestbed::snapshot_object(std::size_t index) const {
  return impl_->objects.at(index)->engine().snapshot();
}

persist::RestoreError DiscoveryTestbed::restore_object(std::size_t index,
                                                       ByteSpan sealed) {
  return impl_->objects.at(index)->engine().restore(sealed);
}

Bytes DiscoveryTestbed::snapshot_subject() const {
  return impl_->subject->engine().snapshot();
}

persist::RestoreError DiscoveryTestbed::restore_subject(ByteSpan sealed) {
  return impl_->subject->engine().restore(sealed);
}

Bytes DiscoveryTestbed::fleet_bundle() const { return impl_->fleet_bundle(); }

void DiscoveryTestbed::rearm_faults(const fault::FaultPlan& plan) {
  if (!plan.armed()) return;
  impl_->faulted = true;
  impl_->chaos->arm(plan, impl_->objects.size(), impl_->sim.now());
}

void DiscoveryTestbed::reset_window() {
  impl_->report.timeline.clear();
  impl_->report.timeline.shrink_to_fit();
}

DiscoveryReport run_discovery(const DiscoveryScenario& scenario) {
  DiscoveryTestbed testbed(scenario);
  const std::size_t rounds = testbed.planned_rounds();
  for (std::size_t round = 0; round < rounds; ++round) {
    testbed.run_round(round);
  }
  return testbed.finalize();
}

}  // namespace argus::core
