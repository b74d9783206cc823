// Discovery driver: runs the 3-in-1 protocol over the simulated ground
// network and reports the timing/series the paper's Fig 6(e)-(h) plot.
//
// Two entry points share one implementation: run_discovery() runs a
// scenario start-to-finish (the historical API, byte-identical), and
// DiscoveryTestbed keeps the simulated fleet alive between rounds so
// long-horizon drivers (the soak harness, persistence tools) can
// interleave rounds with snapshot/restore cycles, re-armed fault plans,
// and state-size probes.
#pragma once

#include <map>
#include <memory>

#include "argus/object_engine.hpp"
#include "argus/round_driver.hpp"
#include "fault/plan.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/snapshot.hpp"

namespace argus::core {

struct ScenarioObject {
  backend::ObjectCredentials creds;
  unsigned hops = 1;  // distance from the subject (paper: 1..4)
};

/// Flooding adversary riding along with a discovery run: a node that
/// sprays the object fleet with protocol-shaped traffic at a fixed rate,
/// modeling the QUE1-storm / garbage-QUE2 attacks admission control and
/// bounded queues exist to absorb. rate_per_s == 0 (the default) arms
/// nothing — no flooder node is added and the run is byte-identical to a
/// flood-free build.
struct FloodSpec {
  enum class Kind : std::uint8_t {
    /// Fresh random-nonce QUE1 every tick: each one would cost the object
    /// an ECDH generate + ECDSA sign — the expensive path (§IV-B storm).
    kQue1Storm = 0,
    /// Random bytes with a QUE2 type tag: cheap-reject fodder that tests
    /// the cheap-check-first pipeline (decode/session lookup, no crypto).
    kGarbageQue2 = 1,
    /// A captured wire blob replayed verbatim (see attacks/adversary.hpp).
    kReplay = 2,
  };
  double rate_per_s = 0;  // messages per second; 0 disarms the flooder
  Kind kind = Kind::kQue1Storm;
  double start_ms = 0;       // first tick
  double duration_ms = -1;   // < 0: flood for the whole run
  unsigned hops = 1;         // flooder's distance from the subject
  Bytes replay_wire;         // payload for kReplay
  std::uint64_t seed = 99;   // DRBG stream for nonces/garbage
  [[nodiscard]] bool armed() const { return rate_per_s > 0; }
};

struct DiscoveryScenario {
  ProtocolVersion version = ProtocolVersion::kV30;
  crypto::Strength strength = crypto::Strength::b128;
  net::RadioParams radio{};
  net::ComputeModel subject_compute = net::ComputeModel::nexus6();
  net::ComputeModel object_compute = net::ComputeModel::pi3();
  backend::SubjectCredentials subject;
  crypto::EcPoint admin_pub;
  std::vector<ScenarioObject> objects;
  /// Number of group keys to cycle through (multi-sensitive-attribute
  /// discovery, §VI-C). Clamped to the subject's key count.
  std::size_t rounds = 1;
  /// Loss recovery (see RetryPolicy). The kAuto default keeps lossless
  /// runs byte-identical to the no-retry driver: no timers are armed.
  /// An armed fault plan also arms retries under kAuto — a round facing
  /// churn needs its deadline to terminate.
  RetryPolicy retry{};
  /// Node-fault injection (crash/reboot, stragglers, zombies, Byzantine
  /// peers — see fault/plan.hpp). The default plan is unarmed, in which
  /// case no chaos timers are scheduled and the run is byte-identical to
  /// a fault-free build.
  fault::FaultPlan faults{};
  /// Flooding adversary (see FloodSpec). Unarmed by default: no node is
  /// added and no timers fire. An armed flood also arms retries under
  /// RetryMode::kAuto — shed traffic needs the backoff driver to recover.
  FloodSpec flood{};
  /// Object-side admission control, copied into every object's engine
  /// config. Off by default (bit-identical runs).
  AdmissionParams admission{};
  /// Per-object replay-window bound (seen-R_S nonces, LRU-evicted),
  /// copied into every object's engine config. The default matches the
  /// engine's — far above one round's traffic, so runs are byte-identical
  /// unless a long-horizon driver (the soak) tightens it to a bound its
  /// round count can actually fill.
  std::size_t replay_window = ObjectEngineConfig{}.replay_window;
  std::uint64_t seed = 1;
  std::uint64_t epoch = 1'000'000;  // wall-clock for cert validity
  bool pad_res2 = true;
  bool equalize_timing = true;
  bool seek_level3 = true;  // v2.0 subject intent

  /// When non-empty, the run's final engine states are written here as a
  /// sealed fleet bundle (persist/snapshot.hpp) after the report is
  /// built. Pure output: the write touches no trace or metrics, so runs
  /// stay byte-identical whether or not a path is set.
  std::string snapshot_path;

  /// Observability sinks, both optional and non-owning. The tracer
  /// records the full event timeline (node metadata, tx/rx, per-message
  /// handling spans with reply levels — the schema obs/audit.hpp checks).
  /// The registry accumulates across runs: per-message-type counts/bytes,
  /// per-hop latency, per-node busy time, per-crypto-op cost. Leaving
  /// both null costs one pointer test per instrumentation site.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct DiscoveryEvent {
  std::string object_id;
  int level = 0;
  std::string variant_tag;
  double at_ms = 0;  // virtual time the subject completed this discovery
};

/// Why an object ended undiscovered in a faulted run. kNone means either
/// discovered, or the run had no fault plan (fault-free reports never
/// attribute failures, keeping their bytes identical to pre-fault builds).
enum class FailReason : std::uint8_t {
  kNone = 0,
  kCrashed,            // the chaos plan crashed this node
  kTimedOut,           // exchange exhausted its budget / round deadline
  kRejectedMalformed,  // subject rejected this peer's bytes (see rejects)
  kByzantineDetected,  // plan-Byzantine peer whose corruption was caught
  kOverloaded,         // object shed the subject's traffic (admission/flood)
  kSilent,             // no fault scheduled, nothing rejected: policy silence
};

inline const char* fail_reason_name(FailReason r) {
  switch (r) {
    case FailReason::kNone:
      return "none";
    case FailReason::kCrashed:
      return "crashed";
    case FailReason::kTimedOut:
      return "timed_out";
    case FailReason::kRejectedMalformed:
      return "rejected_malformed";
    case FailReason::kByzantineDetected:
      return "byzantine_detected";
    case FailReason::kOverloaded:
      return "overloaded";
    case FailReason::kSilent:
      return "silent";
  }
  return "?";
}

/// Graceful-degradation verdict for one scenario object: either the
/// subject discovered at least one of its variants (in any round), or the
/// exchange explicitly ran out of retry budget / round deadline. Objects
/// that are silent by policy (no authorized variant) also read as
/// undiscovered — the subject cannot tell policy silence from loss.
struct ObjectOutcome {
  std::string object_id;
  bool discovered = false;
  unsigned que2_retransmits = 0;  // timer-driven QUE2 resends to this object
  unsigned rejects = 0;  // subject-side rejections of this peer's bytes
  FailReason reason = FailReason::kNone;  // faulted runs only
};

struct DiscoveryReport {
  /// Completion time of the last discovery; if nothing was discovered,
  /// the final virtual time of the run (never a misleading zero).
  double total_ms = 0;
  std::vector<DiscoveredService> services;
  std::vector<DiscoveryEvent> timeline;
  /// Traffic accounting. `messages`/`bytes` and `bytes_by_msg` are both
  /// derived from the run's per-type traffic ledger (which also writes
  /// the counters net.msg.{count,bytes}.<TYPE>), so the totals and the
  /// per-type split can never disagree; `hop_bytes`/`channel_busy_ms`
  /// come from the radio model, which nodes cannot observe.
  net::Network::Stats net_stats;
  double subject_compute_ms = 0;
  double object_compute_ms = 0;
  std::map<std::string, std::uint64_t> bytes_by_msg;  // per message type

  /// Loss accounting. `messages`/`bytes` above count protocol traffic that
  /// was actually delivered; `offered_*` count every send attempt
  /// (the same ledger; counters net.msg.offered.*), so under loss
  /// offered >= delivered. delivery_ratio is receiver-side:
  /// deliveries / (deliveries + dropped), 1.0 on a clean channel.
  std::uint64_t offered_messages = 0;
  std::uint64_t offered_bytes = 0;
  double delivery_ratio = 1.0;
  std::uint64_t que1_retransmits = 0;  // timer-driven QUE1 re-broadcasts
  std::uint64_t que2_retransmits = 0;  // timer-driven QUE2 resends (total)
  std::vector<ObjectOutcome> outcomes;  // one per scenario object, in order

  /// Chaos accounting: fault.<kind> counters from the run-local registry
  /// (crash/reboot/straggle/zombie/byzantine firings, zombie-suppressed
  /// replies). Empty when no plan was armed.
  std::map<std::string, std::uint64_t> fault_counts;

  /// Overload accounting, summed over the object fleet's engines. Zero
  /// unless admission control was enabled (bounded-queue sheds live in
  /// net_stats.queue_rejected / queue_evicted).
  std::uint64_t shed_overload = 0;
  std::uint64_t rate_limited = 0;

  [[nodiscard]] std::size_t count_level(int level) const;
};

/// Engine config of the scenario's object `i` and of its subject, as
/// every fleet of the scenario builds them: the simulator testbed, the
/// daemon tools and their benches. Callers set tool-only fields (metrics
/// sinks, resumption and admission switches) after the call.
ObjectEngineConfig object_engine_config(const DiscoveryScenario& scenario,
                                        std::size_t i);
SubjectEngineConfig subject_engine_config(const DiscoveryScenario& scenario);

/// Run one full discovery (possibly multi-round) to completion.
DiscoveryReport run_discovery(const DiscoveryScenario& scenario);

/// A live discovery fleet: the simulator, radio, subject, object nodes,
/// flooder, and chaos layer of one scenario, kept constructed across
/// rounds. run_discovery is a thin wrapper (construct, run every planned
/// round, finalize) — the testbed exists for drivers that need to reach
/// between rounds: snapshot/restore an engine, re-arm a fault plan,
/// sample state-table sizes, or run far more rounds than the scenario's
/// group keys would plan.
class DiscoveryTestbed {
 public:
  explicit DiscoveryTestbed(const DiscoveryScenario& scenario);
  ~DiscoveryTestbed();
  DiscoveryTestbed(DiscoveryTestbed&&) noexcept;
  DiscoveryTestbed& operator=(DiscoveryTestbed&&) noexcept;
  DiscoveryTestbed(const DiscoveryTestbed&) = delete;
  DiscoveryTestbed& operator=(const DiscoveryTestbed&) = delete;

  /// Rounds run_discovery would run: scenario.rounds clamped to the
  /// subject's group-key count, at least 1.
  [[nodiscard]] std::size_t planned_rounds() const;

  /// Run one discovery round with the given group key (modulo the key
  /// count) to completion or the round deadline.
  void run_round(std::size_t group_idx);

  /// Build the scenario report from everything run so far, copy counters
  /// into the scenario's registry, and (if snapshot_path is set) write
  /// the fleet bundle. Call at most once; the testbed is spent after.
  DiscoveryReport finalize();

  [[nodiscard]] double now() const;
  [[nodiscard]] std::size_t object_count() const;

  /// State-table sizes the soak harness watches for monotonic growth.
  /// Metric cardinality counts distinct series names (local run registry
  /// plus the scenario's, if any), not their values.
  struct FleetGauges {
    std::size_t object_sessions = 0;        // summed over the fleet
    std::size_t object_cached_replies = 0;
    std::size_t object_resume_entries = 0;
    std::size_t object_replay_entries = 0;
    std::size_t object_peer_buckets = 0;
    std::size_t subject_sessions = 0;
    std::size_t subject_resume_entries = 0;
    // Verified-credential cache entries; outside engine_state_total.
    std::size_t object_verified_entries = 0;
    std::size_t subject_verified_entries = 0;
    std::size_t timeline_events = 0;  // report timeline (reset_window clears)
    std::size_t sim_pending = 0;      // live simulator events/timers
    std::size_t metrics_counters = 0;
    std::size_t metrics_histograms = 0;
    [[nodiscard]] std::size_t engine_state_total() const {
      return object_sessions + object_cached_replies + object_resume_entries +
             object_replay_entries + object_peer_buckets + subject_sessions +
             subject_resume_entries;
    }
  };
  [[nodiscard]] FleetGauges gauges() const;

  // --- persistence probes -------------------------------------------------
  [[nodiscard]] Bytes snapshot_object(std::size_t index) const;
  persist::RestoreError restore_object(std::size_t index, ByteSpan sealed);
  [[nodiscard]] Bytes snapshot_subject() const;
  persist::RestoreError restore_subject(ByteSpan sealed);
  /// All engines as a named sealed bundle ("subject", "object:<id>").
  [[nodiscard]] Bytes fleet_bundle() const;

  // --- long-horizon controls ----------------------------------------------
  /// Schedule another expanded plan, onsets relative to the current
  /// virtual time (see ChaosScheduler::arm base_ms).
  void rearm_faults(const fault::FaultPlan& plan);
  /// Drop accumulated per-round report artifacts (the discovery
  /// timeline) so a thousand-round soak does not read its own report
  /// growth as a leak. Engine/network state is untouched.
  void reset_window();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace argus::core
