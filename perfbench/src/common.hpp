// Shared types of the benchmark driver: run options, what one run
// measured, the correctness oracle, the defaults guard and the profiler
// rollup. Workloads live in sim_workload.cpp (campus_l1, rediscover_l3)
// and daemon_workload.cpp (daemon_loss10).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "argus/subject_engine.hpp"
#include "backend/registry.hpp"
#include "obs/prof.hpp"

namespace perfbench {

using namespace argus;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t workers = 0;  // 0 = min(hardware threads, 4)
  /// Run exactly this many closed-loop rounds per subject instead of
  /// `seconds` (determinism checks); 0 = time-bounded.
  std::size_t fixed_rounds = 0;
  /// Self-test only: the oracle expects a wrong variant tag for one
  /// object, so a correct program must be reported as wrong.
  bool corrupt_expectation = false;
};

/// Worker threads a run may use: at most the core count and at most 4.
std::size_t pool_workers(const Options& opts);

using Layer = std::map<std::string, double>;

/// What one run measured. End-to-end fields come from phases with no
/// profiler attached; `layer` is filled only by traced runs.
struct RunResult {
  std::vector<double> setup_s;   // one entry per repeated set-up
  double timed_s = 0;            // wall clock of the measured phase
  std::uint64_t handshakes = 0;  // verified discoveries, measured phase
  std::uint64_t attempted = 0;   // expected discoveries, measured phase
  std::uint64_t failed = 0;      // expected but not correctly resolved
  std::uint64_t wrong = 0;       // wrong, extra or missing services
  /// Duration of each subject round: modelled time in the simulator,
  /// wall time on the daemon path.
  std::vector<double> round_ms;
  double wire_bytes_per_handshake = 0;  // offered bytes per handshake
  /// VmHWM once the fleet is built and has run its warm-up round. Later
  /// rounds add replay-window entries at a rate set by throughput, so a
  /// reading at exit would charge a faster program for more rounds.
  double peak_rss_mb = 0;
  double virtual_round_ms = 0;   // simulator only: mean modelled round
  std::string digest;            // simulator only: canonical run digest
  /// Policy fields of the configs the run built that differ from the
  /// shipped defaults (defaults.hpp); the self-test requires none.
  std::vector<std::string> overrides;
  Layer layer;
};

RunResult run_campus_l1(const Options& opts);
RunResult run_rediscover_l3(const Options& opts);
RunResult run_daemon_loss10(const Options& opts);

// --- correctness oracle ---------------------------------------------------

/// One discovered service as the oracle compares it.
struct ServiceKey {
  std::string object_id;
  int level = 0;
  std::string variant_tag;
  auto operator<=>(const ServiceKey&) const = default;
};
using ServiceSet = std::set<ServiceKey>;

/// What `subject` must discover from `object` in a round that uses the
/// subject's group key `group_idx`, derived from the registered
/// credentials alone: the covert face for a fellow of one of the
/// object's secret groups, else the first Level-2 variant whose
/// predicate matches the subject's attributes, else the public profile
/// of a Level-1 object. Returns false when the object stays silent.
bool expected_service(const backend::SubjectCredentials& subject,
                      std::size_t group_idx,
                      const backend::ObjectCredentials& object,
                      ServiceKey* out);

ServiceSet to_service_set(const std::vector<core::DiscoveredService>& found);

/// Services in exactly one of the two sets (missing plus extra).
std::size_t service_mismatches(const ServiceSet& expected,
                               const ServiceSet& observed);

// --- statistics and process probes -----------------------------------------

/// num / den, or 0 when the base is empty.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
/// Peak resident set (VmHWM) in MB; 0 where unsupported.
double peak_rss_mb();
double ms_since(std::uint64_t t0_ns);

// --- profiler rollup ------------------------------------------------------

/// Per-lane event buffer cap for traced runs. Aggregates stay exact
/// past the cap; the low cap keeps a long traced run's memory flat.
inline constexpr std::size_t kProfEventsPerLane = 1024;

/// Self milliseconds and call count of every label, summed over lanes.
struct LabelStat {
  double self_ms = 0;
  double incl_ms = 0;
  double count = 0;
};
std::map<std::string, LabelStat> label_stats(const obs::prof::Profiler& prof);

/// Adds the crypto, engine and simulator-dispatch rows (self ms + count)
/// of a measured phase, and the derived per-handshake ratios.
void add_span_layers(const std::map<std::string, LabelStat>& stats,
                     std::uint64_t handshakes, Layer* layer);

/// Adds the set-up rows (provisioning, testbed/host build, fixed-base
/// init, signing) from a profiler that covered `setups` set-ups; times
/// are per set-up.
void add_setup_layers(const std::map<std::string, LabelStat>& stats,
                      std::size_t registrations, std::size_t setups,
                      Layer* layer);

/// Sum of self time over every label (ms).
double total_self_ms(const std::map<std::string, LabelStat>& stats);

}  // namespace perfbench
