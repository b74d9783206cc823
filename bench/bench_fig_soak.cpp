// Persistence soak: thousands of consecutive discovery rounds through one
// live fleet with crash/reboot churn, radio loss, and a garbage flooder
// armed — interleaved with snapshot/restore cycles (every third one
// deliberately corrupted) — asserting zero monotonic growth in session
// tables, caches, queues, metrics cardinality, and RSS.
//
// `--smoke` (the ctest `soak` gate) runs >= 200 rounds with everything
// armed and hard-fails on any bounded-growth violation, any corrupted
// restore that did not fall back blank, or any clean restore that
// errored. The full run soaks 1000 rounds and appends the trajectory
// entry benchdiff gates (BENCH_soak.json).
#include <cstdio>

#include "bench_args.hpp"
#include "harness/soak.hpp"

using namespace argus;

namespace {

harness::SoakSpec soak_spec(std::size_t rounds) {
  harness::SoakSpec spec;
  spec.rounds = rounds;
  spec.objects = 6;
  spec.level = 2;
  spec.seed = 17;
  spec.drop_prob = 0.05;
  spec.crash_rate = 0.2;
  spec.reboot_after_ms = 200.0;
  spec.reboot_policy = fault::RebootPolicy::kFromSnapshot;
  spec.flood_rate_per_s = 50.0;
  spec.snapshot_every = 5;
  spec.corrupt_every = 3;
  spec.sample_every = 10;
  return spec;
}

void print_result(const harness::SoakResult& r) {
  std::printf(
      "rounds=%zu discoveries=%llu crashes=%llu reboots=%llu "
      "restores=%llu restore_failed=%llu\n",
      r.rounds_run, static_cast<unsigned long long>(r.discoveries),
      static_cast<unsigned long long>(r.fault_crashes),
      static_cast<unsigned long long>(r.fault_reboots),
      static_cast<unsigned long long>(r.persist_restores),
      static_cast<unsigned long long>(r.persist_restore_failed));
  std::printf(
      "snapshot cycles: %llu clean (%llu exact), %llu corrupted "
      "(%llu fell back blank)\n",
      static_cast<unsigned long long>(r.snapshot_cycles),
      static_cast<unsigned long long>(r.restore_exact),
      static_cast<unsigned long long>(r.corrupt_cycles),
      static_cast<unsigned long long>(r.corrupt_fell_blank));
  if (!r.samples.empty()) {
    std::printf("%8s %12s %12s %10s %10s %10s\n", "round", "engine_state",
                "sim_pending", "counters", "timeline", "rss_kb");
    // First, quartile, and last samples: enough to eyeball the plateau.
    const std::size_t n = r.samples.size();
    for (const std::size_t i : {std::size_t{0}, n / 4, n / 2, 3 * n / 4,
                                n - 1}) {
      const auto& s = r.samples[i];
      std::printf("%8zu %12zu %12zu %10zu %10zu %10zu\n", s.round,
                  s.gauges.engine_state_total(), s.gauges.sim_pending,
                  s.gauges.metrics_counters, s.gauges.timeline_events,
                  s.rss_kb);
    }
  }
  for (const auto& v : r.violations) {
    std::fprintf(stderr, "soak violation: %s\n", v.c_str());
  }
}

/// The assertions shared by smoke and full runs: churn and persistence
/// actually exercised, fail-closed restores, no growth violations.
int check(const harness::SoakResult& r) {
  int rc = 0;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "soak: %s\n", what);
      rc = 1;
    }
  };
  expect(r.fault_crashes > 0, "churn plan produced no crashes");
  expect(r.fault_reboots > 0, "churn plan produced no reboots");
  expect(r.persist_restores > 0,
         "no reboot resumed from a snapshot (kFromSnapshot armed)");
  expect(r.snapshot_cycles > 0 && r.corrupt_cycles > 0,
         "snapshot/restore interleave never ran");
  // The subject dedupes: a service already in its discovered set adds no
  // timeline event on later rounds, so a healthy soak's total is roughly
  // (objects x authorized variants), re-earned only after blank restores.
  expect(r.discoveries >= 6, "fleet never discovered its own objects");
  expect(r.ok(), "bounded-growth or fail-closed assertions violated");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);

  obs::bench::BenchReporter reporter("soak");
  reporter.set_threads(args.threads);
  reporter.set_repeat(args.repeat);
  // The soak exports only aggregates (add_profile, write_collapsed), which
  // stay exact past the event cap; the default 2^20-event lane buffer
  // would read as RSS growth to the bounded-growth gate.
  obs::prof::Profiler profiler({/*max_events_per_lane=*/1024});

  // The smoke gate runs the ISSUE-mandated floor (200 faulted+flooded
  // rounds); the full bench soaks the paper's thousand. Both report the
  // same metric set, so the CI loop can gate the smoke's trajectory.
  const std::size_t kRounds = args.smoke ? 200 : 1000;
  harness::SoakResult r;
  std::uint64_t wall_ns = 0;
  for (std::uint64_t rep = 0; rep < args.repeat; ++rep) {
    std::optional<obs::prof::Profiler::Attach> attach;
    if (args.wants_profile()) attach.emplace(profiler, 0);
    const std::uint64_t t0 = obs::prof::now_ns();
    harness::SoakResult cur = harness::run_soak(soak_spec(kRounds));
    wall_ns += obs::prof::now_ns() - t0;
    if (rep > 0 && (cur.discoveries != r.discoveries ||
                    cur.fault_crashes != r.fault_crashes ||
                    cur.persist_restores != r.persist_restores)) {
      std::fprintf(stderr, "repeat %llu: soak is not deterministic\n",
                   static_cast<unsigned long long>(rep));
      return 1;
    }
    r = std::move(cur);
  }

  std::printf("Persistence soak — %zu rounds, 6 objects, crash churn + 5%% "
              "loss + garbage flood,\nsnapshot/restore every 5 rounds "
              "(every 3rd cycle corrupted)\n\n", kRounds);
  print_result(r);
  if (const int rc = check(r)) return rc;
  if (args.smoke) {
    std::printf(
        "smoke OK: %zu faulted+flooded rounds, %llu snapshot cycles, all "
        "corrupted restores fell back blank, no gauge grew\n",
        kRounds,
        static_cast<unsigned long long>(r.snapshot_cycles + r.corrupt_cycles));
  }

  const auto& last = r.samples.back().gauges;
  reporter.metric("virtual.rounds", static_cast<double>(r.rounds_run),
                  "count", "virtual", /*lower_is_better=*/false);
  reporter.metric("virtual.discoveries", static_cast<double>(r.discoveries),
                  "count", "virtual", /*lower_is_better=*/false);
  reporter.metric("virtual.crashes", static_cast<double>(r.fault_crashes),
                  "count", "virtual", /*lower_is_better=*/false);
  reporter.metric("virtual.snapshot_restores",
                  static_cast<double>(r.persist_restores), "count", "virtual",
                  /*lower_is_better=*/false);
  reporter.metric("virtual.restore_failed",
                  static_cast<double>(r.persist_restore_failed), "count",
                  "virtual");
  reporter.metric("virtual.growth_violations",
                  static_cast<double>(r.violations.size()), "count",
                  "virtual");
  reporter.metric("virtual.engine_state_final",
                  static_cast<double>(last.engine_state_total()), "count",
                  "virtual");
  reporter.metric("virtual.metrics_cardinality_final",
                  static_cast<double>(last.metrics_counters +
                                      last.metrics_histograms),
                  "count", "virtual");
  const double wall_s = static_cast<double>(wall_ns) / 1e9;
  if (wall_s > 0) {
    const double repeats = static_cast<double>(args.repeat);
    reporter.metric("wall.section_ms", wall_s * 1e3 / repeats, "ms", "wall");
    reporter.metric("wall.rounds_per_s",
                    static_cast<double>(r.rounds_run) * repeats / wall_s,
                    "ops/s", "wall", /*lower_is_better=*/false);
    reporter.metric("wall.rss_final_kb",
                    static_cast<double>(r.samples.back().rss_kb), "kb",
                    "wall");
  }
  return bench::finish_bench(args, reporter,
                             args.wants_profile() ? &profiler : nullptr);
}
