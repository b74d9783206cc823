#include "harness/soak.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "crypto/drbg.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"

namespace argus::harness {
namespace {

std::size_t rss_kb_now() {
#if defined(__linux__)
  // /proc/self/statm: total and resident set, in pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::size_t>(resident) *
         (static_cast<std::size_t>(page) / 1024);
#else
  return 0;
#endif
}

/// Deterministically damage a sealed snapshot: truncate, flip one bit,
/// or append garbage. Every mode lands outside the checksum, so the
/// strict load path must reject it — the soak asserts it does.
Bytes corrupt_blob(Bytes blob, crypto::HmacDrbg& rng) {
  if (blob.empty()) return blob;
  switch (rng.uniform(3)) {
    case 0:  // truncate (always strictly shorter)
      blob.resize(static_cast<std::size_t>(rng.uniform(blob.size())));
      break;
    case 1: {  // flip one bit
      const std::size_t bit =
          static_cast<std::size_t>(rng.uniform(blob.size() * 8));
      blob[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      break;
    }
    default: {  // extend with garbage
      const Bytes extra = rng.generate(1 + rng.uniform(16));
      blob.insert(blob.end(), extra.begin(), extra.end());
      break;
    }
  }
  return blob;
}

}  // namespace

SoakResult run_soak(const SoakSpec& spec) {
  SoakResult result;

  SweepPoint point;
  point.level = spec.level;
  point.objects = spec.objects;
  point.drop = spec.drop_prob;
  point.seed = spec.seed;
  point.crash = spec.crash_rate;
  point.zombie = spec.zombie_rate;
  point.reboot_ms = spec.reboot_after_ms;
  point.flood_rate = spec.flood_rate_per_s;

  obs::MetricsRegistry registry;
  core::DiscoveryScenario sc = make_scenario(point);
  sc.flood.kind = spec.flood_kind;
  sc.faults.reboot_policy = spec.reboot_policy;
  sc.retry.round_deadline_ms = spec.round_deadline_ms;
  sc.replay_window = spec.replay_window;
  sc.metrics = &registry;

  core::DiscoveryTestbed tb(sc);
  crypto::HmacDrbg corrupt_rng = crypto::make_rng(spec.seed, "soak-corrupt");

  std::uint64_t cycle = 0;
  for (std::size_t round = 0; round < spec.rounds; ++round) {
    if (round > 0 && spec.crash_rate > 0) {
      // Fresh churn every round: without re-arming, the initial plan's
      // horizon covers only the first ~600 virtual ms and rounds 1..N
      // would soak nothing but the flooder.
      fault::FaultPlan plan;
      plan.crash_rate = spec.crash_rate;
      plan.zombie_rate = spec.zombie_rate;
      plan.reboot_after_ms = spec.reboot_after_ms;
      plan.horizon_ms = 600.0;
      plan.seed = spec.seed * 1000 + round;
      tb.rearm_faults(plan);
    }

    tb.run_round(round);

    if (spec.sample_every > 0 &&
        (round % spec.sample_every == 0 || round + 1 == spec.rounds)) {
      result.samples.push_back(
          SoakSample{round, tb.gauges(), rss_kb_now()});
    }
    result.discoveries += tb.gauges().timeline_events;
    tb.reset_window();

    // Snapshot/restore interleave, round-robin over objects then the
    // subject; every corrupt_every-th cycle restores a damaged copy that
    // must fail closed.
    if (spec.snapshot_every > 0 && (round + 1) % spec.snapshot_every == 0) {
      const std::size_t target = cycle % (tb.object_count() + 1);
      ++cycle;
      Bytes blob = target < tb.object_count() ? tb.snapshot_object(target)
                                              : tb.snapshot_subject();
      const bool corrupt =
          spec.corrupt_every > 0 && cycle % spec.corrupt_every == 0;
      if (corrupt) blob = corrupt_blob(std::move(blob), corrupt_rng);
      const persist::RestoreError err =
          target < tb.object_count() ? tb.restore_object(target, blob)
                                     : tb.restore_subject(blob);
      if (corrupt) {
        ++result.corrupt_cycles;
        if (err != persist::RestoreError::kOk) ++result.corrupt_fell_blank;
      } else {
        ++result.snapshot_cycles;
        if (err == persist::RestoreError::kOk) ++result.restore_exact;
      }
    }
  }
  result.rounds_run = spec.rounds;

  const core::DiscoveryReport report = tb.finalize();
  if (auto it = report.fault_counts.find("crash");
      it != report.fault_counts.end()) {
    result.fault_crashes = it->second;
  }
  if (auto it = report.fault_counts.find("reboot");
      it != report.fault_counts.end()) {
    result.fault_reboots = it->second;
  }
  for (const auto& [name, counter] : registry.counters()) {
    if (name == "persist.restore") result.persist_restores = counter.value();
    if (name == "persist.restore_failed") {
      result.persist_restore_failed = counter.value();
    }
  }

  // Every corrupted restore must have failed closed.
  if (result.corrupt_fell_blank != result.corrupt_cycles) {
    result.violations.push_back(
        "corrupted restore did not fall back blank: " +
        std::to_string(result.corrupt_fell_blank) + "/" +
        std::to_string(result.corrupt_cycles) + " cycles failed closed");
  }
  if (result.restore_exact != result.snapshot_cycles) {
    result.violations.push_back(
        "clean snapshot restore returned an error: " +
        std::to_string(result.restore_exact) + "/" +
        std::to_string(result.snapshot_cycles) + " cycles ok");
  }

  // Bounded-growth assertions: a bounded process plateaus after warm-up,
  // so the max over the second half of the samples must not exceed the
  // max over the first half by more than the per-gauge slack.
  const std::size_t n = result.samples.size();
  if (n >= 4) {
    const auto check = [&](const char* name, auto&& get, std::size_t abs_slack,
                           double frac_slack) {
      std::size_t first = 0;
      std::size_t second = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t v = get(result.samples[i]);
        (i < n / 2 ? first : second) = std::max(i < n / 2 ? first : second, v);
      }
      const std::size_t slack = std::max(
          abs_slack,
          static_cast<std::size_t>(static_cast<double>(first) * frac_slack));
      if (second > first + slack) {
        result.violations.push_back(
            std::string("monotonic growth in ") + name + ": first-half max " +
            std::to_string(first) + ", second-half max " +
            std::to_string(second) + " (slack " + std::to_string(slack) + ")");
      }
    };
    const auto gauge = [](std::size_t core::DiscoveryTestbed::FleetGauges::*m) {
      return [m](const SoakSample& s) { return s.gauges.*m; };
    };
    using FG = core::DiscoveryTestbed::FleetGauges;
    check("object_sessions", gauge(&FG::object_sessions), 4, 0.10);
    check("object_cached_replies", gauge(&FG::object_cached_replies), 4, 0.10);
    check("object_resume_entries", gauge(&FG::object_resume_entries), 4, 0.10);
    check("object_replay_entries", gauge(&FG::object_replay_entries), 4, 0.10);
    check("object_peer_buckets", gauge(&FG::object_peer_buckets), 4, 0.10);
    check("subject_sessions", gauge(&FG::subject_sessions), 4, 0.10);
    check("subject_resume_entries", gauge(&FG::subject_resume_entries), 4,
          0.10);
    check("object_verified_entries", gauge(&FG::object_verified_entries), 4,
          0.10);
    check("subject_verified_entries", gauge(&FG::subject_verified_entries), 4,
          0.10);
    check("engine_state_total",
          [](const SoakSample& s) { return s.gauges.engine_state_total(); }, 4,
          0.10);
    check("timeline_events", gauge(&FG::timeline_events), 4, 0.25);
    check("sim_pending", gauge(&FG::sim_pending), 8, 0.25);
    check("metrics_counters", gauge(&FG::metrics_counters), 2, 0.0);
    check("metrics_histograms", gauge(&FG::metrics_histograms), 2, 0.0);
    // RSS is the only wall-truth gauge; allocator caching and sanitizer
    // overheads drift it, so the slack is generous — what it catches is
    // a real per-round leak multiplied by thousands of rounds.
    check("rss_kb", [](const SoakSample& s) { return s.rss_kb; }, 8192, 0.15);
  }

  return result;
}

}  // namespace argus::harness
