// Campus-scale sweep: discovery wall clock and memory footprint vs fleet
// size, on the sharded giant-topology path (SweepRunner::run_partitioned).
//
// The paper's testbed tops out at tens of objects; this bench drives the
// simulator to enterprise scale (10k+ nodes) and records two curves into
// the BENCH_scale.json trajectory:
//
//   wall.ms.n<N>       nodes vs wall clock for one full discovery round
//   mem.rss_kb.n<N>    nodes vs resident set right after that round
//
// plus the gated virtual metrics (total_ms, found) whose values are
// deterministic and must not move between commits. Fleets run as 16
// independent shards (buildings of a campus); the Ns ladder runs smallest
// first so each RSS reading is dominated by the fleet just simulated.
//
// `--smoke` is the ctest/CI gate: one giant fleet, sharded, run on 1
// worker thread and again on 4, asserting bit-identical shard digests and
// a complete discovery — the scale architecture's determinism proof. The
// smoke fleet is 10k nodes in optimized builds and 2k in Debug (the Debug
// CI lane runs every smoke; EC crypto is ~10x slower there).
#include <cstdio>

#include "bench_args.hpp"
#include "harness/sweep.hpp"
#include "obs/prof.hpp"

using namespace argus;

namespace {

constexpr std::size_t kShards = 16;

/// Current resident set in kB; 0 where unsupported.
std::uint64_t rss_kb() { return bench::proc_status_kb("VmRSS:"); }

harness::SweepPoint scale_point(std::size_t nodes) {
  harness::SweepPoint p;
  // Level 1 keeps per-object crypto minimal so the curve measures the
  // event loop and delivery fabric, not EC scalar multiplication.
  p.level = 1;
  p.objects = nodes;
  p.per_ring = (nodes + 3) / 4;  // 4 rings, like the fig6g layout
  return p;
}

struct Row {
  std::size_t nodes = 0;
  double wall_ms = 0;
  std::uint64_t rss = 0;
  double virtual_ms = 0;
  std::uint64_t messages = 0;
  std::size_t found = 0;
};

/// One ladder step: simulate `nodes` as kShards buildings, measure wall
/// clock and the post-run resident set. Exits nonzero on an incomplete
/// discovery — at any scale, every object must be found.
bool run_step(const harness::SweepRunner& runner, std::size_t nodes,
              Row* row) {
  const std::uint64_t wall0 = obs::prof::now_ns();
  const auto part = runner.run_partitioned(scale_point(nodes), kShards);
  row->nodes = nodes;
  row->wall_ms = static_cast<double>(obs::prof::now_ns() - wall0) / 1e6;
  row->rss = rss_kb();
  row->virtual_ms = part.combined.total_ms;
  row->messages = part.combined.net_stats.messages;
  row->found = part.combined.services.size();
  if (row->found != nodes) {
    std::fprintf(stderr, "scale: %zu-node fleet found only %zu services\n",
                 nodes, row->found);
    return false;
  }
  return true;
}

void report_row(obs::bench::BenchReporter& reporter, const Row& row) {
  char key[64];
  std::snprintf(key, sizeof(key), "wall.ms.n%zu", row.nodes);
  reporter.metric(key, row.wall_ms, "ms", "wall");
  if (row.rss > 0) {
    std::snprintf(key, sizeof(key), "mem.rss_kb.n%zu", row.nodes);
    reporter.metric(key, static_cast<double>(row.rss), "kB", "wall");
  }
  std::snprintf(key, sizeof(key), "virtual.total_ms.n%zu", row.nodes);
  reporter.metric(key, row.virtual_ms, "ms", "virtual");
  std::snprintf(key, sizeof(key), "virtual.found.n%zu", row.nodes);
  reporter.metric(key, static_cast<double>(row.found), "services", "virtual",
                  /*lower_is_better=*/false);
}

int smoke(const bench::Args& args) {
#if defined(NDEBUG)
  const std::size_t nodes = 10000;
#else
  const std::size_t nodes = 2000;
#endif
  const harness::SweepPoint point = scale_point(nodes);
  // The determinism proof: the same campus sharded over 1 worker thread
  // and over 4 must produce bit-identical digests, shard by shard.
  const auto serial =
      harness::SweepRunner({.threads = 1}).run_partitioned(point, kShards);
  // The timed 4-thread run carries the profiler when one is wanted. Only
  // aggregates are exported, so lanes keep few raw events.
  obs::prof::Profiler profiler({/*max_events_per_lane=*/1024});
  const std::uint64_t wall0 = obs::prof::now_ns();
  const auto parallel =
      harness::SweepRunner(
          {.threads = 4,
           .profiler = args.wants_profile() ? &profiler : nullptr})
          .run_partitioned(point, kShards);
  const double wall_ms =
      static_cast<double>(obs::prof::now_ns() - wall0) / 1e6;
  if (serial.digest != parallel.digest) {
    std::fprintf(stderr, "smoke: campus digest differs across thread counts\n"
                         "  1 thread : %s\n  4 threads: %s\n",
                 serial.digest.c_str(), parallel.digest.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < serial.shards.size(); ++i) {
    if (serial.shards[i].digest != parallel.shards[i].digest) {
      std::fprintf(stderr, "smoke: shard %zu digest drifted\n", i);
      return 1;
    }
  }
  if (parallel.combined.services.size() != nodes) {
    std::fprintf(stderr, "smoke: found %zu/%zu services\n",
                 parallel.combined.services.size(), nodes);
    return 1;
  }
  if (parallel.combined.delivery_ratio != 1.0) {
    std::fprintf(stderr, "smoke: clean channel lost frames (ratio %f)\n",
                 parallel.combined.delivery_ratio);
    return 1;
  }
  std::printf("smoke OK: %zu nodes x %zu shards, %zu/%zu found in %.0f "
              "virtual ms, 1-vs-4-thread digests identical (%.12s...)\n",
              nodes, parallel.shards.size(),
              parallel.combined.services.size(), nodes,
              parallel.combined.total_ms, parallel.digest.c_str());

  obs::bench::BenchReporter reporter("scale");
  reporter.set_threads(4);
  reporter.set_repeat(args.repeat);
  Row row;
  row.nodes = nodes;
  row.wall_ms = wall_ms;
  row.rss = rss_kb();
  row.virtual_ms = parallel.combined.total_ms;
  row.found = parallel.combined.services.size();
  report_row(reporter, row);
  return bench::finish_bench(args, reporter,
                             args.wants_profile() ? &profiler : nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  if (args.smoke) return smoke(args);

  const std::size_t ladder[] = {1000, 2500, 5000, 10000};
  obs::bench::BenchReporter reporter("scale");
  reporter.set_threads(args.threads);
  reporter.set_repeat(args.repeat);
  obs::prof::Profiler profiler;
  harness::SweepRunner::Options opts;
  opts.threads = args.threads;
  if (args.wants_profile()) opts.profiler = &profiler;
  const harness::SweepRunner runner(opts);

  std::printf("Scale sweep — campus discovery, %zu shards, Level 1 fleet\n\n",
              kShards);
  std::printf("%7s | %10s | %10s | %11s | %9s\n", "nodes", "wall ms",
              "RSS kB", "virtual ms", "messages");
  std::printf("--------+------------+------------+-------------+----------\n");
  for (const std::size_t nodes : ladder) {
    Row row;
    if (!run_step(runner, nodes, &row)) return 1;
    std::printf("%7zu | %10.0f | %10llu | %11.0f | %9llu\n", row.nodes,
                row.wall_ms, static_cast<unsigned long long>(row.rss),
                row.virtual_ms, static_cast<unsigned long long>(row.messages));
    report_row(reporter, row);
  }
  return bench::finish_bench(args, reporter,
                             args.wants_profile() ? &profiler : nullptr);
}
