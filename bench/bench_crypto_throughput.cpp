// Crypto hot path: handshakes/sec per core, before vs after the
// precomputed pipeline. Three modes over the identical fleet:
//
//   reference   EcFastPaths all off, no resumption, QUE2s handled one by
//               one — the frozen pre-pipeline baseline.
//   fast        comb tables + Shamir verify + per-key windows on; every
//               handshake still runs a full ECDH. Wire bytes must be
//               bit-identical to `reference` (the drop-in proof).
//   steady      fast paths + ECDH session resumption on both sides —
//               the steady-state re-discovery path.
//
// Every mode runs the engines' verified-credential cache (it has no
// switch): after the warm-up round each admin-signed certificate and
// profile is a cache hit, so a timed handshake verifies only the two
// transcript signatures.
//
// The fleet is L lanes; each lane is one Level-2 object serving K
// subjects, and lanes run concurrently via parallel_for. Every lane
// chains all wire bytes it sees through SHA-256, so the combined digest
// proves (a) `fast` is byte-for-byte `reference` and (b) the steady-state
// pipeline produces identical bytes on 1 worker thread and on N.
//
// Each mode runs one untimed warm-up round (fills the resumption caches
// and the per-key tables where enabled), then `rounds` timed rounds.
// Single-thread rates are the per-core numbers the issue gates on;
// `--json-out` appends them to the BENCH_crypto.json trajectory.
//
// `--smoke` is the ctest/CI gate: a reduced grid asserting the two digest
// proofs, the exact deterministic resumption/verified-cache counters,
// and a conservative >= 2x steady-state speedup per core.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "backend/registry.hpp"
#include "bench_args.hpp"
#include "bench_crypto_backends.hpp"
#include "common/thread_pool.hpp"
#include "crypto/ec.hpp"
#include "crypto/sha256.hpp"
#include "obs/prof.hpp"

using namespace argus;

namespace {

struct Grid {
  std::size_t lanes = 8;
  std::size_t subjects = 8;  // per lane
  std::size_t rounds = 6;    // timed rounds (one extra warm-up round runs)
};

struct Mode {
  const char* name;
  crypto::EcFastPaths paths;
  bool resumption = false;
};

const Mode kReference{"reference", {false, false, false, false}, false};
const Mode kFast{"fast", {true, true, true, true}, false};
const Mode kSteady{"steady", {true, true, true, true}, true};

struct LaneSpec {
  backend::ObjectCredentials obj;
  std::vector<backend::SubjectCredentials> subs;
};

struct Fleet {
  crypto::EcPoint admin_pub;
  std::uint64_t now = 0;
  std::vector<LaneSpec> lanes;
};

/// Register the whole fleet once; every mode replays the same
/// credentials through freshly-seeded engines, so wire bytes are
/// comparable across modes.
Fleet build_fleet(const Grid& grid) {
  backend::Backend be(crypto::Strength::b128, 40291);
  Fleet fleet;
  char id[64];
  for (std::size_t l = 0; l < grid.lanes; ++l) {
    LaneSpec lane;
    std::snprintf(id, sizeof(id), "cam-%zu", l);
    lane.obj = be.register_object(
        id, backend::AttributeMap{{"type", "camera"}}, backend::Level::kL2,
        {}, {{"position=='manager'", "managers", {"view", "configure"}}});
    for (std::size_t s = 0; s < grid.subjects; ++s) {
      std::snprintf(id, sizeof(id), "staff-%zu-%zu", l, s);
      lane.subs.push_back(be.register_subject(
          id, backend::AttributeMap{{"position", "manager"}}));
    }
    fleet.lanes.push_back(std::move(lane));
  }
  fleet.admin_pub = be.admin_public_key();
  fleet.now = be.now();
  return fleet;
}

struct LaneState {
  core::ObjectEngine object;
  std::vector<core::SubjectEngine> subjects;
  crypto::Sha256 hash;  // chained over every wire the lane emits
  std::uint64_t handshakes = 0;
  bool ok = true;

  LaneState(const Fleet& fleet, const LaneSpec& spec, const Mode& mode,
            std::uint64_t lane_seed)
      : object(make_object(fleet, spec, mode, lane_seed)) {
    for (std::size_t s = 0; s < spec.subs.size(); ++s) {
      core::SubjectEngineConfig cfg;
      cfg.creds = spec.subs[s];
      cfg.admin_pub = fleet.admin_pub;
      cfg.seed = lane_seed * 1000 + s + 1;
      cfg.resumption.enabled = mode.resumption;
      subjects.emplace_back(std::move(cfg));
    }
  }

  static core::ObjectEngine make_object(const Fleet& fleet,
                                        const LaneSpec& spec,
                                        const Mode& mode,
                                        std::uint64_t lane_seed) {
    core::ObjectEngineConfig cfg;
    cfg.creds = spec.obj;
    cfg.admin_pub = fleet.admin_pub;
    cfg.seed = lane_seed * 2 + 1;
    cfg.resumption.enabled = mode.resumption;
    return core::ObjectEngine(std::move(cfg));
  }

  /// One discovery round for every subject of the lane: QUE1/RES1/QUE2
  /// per subject in order, then all RES2s.
  void run_round(std::uint64_t now) {
    if (!ok) return;
    std::vector<Bytes> que2s;
    que2s.reserve(subjects.size());
    for (auto& s : subjects) {
      const Bytes que1 = s.start_round();
      hash.update(que1);
      const auto res1 = object.handle(que1, now);
      if (!res1) { ok = false; return; }
      hash.update(*res1);
      const auto que2 = s.handle(*res1, now);
      if (!que2) { ok = false; return; }
      hash.update(*que2);
      que2s.push_back(*que2);
    }
    for (std::size_t s = 0; s < subjects.size(); ++s) {
      const auto res2 = object.handle(que2s[s], now);
      if (!res2) { ok = false; return; }
      hash.update(*res2);
      if (subjects[s].handle(*res2, now).status !=
          core::HandleStatus::kOk) {
        ok = false;
        return;
      }
      ++handshakes;
    }
  }
};

struct ModeOutcome {
  bool ok = true;
  std::string digest;          // hex, chained over all lanes in order
  std::uint64_t handshakes = 0;  // timed rounds only
  double wall_ns = 0;            // timed rounds only
  std::uint64_t resumption_hits = 0;
  std::uint64_t verified_hits = 0;  // admin signatures settled by the cache

  [[nodiscard]] double per_s() const {
    return wall_ns > 0 ? static_cast<double>(handshakes) * 1e9 / wall_ns : 0;
  }
};

ModeOutcome run_mode(const Fleet& fleet, const Mode& mode, const Grid& grid,
                     std::size_t threads, std::uint64_t repeat) {
  // The fast-path switches are process globals; flip them before the pool
  // spawns (thread creation is the synchronisation point).
  crypto::set_ec_fast_paths(mode.paths);
  std::vector<std::unique_ptr<LaneState>> lanes;
  lanes.reserve(fleet.lanes.size());
  for (std::size_t l = 0; l < fleet.lanes.size(); ++l) {
    lanes.push_back(
        std::make_unique<LaneState>(fleet, fleet.lanes[l], mode, l + 1));
  }
  ThreadPool pool(threads);
  // Warm-up: one untimed round per lane. On the steady path this fills
  // both resumption caches, so every timed ECDH is a cache hit.
  parallel_for(pool, lanes.size(), [&](std::size_t l) {
    lanes[l]->run_round(fleet.now);
  });
  const std::uint64_t timed_rounds = grid.rounds * repeat;
  const std::uint64_t wall0 = obs::prof::now_ns();
  parallel_for(pool, lanes.size(), [&](std::size_t l) {
    for (std::uint64_t r = 0; r < timed_rounds; ++r) {
      lanes[l]->run_round(fleet.now);
    }
  });
  ModeOutcome out;
  out.wall_ns = static_cast<double>(obs::prof::now_ns() - wall0);
  crypto::Sha256 combined;
  for (auto& lane : lanes) {
    out.ok = out.ok && lane->ok;
    combined.update(lane->hash.finish());
    // Subtract the warm-up round from the throughput numerator.
    out.handshakes += lane->handshakes - lane->subjects.size();
    out.resumption_hits += lane->object.stats().resumption_hits;
    out.verified_hits += lane->object.verified_cache().hits();
    for (const auto& s : lane->subjects) {
      out.resumption_hits += s.stats().resumption_hits;
      out.verified_hits += s.verified_cache().hits();
    }
  }
  out.digest = to_hex(combined.finish());
  crypto::set_ec_fast_paths(crypto::EcFastPaths{});
  if (!out.ok) {
    std::fprintf(stderr, "%s: a handshake failed to complete\n", mode.name);
  }
  return out;
}

void report_mode(obs::bench::BenchReporter& reporter, const char* name,
                 const ModeOutcome& out) {
  reporter.metric(std::string("wall.handshakes_per_s.") + name, out.per_s(),
                  "hs/s", "wall", /*lower_is_better=*/false);
}

int smoke(const bench::Args& args) {
#if defined(NDEBUG)
  const Grid grid{2, 4, 3};
#else
  // Debug EC is an order of magnitude slower; shrink the grid the same
  // way bench_fig_scale does.
  const Grid grid{2, 3, 2};
#endif
  const Fleet fleet = build_fleet(grid);
  const auto ref = run_mode(fleet, kReference, grid, 1, 1);
  const auto fast = run_mode(fleet, kFast, grid, 1, 1);
  const auto steady1 = run_mode(fleet, kSteady, grid, 1, 1);
  const auto steady4 = run_mode(fleet, kSteady, grid, 4, 1);
  if (!ref.ok || !fast.ok || !steady1.ok || !steady4.ok) return 1;

  // Drop-in proof: the fast paths change speed only, never bytes.
  if (fast.digest != ref.digest) {
    std::fprintf(stderr,
                 "smoke: fast-path wire bytes diverged from reference\n"
                 "  reference: %s\n  fast     : %s\n",
                 ref.digest.c_str(), fast.digest.c_str());
    return 1;
  }
  // Determinism proof: the steady-state pipeline (resumption)
  // yields identical bytes on 1 worker thread and on 4.
  if (steady1.digest != steady4.digest) {
    std::fprintf(stderr, "smoke: steady digest differs across thread counts\n"
                         "  1 thread : %s\n  4 threads: %s\n",
                 steady1.digest.c_str(), steady4.digest.c_str());
    return 1;
  }
  // Deterministic pipeline counters: after the warm-up round, every timed
  // ECDH must be a resumption hit on both sides, and every timed
  // handshake's four admin signatures (certificate and profile, each
  // side) must be verified-cache hits.
  const std::uint64_t per_round = grid.lanes * grid.subjects;
  const std::uint64_t timed = per_round * grid.rounds;
  const std::uint64_t expected_hits = 2 * timed;
  const std::uint64_t expected_verified = 4 * timed;
  if (steady1.resumption_hits != expected_hits ||
      steady1.verified_hits != expected_verified) {
    std::fprintf(stderr,
                 "smoke: pipeline counters off: hits %llu (want %llu), "
                 "verified-cache hits %llu (want %llu)\n",
                 static_cast<unsigned long long>(steady1.resumption_hits),
                 static_cast<unsigned long long>(expected_hits),
                 static_cast<unsigned long long>(steady1.verified_hits),
                 static_cast<unsigned long long>(expected_verified));
    return 1;
  }
  const double speedup = steady1.per_s() / ref.per_s();
  // Conservative floor for CI (sanitizer/Debug lanes distort constants);
  // the recorded Release number is gated via BENCH_crypto.json instead.
  if (speedup < 2.0) {
    std::fprintf(stderr, "smoke: steady speedup %.2fx < 2.0x floor\n",
                 speedup);
    return 1;
  }
  std::printf(
      "smoke OK: %llu handshakes/mode; reference %.1f hs/s, fast %.1f, "
      "steady %.1f (%.2fx); fast==reference bytes, 1-vs-4-thread steady "
      "digests identical (%.12s...); %s\n",
      static_cast<unsigned long long>(timed), ref.per_s(), fast.per_s(),
      steady1.per_s(), speedup, steady1.digest.c_str(),
      bench::crypto_backends().c_str());

  obs::bench::BenchReporter reporter("crypto");
  reporter.set_threads(1);
  reporter.set_repeat(args.repeat);
  report_mode(reporter, "reference", ref);
  report_mode(reporter, "fast", fast);
  report_mode(reporter, "steady", steady1);
  reporter.metric("wall.speedup.steady_vs_ref", speedup, "x", "wall",
                  /*lower_is_better=*/false);
  reporter.metric("virtual.handshakes", static_cast<double>(timed), "count",
                  "virtual", /*lower_is_better=*/false);
  reporter.metric("virtual.digest_match.fast_vs_ref", 1.0, "bool", "virtual",
                  /*lower_is_better=*/false);
  return bench::finish_bench(args, reporter, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  if (args.smoke) return smoke(args);

  const Grid grid;
  const Fleet fleet = build_fleet(grid);
  const std::size_t threads =
      args.threads > 0 ? args.threads
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency());

  std::printf("Crypto throughput — %zu lanes x %zu subjects x %zu rounds "
              "(+1 warm-up), %u cores\n%s\n\n",
              grid.lanes, grid.subjects, grid.rounds,
              std::thread::hardware_concurrency(),
              bench::crypto_backends().c_str());
  std::printf("%-12s | %8s | %12s | %10s\n", "mode", "threads", "hs/s",
              "speedup");
  std::printf("-------------+----------+--------------+-----------\n");

  // Per-core numbers: every mode at 1 worker thread.
  const auto ref = run_mode(fleet, kReference, grid, 1, args.repeat);
  const auto fast = run_mode(fleet, kFast, grid, 1, args.repeat);
  const auto steady1 = run_mode(fleet, kSteady, grid, 1, args.repeat);
  // Scaling: the steady pipeline across the pool, with the digest proof.
  const auto steadyN = run_mode(fleet, kSteady, grid, threads, args.repeat);
  if (!ref.ok || !fast.ok || !steady1.ok || !steadyN.ok) return 1;
  if (fast.digest != ref.digest) {
    std::fprintf(stderr, "fast-path wire bytes diverged from reference\n");
    return 1;
  }
  if (steadyN.digest != steady1.digest) {
    std::fprintf(stderr, "steady digest differs across thread counts\n");
    return 1;
  }
  const double fast_x = fast.per_s() / ref.per_s();
  const double steady_x = steady1.per_s() / ref.per_s();
  std::printf("%-12s | %8d | %12.1f | %10s\n", "reference", 1, ref.per_s(),
              "1.00x");
  std::printf("%-12s | %8d | %12.1f | %9.2fx\n", "fast", 1, fast.per_s(),
              fast_x);
  std::printf("%-12s | %8d | %12.1f | %9.2fx\n", "steady", 1,
              steady1.per_s(), steady_x);
  std::printf("%-12s | %8zu | %12.1f | %9.2fx\n", "steady", threads,
              steadyN.per_s(), steadyN.per_s() / ref.per_s());

  obs::bench::BenchReporter reporter("crypto");
  reporter.set_threads(threads);
  reporter.set_repeat(args.repeat);
  report_mode(reporter, "reference", ref);
  report_mode(reporter, "fast", fast);
  report_mode(reporter, "steady", steady1);
  char key[64];
  std::snprintf(key, sizeof(key), "wall.handshakes_per_s.steady_t%zu",
                threads);
  reporter.metric(key, steadyN.per_s(), "hs/s", "wall",
                  /*lower_is_better=*/false);
  reporter.metric("wall.speedup.fast_vs_ref", fast_x, "x", "wall",
                  /*lower_is_better=*/false);
  reporter.metric("wall.speedup.steady_vs_ref", steady_x, "x", "wall",
                  /*lower_is_better=*/false);
  // Virtual counters are reported for the repeat=1 grid so the trajectory
  // entry is --repeat invariant; the measured (repeat-scaled) counters are
  // asserted against the same model first.
  const std::uint64_t per_round = grid.lanes * grid.subjects;
  const std::uint64_t timed = per_round * grid.rounds * args.repeat;
  if (steady1.resumption_hits != 2 * timed ||
      steady1.verified_hits != 4 * timed) {
    std::fprintf(stderr, "steady pipeline counters off model\n");
    return 1;
  }
  reporter.metric("virtual.handshakes",
                  static_cast<double>(per_round * grid.rounds), "count",
                  "virtual", /*lower_is_better=*/false);
  reporter.metric("virtual.steady.resumption_hits",
                  static_cast<double>(2 * per_round * grid.rounds), "count",
                  "virtual", /*lower_is_better=*/false);
  reporter.metric("virtual.steady.verified_cache_hits",
                  static_cast<double>(4 * per_round * grid.rounds), "count",
                  "virtual", /*lower_is_better=*/false);
  reporter.metric("virtual.digest_match.fast_vs_ref", 1.0, "bool", "virtual",
                  /*lower_is_better=*/false);
  return bench::finish_bench(args, reporter, nullptr);
}
