// Simulator workloads: a campus of 16 shard DiscoveryTestbeds (buildings,
// 4 rings each), provisioned once and then driven in closed-loop sweeps.
// Each sweep runs one re-discovery round in every shard across the worker
// pool; a shard's subject starts its next round only after the previous
// one finished. The driver reaches the library through public APIs only:
// harness::make_scenario provisions a fleet, core::DiscoveryTestbed runs
// its rounds.
//
// Correctness: every testbed carries an obs::Tracer, read and cleared
// after each round. Each object must have sent its terminal reply at the
// level the oracle derives from the registered credentials, and the
// subject must not have rejected it. At the end, the subject's
// accumulated service set must equal the oracle's, object id, level and
// variant tag.
#include <malloc.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "argus/discovery.hpp"
#include "common.hpp"
#include "common/thread_pool.hpp"
#include "crypto/ec_precomp.hpp"
#include "crypto/sha256.hpp"
#include "defaults.hpp"
#include "harness/digest.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kShards = 16;
constexpr std::size_t kRings = 4;
constexpr std::size_t kSetups = 7;  // set-up repeats; setup_s is the median

struct Shape {
  int level = 1;
  std::size_t objects = 0;  // whole campus, split evenly over the shards
};

/// campus_l1: several thousand Level-1 objects, one admin key per shard.
constexpr Shape kCampusL1{1, 4096};
/// rediscover_l3: a few hundred Level-3 objects, each with its own key —
/// more distinct verification keys than the 256-entry EcPrecompCache.
constexpr Shape kRediscoverL3{3, 384};

/// Everything one shard's subject did in a measured phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t resolved = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t rejects = 0;
  double busy_ms = 0;  // wall clock inside run_round
  double task_ms = 0;  // run_round plus the oracle check
  std::vector<double> virtual_ms;  // modelled duration of each round
};

/// One building of the campus: its fleet, its live testbed, and the
/// oracle's view of both. Held by pointer: the testbed keeps the
/// tracer's address.
struct Shard {
  core::DiscoveryScenario scenario;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  std::optional<core::DiscoveryTestbed> tb;
  std::uint64_t subject_node = 0;
  std::map<std::uint64_t, std::size_t> object_of_node;
  std::map<std::string, std::size_t> object_of_id;
  std::vector<ServiceKey> expected;  // per object; level 0 = silent
  Tally tally;
};

harness::SweepPoint shard_point(const Shape& shape, std::uint64_t seed,
                                std::size_t shard) {
  harness::SweepPoint p;
  p.level = shape.level;
  p.objects = shape.objects / kShards + (shard < shape.objects % kShards);
  p.per_ring = (p.objects + kRings - 1) / kRings;
  // A realm per shard; seeds of neighbouring workload seeds never meet.
  p.seed = seed * 1000 + shard;
  return p;
}

/// Run fn(shard) for every shard. Idle workers take the next shard, so a
/// worker slowed by the host does not hold a fixed share of the sweep.
void for_each_shard(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  } else {
    parallel_for(*pool, n, fn);
  }
}

void build_shard(Shard& s, const harness::SweepPoint& point, bool registry) {
  {
    ARGUS_PROF_SCOPE("backend.provision");
    s.scenario = harness::make_scenario(point);
  }
  s.scenario.tracer = &s.tracer;
  if (registry) s.scenario.metrics = &s.metrics;
  ARGUS_PROF_SCOPE("argus.testbed_build");
  s.tb.emplace(s.scenario);
}

/// Map trace node ids to fleet objects (from the testbed's "node" meta
/// instants) and derive each object's expected service.
void prepare_oracle(Shard& s) {
  for (std::size_t i = 0; i < s.scenario.objects.size(); ++i) {
    const backend::ObjectCredentials& creds = s.scenario.objects[i].creds;
    s.object_of_id[creds.id] = i;
    ServiceKey want;
    if (!expected_service(s.scenario.subject, 0, creds, &want)) want = {};
    s.expected.push_back(want);
  }
  for (const obs::TraceEvent& ev : s.tracer.events()) {
    if (ev.kind != obs::EventKind::kInstant || ev.name != "node") continue;
    if (ev.arg == s.scenario.subject.id) {
      s.subject_node = ev.node;
    } else if (const auto it = s.object_of_id.find(ev.arg);
               it != s.object_of_id.end()) {
      s.object_of_node[ev.node] = it->second;
    }
  }
  s.tracer.clear();
}

/// Score the round just run from its trace, then drop the trace.
void check_round(Shard& s) {
  const std::size_t n = s.expected.size();
  std::vector<char> replied(n, 0);
  std::vector<char> rejected(n, 0);
  for (const obs::TraceEvent& ev : s.tracer.events()) {
    if (ev.kind != obs::EventKind::kInstant) continue;
    if (ev.node == s.subject_node) {
      if (ev.name.starts_with("reject.")) {
        ++s.tally.rejects;
        if (const auto it = s.object_of_node.find(ev.b);
            it != s.object_of_node.end()) {
          rejected[it->second] = 1;
        }
      } else if (ev.name == "discovered") {
        // A first discovery: it must name an expected object and level.
        const auto it = s.object_of_id.find(ev.arg);
        if (it == s.object_of_id.end() ||
            s.expected[it->second].level != static_cast<int>(ev.a)) {
          ++s.tally.wrong;
        }
      }
      continue;
    }
    const auto it = s.object_of_node.find(ev.node);
    if (it == s.object_of_node.end()) continue;
    if (ev.name.starts_with("reject.")) ++s.tally.rejects;
    const bool l1 = ev.name == "tx.RES1-L1";
    if (!l1 && ev.name != "tx.RES2") continue;
    // RES2's `b` is the face the object answered with (2 cover, 3 covert).
    const int want = s.expected[it->second].level;
    const bool right =
        want == 1 ? l1
                  : want >= 2 && !l1 && static_cast<int>(ev.b) == want;
    if (right) {
      replied[it->second] = 1;
    } else {
      ++s.tally.wrong;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (s.expected[i].level == 0) continue;
    ++s.tally.attempted;
    if (replied[i] && !rejected[i]) {
      ++s.tally.resolved;
    } else {
      ++s.tally.failed;
    }
  }
  s.tracer.clear();
}

void run_shard_round(Shard& s) {
  const std::uint64_t t0 = obs::prof::now_ns();
  const double v0 = s.tb->now();
  {
    ARGUS_PROF_SCOPE("argus.run_round");
    s.tb->run_round(0);
  }
  s.tally.busy_ms += ms_since(t0);
  s.tally.virtual_ms.push_back(s.tb->now() - v0);
  {
    ARGUS_PROF_SCOPE("bench.oracle");
    check_round(s);
  }
  s.tally.task_ms += ms_since(t0);
}

struct Phase {
  double wall_ms = 0;
  double capacity_ms = 0;  // workers x sweep wall, summed over sweeps
  Tally sum;
  double busy_max_over_mean = 0;
};

/// Closed-loop sweeps until `seconds` have passed (or exactly
/// `fixed_rounds` sweeps), each shard's lane attached to `prof` if set.
Phase run_phase(std::vector<std::unique_ptr<Shard>>& shards, ThreadPool* pool,
                std::size_t workers, double seconds, std::size_t fixed_rounds,
                obs::prof::Profiler* prof) {
  for (auto& s : shards) s->tally = Tally{};
  Phase out;
  const std::uint64_t t0 = obs::prof::now_ns();
  for (std::size_t sweep = 0;; ++sweep) {
    if (fixed_rounds > 0 ? sweep >= fixed_rounds
                         : ms_since(t0) >= seconds * 1000.0) {
      break;
    }
    const std::uint64_t s0 = obs::prof::now_ns();
    for_each_shard(pool, shards.size(), [&](std::size_t i) {
      std::optional<obs::prof::Profiler::Attach> attach;
      if (prof != nullptr) attach.emplace(*prof, i + 1);
      run_shard_round(*shards[i]);
    });
    out.capacity_ms += static_cast<double>(workers) * ms_since(s0);
  }
  out.wall_ms = ms_since(t0);
  double busy_max = 0;
  for (const auto& s : shards) {
    const Tally& t = s->tally;
    out.sum.attempted += t.attempted;
    out.sum.resolved += t.resolved;
    out.sum.failed += t.failed;
    out.sum.wrong += t.wrong;
    out.sum.rejects += t.rejects;
    out.sum.busy_ms += t.busy_ms;
    out.sum.task_ms += t.task_ms;
    out.sum.virtual_ms.insert(out.sum.virtual_ms.end(), t.virtual_ms.begin(),
                              t.virtual_ms.end());
    busy_max = std::max(busy_max, t.busy_ms);
  }
  const auto n = static_cast<double>(shards.size());
  out.busy_max_over_mean = ratio(busy_max * n, out.sum.busy_ms);
  return out;
}

double per_s(std::uint64_t n, double ms) {
  return ratio(static_cast<double>(n), ms / 1000.0);
}

std::uint64_t sum_counters(const std::vector<std::unique_ptr<Shard>>& shards,
                           std::initializer_list<const char*> names) {
  std::uint64_t total = 0;
  for (const auto& s : shards) {
    for (const char* name : names) {
      if (const auto it = s->metrics.counters().find(name);
          it != s->metrics.counters().end()) {
        total += it->second.value();
      }
    }
  }
  return total;
}

RunResult run_sim(const Shape& shape, const Options& opts) {
  const std::size_t workers = pool_workers(opts);
  std::optional<ThreadPool> pool_storage;
  if (workers > 1) pool_storage.emplace(workers);
  ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
  RunResult res;

  // Set-up: provision every shard's fleet and build its testbed, several
  // times; the last build is the one measured.
  obs::prof::Profiler setup_prof({kProfEventsPerLane});
  std::vector<std::unique_ptr<Shard>> shards;
  const std::size_t setups = opts.fixed_rounds > 0 ? 1 : kSetups;
  for (std::size_t rep = 0; rep < setups; ++rep) {
    shards.clear();
    // Return the previous fleet's pages, so repeated set-ups do not raise
    // the peak resident set the run reports.
    malloc_trim(0);
    for (std::size_t i = 0; i < kShards; ++i) {
      shards.push_back(std::make_unique<Shard>());
    }
    const std::uint64_t t0 = obs::prof::now_ns();
    for_each_shard(pool, kShards, [&](std::size_t i) {
      std::optional<obs::prof::Profiler::Attach> attach;
      if (opts.trace) attach.emplace(setup_prof, i + 1);
      build_shard(*shards[i], shard_point(shape, opts.seed, i), opts.trace);
    });
    res.setup_s.push_back(ms_since(t0) / 1000.0);
  }
  for (auto& s : shards) prepare_oracle(*s);
  // Every shard's scenario comes from the same code; check the first.
  check_fast_paths(&res.overrides);
  check_scenario(shards[0]->scenario, &res.overrides);
  if (opts.corrupt_expectation) shards[0]->expected[0].variant_tag += "-wrong";

  // One untimed warm-up sweep: every first discovery and lazy table fill
  // happens here, so the measured sweeps are all re-discoveries.
  const Phase warm = run_phase(shards, pool, workers, 0, 1, nullptr);
  res.peak_rss_mb = peak_rss_mb();

  // Measured phases. A traced run first measures without the profiler
  // (the trace-overhead baseline), then again with it attached.
  obs::prof::Profiler prof({kProfEventsPerLane});
  Phase plain;
  if (!opts.trace || opts.fixed_rounds == 0) {
    const double secs = opts.trace ? opts.seconds / 2 : opts.seconds;
    plain = run_phase(shards, pool, workers, secs, opts.fixed_rounds, nullptr);
  }
  const auto cache1 = crypto::EcPrecompCache::global().stats();
  Phase traced;
  if (opts.trace) {
    traced = run_phase(shards, pool, workers, opts.seconds / 2,
                       opts.fixed_rounds, &prof);
  }
  const auto cache2 = crypto::EcPrecompCache::global().stats();
  const Phase& main = opts.trace ? traced : plain;

  // Close every testbed: the run's reports feed the end-of-run service
  // check, the traffic totals and the digest.
  crypto::Sha256 digest;
  std::uint64_t offered_bytes = 0, offered_msgs = 0, deliveries = 0,
                dropped = 0;
  std::uint64_t wrong = warm.sum.wrong + plain.sum.wrong + traced.sum.wrong;
  for (auto& s : shards) {
    const core::DiscoveryReport report = s->tb->finalize();
    ServiceSet want;
    for (const ServiceKey& k : s->expected) {
      if (k.level != 0) want.insert(k);
    }
    wrong += service_mismatches(want, to_service_set(report.services));
    offered_bytes += report.offered_bytes;
    offered_msgs += report.offered_messages;
    deliveries += report.net_stats.deliveries;
    dropped += report.net_stats.dropped;
    digest.update(str_bytes(harness::report_json(report)));
  }

  std::vector<double> virtual_all = plain.sum.virtual_ms;
  virtual_all.insert(virtual_all.end(), traced.sum.virtual_ms.begin(),
                     traced.sum.virtual_ms.end());
  double virtual_sum = 0;
  for (const double v : virtual_all) virtual_sum += v;
  const double hs_all = static_cast<double>(
      warm.sum.resolved + plain.sum.resolved + traced.sum.resolved);
  res.timed_s = main.wall_ms / 1000.0;
  res.handshakes = main.sum.resolved;
  res.attempted =
      warm.sum.attempted + plain.sum.attempted + traced.sum.attempted;
  res.failed = warm.sum.failed + plain.sum.failed + traced.sum.failed;
  res.wrong = wrong;
  // A simulated subject's round latency is modelled time; its wall-clock
  // cost is what handshakes_per_s measures.
  res.round_ms = main.sum.virtual_ms;
  res.wire_bytes_per_handshake =
      ratio(static_cast<double>(offered_bytes), hs_all);
  res.virtual_round_ms =
      ratio(virtual_sum, static_cast<double>(virtual_all.size()));
  res.digest = to_hex(digest.finish());
  if (!opts.trace) return res;

  // Per-layer rows, from the traced phase unless noted.
  Layer& L = res.layer;
  const auto spans = label_stats(prof);
  add_span_layers(spans, traced.sum.resolved, &L);
  std::size_t registrations = 0;
  for (const auto& s : shards) registrations += 1 + s->scenario.objects.size();
  add_setup_layers(label_stats(setup_prof), registrations, setups, &L);
  L["argus.virtual_round_ms"] = res.virtual_round_ms;
  L["argus.rejects"] = static_cast<double>(
      warm.sum.rejects + plain.sum.rejects + traced.sum.rejects);
  // Engine counters and traffic totals cover every round of the run.
  const auto hits = static_cast<double>(sum_counters(
      shards, {"subject.resumption.hit", "object.resumption.hit"}));
  const auto misses = static_cast<double>(sum_counters(
      shards, {"subject.resumption.miss", "object.resumption.miss"}));
  L["argus.resumption_hits"] = hits;
  L["argus.resumption_misses"] = misses;
  L["argus.resumption_hit_ratio"] = ratio(hits, hits + misses);
  L["argus.batch_verified_sigs"] = 0;  // the simulator never batches
  L["argus.batch_fallback_sigs"] = 0;
  L["argus.batch_fallback_ratio"] = 0;
  const auto msgs = static_cast<double>(offered_msgs);
  L["net.messages"] = msgs;
  L["net.messages_per_handshake"] = ratio(msgs, hs_all);
  L["net.delivery_ratio"] = ratio(static_cast<double>(deliveries),
                                  static_cast<double>(deliveries + dropped));
  L["pool.workers"] = static_cast<double>(workers);
  L["pool.shard_busy_max_over_mean"] = traced.busy_max_over_mean;
  L["pool.idle_ms"] = traced.capacity_ms - traced.sum.task_ms;
  const auto cache_hits = static_cast<double>(cache2.hits - cache1.hits);
  const auto cache_misses = static_cast<double>(cache2.misses - cache1.misses);
  L["crypto.precomp_cache.hits"] = cache_hits;
  L["crypto.precomp_cache.misses"] = cache_misses;
  L["crypto.precomp_cache.hit_ratio"] =
      ratio(cache_hits, cache_hits + cache_misses);
  const double plain_hs = per_s(plain.sum.resolved, plain.wall_ms);
  const double traced_hs = per_s(traced.sum.resolved, traced.wall_ms);
  L["obs.untraced_handshakes_per_s"] = plain_hs;
  L["obs.traced_handshakes_per_s"] = traced_hs;
  L["obs.trace_overhead_ratio"] = ratio(plain_hs, traced_hs);
  // Span self time plus pool idle time should cover every worker's wall
  // clock of the traced phase.
  L["obs.accounted_share"] =
      ratio(total_self_ms(spans) + L["pool.idle_ms"], traced.capacity_ms);
  return res;
}

}  // namespace

RunResult run_campus_l1(const Options& opts) {
  return run_sim(kCampusL1, opts);
}
RunResult run_rediscover_l3(const Options& opts) {
  return run_sim(kRediscoverL3, opts);
}

}  // namespace perfbench
