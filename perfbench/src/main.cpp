// Benchmark driver: runs one workload and prints its metrics, one per
// line by name and unit, then a final JSON line
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits nonzero when the oracle saw a wrong service.
//
//   argus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   argus_perfbench --self-test
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

/// Names and units as BENCHMARK.json lists them, in the same order.
struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"handshakes_per_s", "1/s"},
    {"round_p50_ms", "ms"},
    {"round_p95_ms", "ms"},
    {"wire_bytes_per_handshake", "B"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    // set-up
    {"backend.provision_ms", "ms"},
    {"backend.registrations", "count"},
    {"argus.testbed_build_ms", "ms"},
    {"crypto.ec.fixed_base_init_ms", "ms"},
    {"crypto.ec.fixed_base_init_count", "count"},
    {"setup.crypto.ecdsa.sign_ms", "ms"},
    {"setup.crypto.hmac.sha256_ms", "ms"},
    // crypto, measured phase
    {"crypto.ec.shamir_verify_ms", "ms"},
    {"crypto.ec.shamir_verify_count", "count"},
    {"crypto.ec.scalar_mul_ms", "ms"},
    {"crypto.ec.scalar_mul_count", "count"},
    {"crypto.ec.scalar_mul_base_ms", "ms"},
    {"crypto.ec.scalar_mul_base_count", "count"},
    {"crypto.ec.precomp_mul_ms", "ms"},
    {"crypto.ec.precomp_mul_count", "count"},
    {"crypto.aes.cbc_ms", "ms"},
    {"crypto.aes.cbc_count", "count"},
    {"crypto.ecdsa.sign_ms", "ms"},
    {"crypto.ecdsa.sign_count", "count"},
    {"crypto.hmac.sha256_ms", "ms"},
    {"crypto.hmac.sha256_count", "count"},
    {"crypto.ecdsa.verify_ms", "ms"},
    {"crypto.ecdsa.verify_count", "count"},
    {"crypto.ecdsa.verify_batch_ms", "ms"},
    {"crypto.ecdsa.verify_batch_count", "count"},
    {"crypto.precomp_cache.hits", "count"},
    {"crypto.precomp_cache.misses", "count"},
    {"crypto.precomp_cache.hit_ratio", "ratio"},
    // argus engines
    {"argus.subject.handle_res1_l1_ms", "ms"},
    {"argus.subject.handle_res1_l1_count", "count"},
    {"argus.subject.handle_res1_ms", "ms"},
    {"argus.subject.handle_res1_count", "count"},
    {"argus.subject.handle_res2_ms", "ms"},
    {"argus.subject.handle_res2_count", "count"},
    {"argus.object.handle_que1_ms", "ms"},
    {"argus.object.handle_que1_count", "count"},
    {"argus.object.handle_que2_ms", "ms"},
    {"argus.object.handle_que2_count", "count"},
    {"argus.object.handle_batch_ms", "ms"},
    {"argus.object.handle_batch_count", "count"},
    {"argus.run_round_self_ms", "ms"},
    {"argus.handshakes", "count"},
    {"argus.verifies", "count"},
    {"argus.verifies_per_handshake", "ratio"},
    {"argus.resumption_hits", "count"},
    {"argus.resumption_misses", "count"},
    {"argus.resumption_hit_ratio", "ratio"},
    {"argus.batch_verified_sigs", "count"},
    {"argus.batch_fallback_sigs", "count"},
    {"argus.batch_fallback_ratio", "ratio"},
    {"argus.rejects", "count"},
    {"argus.virtual_round_ms", "ms"},
    // net (simulator)
    {"net.sim.dispatch_ms", "ms"},
    {"net.sim.dispatch_count", "count"},
    {"net.dispatch_per_handshake", "ratio"},
    {"net.messages", "count"},
    {"net.messages_per_handshake", "ratio"},
    {"net.delivery_ratio", "ratio"},
    // harness pool
    {"pool.workers", "count"},
    {"pool.shard_busy_max_over_mean", "ratio"},
    {"pool.idle_ms", "ms"},
    {"bench.oracle_ms", "ms"},
    // transport (daemon path)
    {"transport.host.busy_ms", "ms"},
    {"transport.client.busy_ms", "ms"},
    {"transport.host.self_ms", "ms"},
    {"transport.client.self_ms", "ms"},
    {"transport.idle_ms", "ms"},
    {"transport.wait_share", "ratio"},
    {"transport.reliable.frames_sent", "count"},
    {"transport.reliable.resends", "count"},
    {"transport.reliable.resend_ratio", "ratio"},
    {"transport.reliable.dup_rx", "count"},
    {"transport.reliable.out_of_order_rx", "count"},
    {"transport.reliable.acks_sent", "count"},
    {"transport.endpoint.tx_packets", "count"},
    {"transport.endpoint.rx_packets", "count"},
    {"transport.endpoint.decode_failed", "count"},
    {"transport.packets_per_handshake", "ratio"},
    {"transport.client.que1_retransmits", "count"},
    {"transport.client.que2_retransmits", "count"},
    {"transport.netem.dropped", "count"},
    // observability
    {"obs.untraced_handshakes_per_s", "1/s"},
    {"obs.traced_handshakes_per_s", "1/s"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.accounted_share", "ratio"},
};

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"campus_l1", run_campus_l1},
    {"rediscover_l3", run_rediscover_l3},
    {"daemon_loss10", run_daemon_loss10},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Layer end_to_end(const RunResult& r) {
  Layer m;
  m["setup_s"] = median(r.setup_s);
  m["handshakes_per_s"] =
      r.timed_s > 0 ? static_cast<double>(r.handshakes) / r.timed_s : 0;
  m["round_p50_ms"] = percentile(r.round_ms, 50);
  m["round_p95_ms"] = percentile(r.round_ms, 95);
  m["wire_bytes_per_handshake"] = r.wire_bytes_per_handshake;
  m["peak_rss_mb"] = r.peak_rss_mb;
  return m;
}

template <std::size_t N>
void print_result(const RunResult& r, const Layer& values,
                  const MetricDef (&defs)[N]) {
  const bool correct = r.wrong == 0 && r.attempted > 0;
  const double failed_ratio =
      r.attempted > 0 ? static_cast<double>(r.failed + r.wrong) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("rounds: %zu  handshakes: %llu  attempted: %llu  failed: %llu  "
              "wrong: %llu  failed_ratio: %.6g\n",
              r.round_ms.size(), static_cast<unsigned long long>(r.handshakes),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong), failed_ratio);
  std::printf("round_ms n=%zu p50 %.1f p90 %.1f p95 %.1f p99 %.1f max %.1f\n",
              r.round_ms.size(), percentile(r.round_ms, 50),
              percentile(r.round_ms, 90), percentile(r.round_ms, 95),
              percentile(r.round_ms, 99), percentile(r.round_ms, 100));
  std::printf("setup_s runs:");
  for (const double s : r.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (!r.digest.empty()) std::printf("digest: %s\n", r.digest.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed + r.wrong);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    std::printf("%-40s %.6f %s\n", defs[i].name, v, defs[i].unit);
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    json += std::string(i > 0 ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + num + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool expect(bool ok, const std::string& what) {
  std::printf("  %-64s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok;
}

/// The benchmark's own test: the oracle catches a wrong expectation, the
/// configs are the shipped defaults, and the simulator workloads are
/// deterministic across repeats, pool sizes and tracing.
int self_test() {
  bool ok = true;
  std::printf("self-test: correctness oracle and defaults guard\n");
  for (const Workload& w : kWorkloads) {
    Options opts;
    opts.workload = w.name;
    opts.seed = 7;
    opts.fixed_rounds = 2;
    const RunResult good = w.run(opts);
    opts.corrupt_expectation = true;
    const RunResult bad = w.run(opts);
    const std::string name(w.name);
    for (const std::string& field : good.overrides) {
      std::printf("  %s: config differs from default: %s\n", w.name,
                  field.c_str());
    }
    ok = expect(good.overrides.empty(),
                name + ": every config built is the shipped default") &&
         ok;
    ok = expect(good.wrong == 0 && good.failed == 0 && good.attempted > 0,
                name + ": clean run has no wrong service") &&
         ok;
    ok = expect(bad.wrong > 0, name + ": wrong expectation is caught") && ok;
  }

  std::printf("self-test: determinism of the simulator workloads\n");
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, "daemon_loss10") == 0) continue;  // wall clock
    Options opts;
    opts.workload = w.name;
    opts.seed = 11;
    opts.fixed_rounds = 2;
    opts.workers = 1;
    const RunResult one = w.run(opts);
    opts.workers = 4;
    const RunResult four = w.run(opts);
    const RunResult again = w.run(opts);
    opts.trace = true;
    const RunResult traced = w.run(opts);
    const auto same = [](const RunResult& x, const RunResult& y) {
      return x.digest == y.digest && x.round_ms == y.round_ms &&
             x.virtual_round_ms == y.virtual_round_ms &&
             x.wire_bytes_per_handshake == y.wire_bytes_per_handshake;
    };
    std::printf("  %s digest %.16s... virtual_round_ms %.6f wire %.3f B/hs\n",
                w.name, one.digest.c_str(), one.virtual_round_ms,
                one.wire_bytes_per_handshake);
    const std::string name(w.name);
    ok = expect(same(one, again) && same(four, again),
                name + ": same across repeats and 1 vs 4 workers") &&
         ok;
    ok = expect(same(four, traced), name + ": same traced and untraced") && ok;
  }
  std::printf(ok ? "self-test OK\n" : "self-test FAILED\n");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: argus_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       argus_perfbench --self-test\n"
               "workloads: campus_l1 rediscover_l3 daemon_loss10\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") return self_test();
    if (!has_value) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(opts.workload);
  if (w == nullptr || opts.seconds <= 0) return usage();
  std::printf("workload %s seed %llu seconds %g trace %d workers %zu\n",
              w->name, static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, pool_workers(opts));
  const RunResult r = w->run(opts);
  if (opts.trace) {
    print_result(r, r.layer, kPerLayer);
  } else {
    print_result(r, end_to_end(r), kEndToEnd);
  }
  return r.wrong == 0 && r.attempted > 0 ? 0 : 1;
}
