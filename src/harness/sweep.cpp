#include "harness/sweep.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "backend/registry.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"

namespace argus::harness {

namespace {

backend::Level to_level(int level) {
  switch (level) {
    case 1: return backend::Level::kL1;
    case 2: return backend::Level::kL2;
    case 3: return backend::Level::kL3;
  }
  throw std::invalid_argument("SweepPoint.level must be 1..3");
}

}  // namespace

std::vector<SweepPoint> expand(const GridSpec& spec) {
  std::vector<SweepPoint> grid;
  grid.reserve(spec.seeds.size() * spec.crash.size() * spec.straggle.size() *
               spec.zombie.size() * spec.byzantine.size() *
               spec.flood_rate.size() * spec.queue_depth.size() *
               spec.drop.size() * spec.hops.size() * spec.objects.size() *
               spec.levels.size());
  for (const std::uint64_t seed : spec.seeds) {
    for (const double crash : spec.crash) {
      for (const double straggle : spec.straggle) {
        for (const double zombie : spec.zombie) {
          for (const double byzantine : spec.byzantine) {
            for (const double flood_rate : spec.flood_rate) {
              for (const std::size_t queue_depth : spec.queue_depth) {
                for (const double drop : spec.drop) {
                  for (const unsigned hops : spec.hops) {
                    for (const std::size_t n : spec.objects) {
                      for (const int level : spec.levels) {
                        SweepPoint p;
                        p.level = level;
                        p.objects = n;
                        p.hops = hops;
                        p.per_ring = spec.per_ring;
                        p.drop = drop;
                        p.seed = seed;
                        p.crash = crash;
                        p.straggle = straggle;
                        p.zombie = zombie;
                        p.byzantine = byzantine;
                        p.reboot_ms = spec.reboot_ms;
                        p.snapshot_reboot = spec.snapshot_reboot;
                        p.flood_rate = flood_rate;
                        p.queue_depth = queue_depth;
                        grid.push_back(p);
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

std::string point_label(const SweepPoint& point) {
  std::string out = "L" + std::to_string(point.level) +
                    " n=" + std::to_string(point.objects);
  if (point.per_ring > 0) {
    out += " rings=" + std::to_string(point.per_ring);
  } else {
    out += " hops=" + std::to_string(point.hops);
  }
  out += " drop=";
  json::put_number(out, point.drop);
  out += " seed=" + std::to_string(point.seed);
  // Fault axes appear only when armed, keeping fault-free labels stable.
  if (point.crash > 0) {
    out += " crash=";
    json::put_number(out, point.crash);
    if (point.reboot_ms >= 0) {
      out += " reboot=";
      json::put_number(out, point.reboot_ms);
      if (point.snapshot_reboot) out += " snapshot";
    }
  }
  if (point.straggle > 0) {
    out += " straggle=";
    json::put_number(out, point.straggle);
  }
  if (point.zombie > 0) {
    out += " zombie=";
    json::put_number(out, point.zombie);
  }
  if (point.byzantine > 0) {
    out += " byz=";
    json::put_number(out, point.byzantine);
  }
  // Overload axes likewise appear only when armed.
  if (point.flood_rate > 0) {
    out += " flood=";
    json::put_number(out, point.flood_rate);
  }
  if (point.queue_depth > 0) {
    out += " qdepth=" + std::to_string(point.queue_depth);
  }
  return out;
}

core::DiscoveryScenario make_scenario(const SweepPoint& point) {
  backend::Backend be(crypto::Strength::b128, point.seed);
  auto subject = be.register_subject(
      "alice", backend::AttributeMap{{"position", "employee"}}, {"support"});
  core::DiscoveryScenario sc;
  sc.admin_pub = be.admin_public_key();
  const backend::Level level = to_level(point.level);
  for (std::size_t i = 0; i < point.objects; ++i) {
    const std::string id = "obj-" + std::to_string(i);
    backend::ObjectCredentials creds;
    switch (level) {
      case backend::Level::kL1:
        creds = be.register_object(id, backend::AttributeMap{{"type", "sensor"}},
                                   backend::Level::kL1, {"read"});
        break;
      case backend::Level::kL2:
        creds = be.register_object(
            id, backend::AttributeMap{{"type", "multimedia"}},
            backend::Level::kL2, {},
            {{"position=='employee'", "staff", {"use"}}});
        break;
      case backend::Level::kL3:
        creds = be.register_object(
            id, backend::AttributeMap{{"type", "kiosk"}}, backend::Level::kL3,
            {}, {{"position=='employee'", "staff", {"use"}}},
            {{"support", "covert", {"use", "support"}}});
        break;
    }
    const unsigned hops =
        point.per_ring > 0 ? static_cast<unsigned>(1 + i / point.per_ring)
                           : point.hops;
    sc.objects.push_back(core::ScenarioObject{std::move(creds), hops});
  }
  sc.subject = std::move(subject);
  sc.epoch = be.now();
  sc.radio.drop_prob = point.drop;
  sc.seed = point.seed;
  // All-zero rates leave the plan unarmed: run_discovery schedules no
  // chaos timers and the cell is byte-identical to a fault-free build.
  sc.faults.crash_rate = point.crash;
  sc.faults.straggle_rate = point.straggle;
  sc.faults.zombie_rate = point.zombie;
  sc.faults.byzantine_rate = point.byzantine;
  sc.faults.reboot_after_ms = point.reboot_ms;
  if (point.snapshot_reboot) {
    sc.faults.reboot_policy = fault::RebootPolicy::kFromSnapshot;
  }
  sc.faults.seed = point.seed;
  // Fault onsets land inside the discovery window (paper fleets finish in
  // ~150-600 virtual ms); the plan's 2000ms default would put most faults
  // after the protocol already completed.
  sc.faults.horizon_ms = 600.0;
  // Overload axes: a flooded cell gets a QUE1-storm adversary plus
  // object-side admission control (flood without protection just measures
  // an unbounded queue melting down); a bounded-queue cell sheds overflow
  // by evicting the oldest parked message.
  if (point.flood_rate > 0) {
    sc.flood.rate_per_s = point.flood_rate;
    sc.flood.kind = core::FloodSpec::Kind::kQue1Storm;
    sc.flood.seed = point.seed + 77;
    sc.admission.enabled = true;
  }
  if (point.queue_depth > 0) {
    sc.radio.queue_depth = point.queue_depth;
    sc.radio.queue_policy = net::QueuePolicy::kDropOldest;
  }
  return sc;
}

std::vector<RunResult> SweepRunner::run(
    std::size_t n, const std::function<RunSpec(std::size_t)>& make) const {
  std::vector<RunResult> results(n);
  const auto one = [&](std::size_t i) {
    // Everything below is run-local: the factory's Backend, the tracer,
    // the registry, and (inside run_discovery) the Simulator and the
    // network's DRBG stream. Slot i is this task's only shared write.
    // The profiler lane is keyed by grid index (deterministic), not by
    // worker thread; wall times never reach the digest inputs below.
    std::optional<obs::prof::Profiler::Attach> prof_attach;
    if (opts_.profiler != nullptr) prof_attach.emplace(*opts_.profiler, i + 1);
    ARGUS_PROF_SCOPE("harness.run");
    RunSpec spec = make(i);
    RunResult& out = results[i];
    out.label = std::move(spec.label);
    obs::Tracer trace;
    obs::MetricsRegistry metrics;
    out.reports.reserve(spec.scenarios.size());
    for (core::DiscoveryScenario& sc : spec.scenarios) {
      sc.tracer = &trace;
      sc.metrics = &metrics;
      out.reports.push_back(core::run_discovery(sc));
    }
    crypto::Sha256 h;
    {
      std::ostringstream jsonl;
      obs::write_jsonl(trace, jsonl);
      h.update(str_bytes(jsonl.str()));
    }
    h.update(str_bytes(counters_text(metrics)));
    for (const core::DiscoveryReport& report : out.reports) {
      h.update(str_bytes(report_json(report)));
    }
    out.digest = to_hex(h.finish());
    if (opts_.keep_traces) out.trace = std::move(trace);
    if (opts_.keep_metrics) out.metrics = std::move(metrics);
  };
  if (opts_.threads == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) one(i);
  } else {
    ThreadPool pool(opts_.threads);
    parallel_for(pool, n, one);
  }
  return results;
}

std::vector<RunResult> SweepRunner::run(
    const std::vector<SweepPoint>& grid) const {
  return run(grid.size(), [&grid](std::size_t i) {
    RunSpec spec;
    spec.label = point_label(grid[i]);
    spec.scenarios.push_back(make_scenario(grid[i]));
    return spec;
  });
}

PartitionedResult SweepRunner::run_partitioned(const SweepPoint& point,
                                               std::size_t shards) const {
  if (shards == 0) throw std::invalid_argument("run_partitioned: 0 shards");
  shards = std::min(shards, std::max<std::size_t>(point.objects, 1));
  // Even split, remainder on the leading shards — the partition is a
  // function of (objects, shards) alone, never of thread scheduling.
  const std::size_t base = point.objects / shards;
  const std::size_t rem = point.objects % shards;
  std::vector<RunResult> results =
      run(shards, [&point, base, rem, shards](std::size_t i) {
        SweepPoint shard = point;
        shard.objects = base + (i < rem ? 1 : 0);
        // Distinct backend/radio/fault realm per shard; shard 0 keeps the
        // point's own seed so a 1-shard partition is the plain run.
        shard.seed = point.seed + i;
        RunSpec spec;
        spec.label = point_label(point) + " shard=" + std::to_string(i) + "/" +
                     std::to_string(shards);
        spec.scenarios.push_back(make_scenario(shard));
        return spec;
      });
  PartitionedResult out;
  crypto::Sha256 h;
  core::DiscoveryReport& sum = out.combined;
  for (const RunResult& res : results) {
    const core::DiscoveryReport& r = res.report();
    // Shards run concurrently (independent buildings): the campus is done
    // when its slowest shard is.
    sum.total_ms = std::max(sum.total_ms, r.total_ms);
    sum.services.insert(sum.services.end(), r.services.begin(),
                        r.services.end());
    sum.timeline.insert(sum.timeline.end(), r.timeline.begin(),
                        r.timeline.end());
    sum.outcomes.insert(sum.outcomes.end(), r.outcomes.begin(),
                        r.outcomes.end());
    sum.net_stats.messages += r.net_stats.messages;
    sum.net_stats.bytes += r.net_stats.bytes;
    sum.net_stats.hop_bytes += r.net_stats.hop_bytes;
    sum.net_stats.channel_busy_ms += r.net_stats.channel_busy_ms;
    sum.net_stats.deliveries += r.net_stats.deliveries;
    sum.net_stats.dropped += r.net_stats.dropped;
    sum.net_stats.duplicates += r.net_stats.duplicates;
    sum.net_stats.fault_dropped += r.net_stats.fault_dropped;
    sum.net_stats.no_dest_dropped += r.net_stats.no_dest_dropped;
    sum.net_stats.queue_rejected += r.net_stats.queue_rejected;
    sum.net_stats.queue_evicted += r.net_stats.queue_evicted;
    sum.net_stats.queue_peak =
        std::max(sum.net_stats.queue_peak, r.net_stats.queue_peak);
    sum.subject_compute_ms += r.subject_compute_ms;
    sum.object_compute_ms += r.object_compute_ms;
    for (const auto& [type, bytes] : r.bytes_by_msg) {
      sum.bytes_by_msg[type] += bytes;
    }
    sum.offered_messages += r.offered_messages;
    sum.offered_bytes += r.offered_bytes;
    sum.que1_retransmits += r.que1_retransmits;
    sum.que2_retransmits += r.que2_retransmits;
    for (const auto& [kind, count] : r.fault_counts) {
      sum.fault_counts[kind] += count;
    }
    sum.shed_overload += r.shed_overload;
    sum.rate_limited += r.rate_limited;
    h.update(str_bytes(res.digest));
  }
  const std::uint64_t rx =
      sum.net_stats.deliveries + sum.net_stats.dropped;
  sum.delivery_ratio =
      rx == 0 ? 1.0
              : static_cast<double>(sum.net_stats.deliveries) /
                    static_cast<double>(rx);
  out.digest = to_hex(h.finish());
  out.shards = std::move(results);
  return out;
}

void write_jsonl_line(std::ostream& os, const SweepPoint& point,
                      const RunResult& result) {
  const core::DiscoveryReport& r = result.report();
  std::string line;
  line.append("{\"level\":" + std::to_string(point.level));
  line.append(",\"objects\":" + std::to_string(point.objects));
  if (point.per_ring > 0) {
    line.append(",\"per_ring\":" + std::to_string(point.per_ring));
  } else {
    line.append(",\"hops\":" + std::to_string(point.hops));
  }
  line.append(",\"drop\":");
  json::put_number(line, point.drop);
  line.append(",\"seed\":" + std::to_string(point.seed));
  // Fault axes and effects appear only in chaos cells, so fault-free
  // JSONL bytes are unchanged from pre-fault builds.
  const bool chaos_cell = point.crash > 0 || point.straggle > 0 ||
                          point.zombie > 0 || point.byzantine > 0;
  if (chaos_cell) {
    line.append(",\"crash\":");
    json::put_number(line, point.crash);
    line.append(",\"straggle\":");
    json::put_number(line, point.straggle);
    line.append(",\"zombie\":");
    json::put_number(line, point.zombie);
    line.append(",\"byz\":");
    json::put_number(line, point.byzantine);
    if (point.crash > 0 && point.reboot_ms >= 0) {
      line.append(",\"reboot\":");
      json::put_number(line, point.reboot_ms);
    }
    line.append(",\"fault_dropped\":" +
                std::to_string(r.net_stats.fault_dropped));
  }
  // Overload axes and effects likewise appear only in armed cells.
  if (point.flood_rate > 0) {
    line.append(",\"flood\":");
    json::put_number(line, point.flood_rate);
    line.append(",\"shed_overload\":" + std::to_string(r.shed_overload));
    line.append(",\"rate_limited\":" + std::to_string(r.rate_limited));
  }
  if (point.queue_depth > 0) {
    line.append(",\"qdepth\":" + std::to_string(point.queue_depth));
    line.append(",\"queue_rejected\":" +
                std::to_string(r.net_stats.queue_rejected));
    line.append(",\"queue_evicted\":" +
                std::to_string(r.net_stats.queue_evicted));
  }
  line.append(",\"total_ms\":");
  json::put_number(line, r.total_ms);
  line.append(",\"found\":" + std::to_string(r.services.size()));
  line.append(",\"delivery_ratio\":");
  json::put_number(line, r.delivery_ratio);
  line.append(",\"que1_rtx\":" + std::to_string(r.que1_retransmits));
  line.append(",\"que2_rtx\":" + std::to_string(r.que2_retransmits));
  line.append(",\"messages\":" + std::to_string(r.net_stats.messages));
  line.append(",\"bytes\":" + std::to_string(r.net_stats.bytes));
  line.append(",\"digest\":\"" + result.digest + "\"}\n");
  os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

obs::MetricsRegistry rollup_metrics(const std::vector<RunResult>& results) {
  obs::MetricsRegistry rollup;
  for (const RunResult& res : results) {
    if (res.metrics.has_value()) rollup.merge_from(*res.metrics);
  }
  return rollup;
}

void write_rollup_line(std::ostream& os, const obs::MetricsRegistry& rollup,
                       std::size_t runs) {
  std::string line = "{\"rollup\":true,\"runs\":" + std::to_string(runs);
  line.append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, c] : rollup.counters()) {
    if (!first) line.append(",");
    first = false;
    json::put_string(line, name);
    line.append(":" + std::to_string(c.value()));
  }
  line.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : rollup.histograms()) {
    if (!first) line.append(",");
    first = false;
    json::put_string(line, name);
    line.append(":{\"count\":" + std::to_string(h.count()));
    line.append(",\"sum\":");
    json::put_number(line, h.sum());
    line.append(",\"p50\":");
    json::put_number(line, h.p50());
    line.append(",\"p95\":");
    json::put_number(line, h.p95());
    line.append(",\"p99\":");
    json::put_number(line, h.p99());
    line.append("}");
  }
  line.append("}}\n");
  os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace argus::harness
