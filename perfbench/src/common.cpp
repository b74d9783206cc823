#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

std::size_t pool_workers(const Options& opts) {
  if (opts.workers > 0) return opts.workers;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 4);
}

bool expected_service(const backend::SubjectCredentials& subject,
                      std::size_t group_idx,
                      const backend::ObjectCredentials& object,
                      ServiceKey* out) {
  if (object.level == backend::Level::kL1) {
    *out = ServiceKey{object.id, 1, object.public_prof.variant_tag};
    return true;
  }
  if (object.level == backend::Level::kL3 && !subject.group_keys.empty()) {
    const backend::SubjectGroupKey& key =
        subject.group_keys[group_idx % subject.group_keys.size()];
    for (const backend::ProfVariant3& v3 : object.variants3) {
      if (v3.group_id == key.group_id && v3.group_key == key.key) {
        *out = ServiceKey{object.id, 3, v3.prof.variant_tag};
        return true;
      }
    }
  }
  for (const backend::ProfVariant2& v2 : object.variants2) {
    if (v2.predicate.matches(subject.prof.attributes)) {
      *out = ServiceKey{object.id, 2, v2.prof.variant_tag};
      return true;
    }
  }
  return false;
}

ServiceSet to_service_set(const std::vector<core::DiscoveredService>& found) {
  ServiceSet out;
  for (const core::DiscoveredService& s : found) {
    out.insert(ServiceKey{s.object_id, s.level, s.variant_tag});
  }
  return out;
}

std::size_t service_mismatches(const ServiceSet& expected,
                               const ServiceSet& observed) {
  std::vector<ServiceKey> diff;
  std::set_symmetric_difference(expected.begin(), expected.end(),
                                observed.begin(), observed.end(),
                                std::back_inserter(diff));
  return diff.size();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[128];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double ms_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs::prof::now_ns() - t0_ns) / 1e6;
}

std::map<std::string, LabelStat> label_stats(const obs::prof::Profiler& prof) {
  std::map<std::string, LabelStat> out;
  for (const auto& [label, st] : prof.by_label()) {
    LabelStat& s = out[label];
    s.self_ms += static_cast<double>(st.self_ns) / 1e6;
    s.incl_ms += static_cast<double>(st.incl_ns) / 1e6;
    s.count += static_cast<double>(st.count);
  }
  return out;
}

namespace {

LabelStat sum_labels(const std::map<std::string, LabelStat>& stats,
                     std::initializer_list<const char*> labels) {
  LabelStat out;
  for (const char* label : labels) {
    if (const auto it = stats.find(label); it != stats.end()) {
      out.self_ms += it->second.self_ms;
      out.incl_ms += it->second.incl_ms;
      out.count += it->second.count;
    }
  }
  return out;
}

}  // namespace

void add_span_layers(const std::map<std::string, LabelStat>& stats,
                     std::uint64_t handshakes, Layer* layer) {
  struct Row {
    const char* metric;
    std::initializer_list<const char*> labels;
  };
  const Row rows[] = {
      {"crypto.ec.shamir_verify", {"crypto.ec.shamir_verify"}},
      {"crypto.ec.scalar_mul", {"crypto.ec.scalar_mul"}},
      {"crypto.ec.scalar_mul_base", {"crypto.ec.scalar_mul_base"}},
      {"crypto.ec.precomp_mul", {"crypto.ec.precomp_mul"}},
      {"crypto.aes.cbc", {"crypto.aes.cbc_encrypt", "crypto.aes.cbc_decrypt"}},
      {"crypto.ecdsa.sign", {"crypto.ecdsa.sign"}},
      {"crypto.hmac.sha256", {"crypto.hmac.sha256"}},
      {"crypto.ecdsa.verify", {"crypto.ecdsa.verify"}},
      {"crypto.ecdsa.verify_batch", {"crypto.ecdsa.verify_batch"}},
      {"argus.subject.handle_res1_l1", {"subject.handle_res1_l1"}},
      {"argus.subject.handle_res1", {"subject.handle_res1"}},
      {"argus.subject.handle_res2", {"subject.handle_res2"}},
      {"argus.object.handle_que1", {"object.handle_que1"}},
      {"argus.object.handle_que2", {"object.handle_que2"}},
      {"argus.object.handle_batch", {"object.handle_batch"}},
      {"net.sim.dispatch", {"sim.dispatch"}},
  };
  for (const Row& row : rows) {
    const LabelStat s = sum_labels(stats, row.labels);
    (*layer)[std::string(row.metric) + "_ms"] = s.self_ms;
    (*layer)[std::string(row.metric) + "_count"] = s.count;
  }
  const double hs = static_cast<double>(handshakes);
  const double verifies =
      sum_labels(stats, {"crypto.ecdsa.verify", "crypto.ecdsa.verify_batch"})
          .count;
  (*layer)["argus.handshakes"] = hs;
  (*layer)["argus.verifies"] = verifies;
  (*layer)["argus.verifies_per_handshake"] = ratio(verifies, hs);
  (*layer)["net.dispatch_per_handshake"] =
      ratio(sum_labels(stats, {"sim.dispatch"}).count, hs);
  (*layer)["argus.run_round_self_ms"] =
      sum_labels(stats, {"argus.run_round"}).self_ms;
  (*layer)["bench.oracle_ms"] = sum_labels(stats, {"bench.oracle"}).self_ms;
}

void add_setup_layers(const std::map<std::string, LabelStat>& stats,
                      std::size_t registrations, std::size_t setups,
                      Layer* layer) {
  const double n = static_cast<double>(std::max<std::size_t>(setups, 1));
  (*layer)["backend.provision_ms"] =
      sum_labels(stats, {"backend.provision"}).incl_ms / n;
  (*layer)["backend.registrations"] = static_cast<double>(registrations);
  (*layer)["argus.testbed_build_ms"] =
      sum_labels(stats, {"argus.testbed_build"}).incl_ms / n;
  // The fixed-base comb tables are built once per process, inside the
  // first set-up: reported as that one-off cost, not averaged.
  const LabelStat fb = sum_labels(stats, {"crypto.ec.fixed_base_init"});
  (*layer)["crypto.ec.fixed_base_init_ms"] = fb.self_ms;
  (*layer)["crypto.ec.fixed_base_init_count"] = fb.count;
  (*layer)["setup.crypto.ecdsa.sign_ms"] =
      sum_labels(stats, {"crypto.ecdsa.sign"}).self_ms / n;
  (*layer)["setup.crypto.hmac.sha256_ms"] =
      sum_labels(stats, {"crypto.hmac.sha256"}).self_ms / n;
}

double total_self_ms(const std::map<std::string, LabelStat>& stats) {
  double total = 0;
  for (const auto& [label, s] : stats) total += s.self_ms;
  return total;
}

}  // namespace perfbench
