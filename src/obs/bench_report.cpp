#include "obs/bench_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/json.hpp"

#ifndef ARGUS_GIT_SHA
#define ARGUS_GIT_SHA "unknown"
#endif

namespace argus::obs::bench {

namespace {

// The committed trajectory number form: integral values as %.0f, others
// as %.9g. It deliberately differs from json::put_number (100000 stays
// "100000", not "1e+05") so appending never rewrites history lines.
void put_metric_number(std::string& out, double v) {
  char buf[64];
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

std::string entry_json(const BenchEntry& e) {
  std::string out = "{\"git_sha\":";
  json::put_string(out, e.git_sha);
  out += ",\"date_utc\":";
  json::put_string(out, e.date_utc);
  out += ",\"threads\":" + std::to_string(e.threads);
  out += ",\"cpus\":" + std::to_string(e.cpus);
  out += ",\"repeat\":" + std::to_string(e.repeat);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : e.metrics) {
    if (!first) out += ',';
    first = false;
    json::put_string(out, name);
    out += ":{\"value\":";
    put_metric_number(out, m.value);
    out += ",\"unit\":";
    json::put_string(out, m.unit);
    out += ",\"source\":";
    json::put_string(out, m.source);
    out += ",\"dir\":\"";
    out += m.lower_is_better ? "lower" : "higher";
    out += "\"}";
  }
  out += "}}";
  return out;
}

// The string member `key` of `v`, or "" when absent or not a string.
std::string string_member(const json::Value& v, std::string_view key) {
  const json::Value* m = v.find(key);
  const auto s = m != nullptr ? m->as_string() : std::nullopt;
  return s ? std::string(*s) : std::string();
}

// The integer member `key` of `v`, or 0 when absent or not a u64.
std::uint64_t u64_member(const json::Value& v, std::string_view key) {
  const json::Value* m = v.find(key);
  return m != nullptr ? m->as_u64().value_or(0) : 0;
}

bool parse_entry(const json::Value& v, BenchEntry& out, std::string* error) {
  if (!v.is(json::Value::Kind::kObject)) {
    if (error) *error = "entry is not an object";
    return false;
  }
  out.git_sha = string_member(v, "git_sha");
  out.date_utc = string_member(v, "date_utc");
  out.threads = u64_member(v, "threads");
  out.cpus = u64_member(v, "cpus");
  out.repeat = u64_member(v, "repeat");
  if (out.repeat == 0) out.repeat = 1;
  const json::Value* metrics = v.find("metrics");
  if (metrics == nullptr || !metrics->is(json::Value::Kind::kObject)) {
    if (error) *error = "entry has no metrics object";
    return false;
  }
  for (const auto& [name, mv] : metrics->members) {
    if (!mv.is(json::Value::Kind::kObject)) {
      if (error) *error = "metric '" + name + "' is not an object";
      return false;
    }
    const json::Value* value = mv.find("value");
    const auto number = value != nullptr ? value->as_double() : std::nullopt;
    if (!number) {
      if (error) *error = "metric '" + name + "' has no numeric value";
      return false;
    }
    Metric m;
    m.value = *number;
    m.unit = string_member(mv, "unit");
    m.source = string_member(mv, "source");
    m.lower_is_better = string_member(mv, "dir") != "higher";
    out.metrics.emplace(name, std::move(m));
  }
  return true;
}

}  // namespace

std::optional<Trajectory> load_trajectory(std::istream& is,
                                          std::string* error) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  std::string parse_error;
  const auto v = json::parse(text, &parse_error);
  if (!v) {
    if (error) *error = parse_error;
    return std::nullopt;
  }
  if (!v->is(json::Value::Kind::kObject)) {
    if (error) *error = "trajectory is not a JSON object";
    return std::nullopt;
  }
  Trajectory t;
  const json::Value* schema = v->find("schema");
  if (schema == nullptr || !schema->is(json::Value::Kind::kNumber)) {
    if (error) *error = "missing schema version";
    return std::nullopt;
  }
  t.schema = static_cast<int>(std::min<std::uint64_t>(
      schema->as_u64().value_or(0), std::numeric_limits<int>::max()));
  if (t.schema != kSchemaVersion) {
    if (error) {
      *error = "unsupported schema v" + std::to_string(t.schema) +
               " (expected v" + std::to_string(kSchemaVersion) + ")";
    }
    return std::nullopt;
  }
  t.name = string_member(*v, "name");
  const json::Value* entries = v->find("entries");
  if (entries == nullptr || !entries->is(json::Value::Kind::kArray)) {
    if (error) *error = "missing entries array";
    return std::nullopt;
  }
  for (const json::Value& ev : entries->items) {
    BenchEntry e;
    if (!parse_entry(ev, e, error)) return std::nullopt;
    t.entries.push_back(std::move(e));
  }
  return t;
}

void write_trajectory(std::ostream& os, const Trajectory& t) {
  std::string out = "{\"schema\":" + std::to_string(t.schema) + ",\"name\":";
  json::put_string(out, t.name);
  out += ",\"entries\":[";
  for (std::size_t i = 0; i < t.entries.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += entry_json(t.entries[i]);
  }
  out += "\n]}\n";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

BenchReporter::BenchReporter(std::string name) : name_(std::move(name)) {
  entry_.git_sha = ARGUS_GIT_SHA;
  entry_.cpus = std::thread::hardware_concurrency();
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  entry_.date_utc = buf;
}

void BenchReporter::set_threads(std::size_t threads) {
  entry_.threads =
      threads == 0 ? std::thread::hardware_concurrency() : threads;
}

void BenchReporter::set_repeat(std::uint64_t repeat) {
  entry_.repeat = repeat == 0 ? 1 : repeat;
}

void BenchReporter::metric(const std::string& name, double value,
                           const std::string& unit, const std::string& source,
                           bool lower_is_better) {
  entry_.metrics[name] = Metric{value, unit, source, lower_is_better};
}

void BenchReporter::add_counters(const MetricsRegistry& metrics,
                                 const std::string& prefix) {
  for (const auto& [name, counter] : metrics.counters()) {
    metric(prefix + name, static_cast<double>(counter.value()), "count",
           "virtual");
  }
}

void BenchReporter::add_profile(const prof::Profiler& profiler) {
  for (const auto& [label, stat] : profiler.by_label()) {
    metric("wall.self_ms." + label,
           static_cast<double>(stat.self_ns) / 1e6, "ms", "wall");
  }
}

std::string trajectory_path(const std::string& name) {
  return "BENCH_" + name + ".json";
}

bool BenchReporter::append_to(const std::string& path,
                              std::string* error) const {
  Trajectory t;
  t.name = name_;
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::string load_error;
    const auto existing = load_trajectory(in, &load_error);
    if (!existing) {
      if (error) *error = path + ": " + load_error;
      return false;
    }
    if (existing->schema != kSchemaVersion) {
      if (error) {
        *error = path + ": schema v" + std::to_string(existing->schema) +
                 " != v" + std::to_string(kSchemaVersion);
      }
      return false;
    }
    if (existing->name != name_) {
      if (error) {
        *error = path + ": trajectory is for '" + existing->name + "', not '" +
                 name_ + "'";
      }
      return false;
    }
    t = *existing;
  }
  t.entries.push_back(entry_);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error) *error = "cannot write " + tmp;
      return false;
    }
    write_trajectory(out, t);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error) *error = "cannot rename " + tmp + " to " + path;
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "OK";
    case Verdict::kWarn: return "WARN";
    case Verdict::kFail: return "FAIL";
    case Verdict::kSchemaMismatch: return "SCHEMA-MISMATCH";
    case Verdict::kBaseline: return "BASELINE";
  }
  return "?";
}

DiffResult compare_entries(const BenchEntry& before, const BenchEntry& after,
                           const DiffThresholds& thresholds) {
  DiffResult result;
  for (const auto& [name, b] : before.metrics) {
    MetricDelta d;
    d.name = name;
    d.source = b.source;
    d.before = b.value;
    const auto it = after.metrics.find(name);
    if (it == after.metrics.end()) {
      d.only_in_one = true;
      d.gated = false;
      result.deltas.push_back(std::move(d));
      continue;
    }
    const Metric& a = it->second;
    d.after = a.value;
    d.gated = b.source == "virtual" || thresholds.gate_wall;
    if (b.value != 0) {
      const double change_pct = (a.value - b.value) / std::fabs(b.value) * 100;
      d.regress_pct = b.lower_is_better ? change_pct : -change_pct;
    } else if (a.value != 0) {
      // From zero to nonzero: a regression iff growth is bad.
      d.regress_pct = b.lower_is_better ? 100.0 : -100.0;
    }
    if (d.gated && d.regress_pct > thresholds.fail_pct) {
      d.severity = Verdict::kFail;
    } else if (d.gated && d.regress_pct > thresholds.warn_pct) {
      d.severity = Verdict::kWarn;
    }
    if (static_cast<int>(d.severity) > static_cast<int>(result.verdict)) {
      result.verdict = d.severity;
    }
    result.deltas.push_back(std::move(d));
  }
  for (const auto& [name, a] : after.metrics) {
    if (before.metrics.contains(name)) continue;
    MetricDelta d;
    d.name = name;
    d.source = a.source;
    d.after = a.value;
    d.only_in_one = true;
    d.gated = false;
    result.deltas.push_back(std::move(d));
  }
  std::sort(result.deltas.begin(), result.deltas.end(),
            [](const MetricDelta& x, const MetricDelta& y) {
              return x.name < y.name;
            });
  return result;
}

DiffResult compare_trajectories(const Trajectory& before,
                                const Trajectory* after,
                                const DiffThresholds& thresholds) {
  DiffResult result;
  const auto mismatch = [&result](std::string why) {
    result.verdict = Verdict::kSchemaMismatch;
    result.error = std::move(why);
    return result;
  };
  if (before.schema != kSchemaVersion) {
    return mismatch("unsupported schema v" + std::to_string(before.schema));
  }
  if (after != nullptr) {
    if (after->schema != kSchemaVersion) {
      return mismatch("unsupported schema v" + std::to_string(after->schema));
    }
    if (before.name != after->name) {
      return mismatch("trajectory names differ: '" + before.name + "' vs '" +
                      after->name + "'");
    }
    if (after->entries.empty()) {
      return mismatch("empty trajectory");
    }
    if (before.entries.empty()) {
      // First run of a new bench: the before-file exists but holds no
      // entries yet. The after-entry is the baseline, not a regression.
      result.verdict = Verdict::kBaseline;
      return result;
    }
    return compare_entries(before.entries.back(), after->entries.back(),
                           thresholds);
  }
  if (before.entries.size() == 1) {
    // A freshly seeded trajectory: this entry is the baseline future
    // entries will diff against.
    result.verdict = Verdict::kBaseline;
    return result;
  }
  if (before.entries.empty()) {
    return mismatch("need two entries to compare, have 0");
  }
  return compare_entries(before.entries[before.entries.size() - 2],
                         before.entries.back(), thresholds);
}

void write_diff_report(std::ostream& os, const DiffResult& result) {
  char buf[512];
  if (result.verdict == Verdict::kSchemaMismatch) {
    os << "benchdiff: " << result.error << "\n";
    return;
  }
  if (result.verdict == Verdict::kBaseline) {
    os << "benchdiff: baseline recorded — first entry, nothing to compare "
          "yet\n";
    return;
  }
  std::snprintf(buf, sizeof(buf), "  %-44s %12s %12s %9s  %s\n", "metric",
                "before", "after", "regress%", "verdict");
  os << buf;
  for (const MetricDelta& d : result.deltas) {
    if (d.only_in_one) {
      std::snprintf(buf, sizeof(buf), "  %-44s %12s %12s %9s  %s\n",
                    d.name.c_str(), d.before != 0 ? "-" : "(new)",
                    d.before != 0 ? "(gone)" : "-", "-", "-");
      os << buf;
      continue;
    }
    std::snprintf(buf, sizeof(buf), "  %-44s %12.4g %12.4g %+9.2f  %s%s\n",
                  d.name.c_str(), d.before, d.after, d.regress_pct,
                  d.severity == Verdict::kOk ? (d.gated ? "ok" : "info")
                                             : verdict_name(d.severity),
                  d.gated ? "" : " (ungated)");
    os << buf;
  }
  os << "verdict: " << verdict_name(result.verdict) << "\n";
}

}  // namespace argus::obs::bench
