#include "obs/bench_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/prof.hpp"

namespace argus::obs::bench {
namespace {

BenchEntry entry_with(std::map<std::string, Metric> metrics) {
  BenchEntry e;
  e.git_sha = "deadbeef";
  e.date_utc = "2026-01-01T00:00:00Z";
  e.threads = 2;
  e.cpus = 4;
  e.metrics = std::move(metrics);
  return e;
}

Metric vm(double value, bool lower_is_better = true) {
  return Metric{value, "ms", "virtual", lower_is_better};
}

TEST(TrajectoryIoTest, RoundTripsThroughSerialization) {
  Trajectory t;
  t.name = "fig6e";
  t.entries.push_back(entry_with({{"virtual.total_ms", vm(123.5)},
                                  {"wall.rate", {9.25, "ops/s", "wall",
                                                 false}}}));
  std::ostringstream os;
  write_trajectory(os, t);

  std::istringstream is(os.str());
  std::string error;
  const auto back = load_trajectory(is, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->schema, kSchemaVersion);
  EXPECT_EQ(back->name, "fig6e");
  ASSERT_EQ(back->entries.size(), 1u);
  const auto& e = back->entries[0];
  EXPECT_EQ(e.git_sha, "deadbeef");
  EXPECT_EQ(e.threads, 2u);
  EXPECT_DOUBLE_EQ(e.metrics.at("virtual.total_ms").value, 123.5);
  EXPECT_EQ(e.metrics.at("wall.rate").source, "wall");
  EXPECT_FALSE(e.metrics.at("wall.rate").lower_is_better);
}

TEST(TrajectoryIoTest, RejectsMalformedAndWrongSchema) {
  std::string error;
  std::istringstream garbage("not json at all");
  EXPECT_FALSE(load_trajectory(garbage, &error).has_value());
  EXPECT_FALSE(error.empty());

  std::istringstream wrong_schema(
      R"({"schema":99,"name":"x","entries":[]})");
  EXPECT_FALSE(load_trajectory(wrong_schema, &error).has_value());

  // 2^32 + 1 must not wrap to schema 1.
  std::istringstream huge_schema(
      R"({"schema":4294967297,"name":"x","entries":[]})");
  EXPECT_FALSE(load_trajectory(huge_schema, &error).has_value());
}

TEST(TrajectoryIoTest, CommittedTrajectoriesRoundTripByteForByte) {
  // Appending an entry rewrites the whole file, so load + write must
  // reproduce every committed history line exactly.
  for (const char* name : {"crypto", "scale", "soak", "transport"}) {
    const std::string path =
        std::string(ARGUS_SOURCE_DIR) + "/" + trajectory_path(name);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream committed;
    committed << in.rdbuf();
    std::istringstream is(committed.str());
    std::string error;
    const auto t = load_trajectory(is, &error);
    ASSERT_TRUE(t.has_value()) << path << ": " << error;
    EXPECT_EQ(t->name, name);
    std::ostringstream os;
    write_trajectory(os, *t);
    EXPECT_EQ(os.str(), committed.str()) << path;
  }
}

TEST(BenchReporterTest, AppendCreatesAndExtendsTrajectory) {
  const std::string path = testing::TempDir() + "/BENCH_apptest.json";
  std::remove(path.c_str());

  BenchReporter first("apptest");
  first.metric("virtual.x", 1.0, "ms", "virtual");
  std::string error;
  ASSERT_TRUE(first.append_to(path, &error)) << error;

  BenchReporter second("apptest");
  second.metric("virtual.x", 2.0, "ms", "virtual");
  ASSERT_TRUE(second.append_to(path, &error)) << error;

  std::ifstream in(path);
  const auto t = load_trajectory(in, &error);
  ASSERT_TRUE(t.has_value()) << error;
  ASSERT_EQ(t->entries.size(), 2u);
  EXPECT_DOUBLE_EQ(t->entries[0].metrics.at("virtual.x").value, 1.0);
  EXPECT_DOUBLE_EQ(t->entries[1].metrics.at("virtual.x").value, 2.0);
  std::remove(path.c_str());
}

TEST(BenchReporterTest, AppendRefusesForeignTrajectory) {
  const std::string path = testing::TempDir() + "/BENCH_foreign.json";
  std::remove(path.c_str());
  BenchReporter mine("mine");
  ASSERT_TRUE(mine.append_to(path));
  BenchReporter other("other");
  std::string error;
  EXPECT_FALSE(other.append_to(path, &error));
  EXPECT_NE(error.find("mine"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReporterTest, AddProfileEmitsWallSelfTimes) {
  prof::Profiler profiler;
  {
    prof::Profiler::Attach attach(profiler, 0);
    ARGUS_PROF_SCOPE("crypto.op");
  }
  BenchReporter reporter("p");
  reporter.add_profile(profiler);
  const auto& metrics = reporter.entry().metrics;
  const auto it = metrics.find("wall.self_ms.crypto.op");
  ASSERT_NE(it, metrics.end());
  EXPECT_EQ(it->second.source, "wall");
}

// --------------------------------------------------------------------------
// Diff engine verdicts — the benchdiff CLI's exit codes ride on these.

const DiffThresholds kDefault{};  // warn 10%, fail 30%, wall ungated

TEST(DiffTest, OkWithinThresholds) {
  const auto before = entry_with({{"virtual.t", vm(100)}});
  const auto after = entry_with({{"virtual.t", vm(105)}});
  const auto result = compare_entries(before, after, kDefault);
  EXPECT_EQ(result.verdict, Verdict::kOk);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_NEAR(result.deltas[0].regress_pct, 5.0, 1e-9);
}

TEST(DiffTest, WarnPastWarnThreshold) {
  const auto before = entry_with({{"virtual.t", vm(100)}});
  const auto after = entry_with({{"virtual.t", vm(115)}});
  const auto result = compare_entries(before, after, kDefault);
  EXPECT_EQ(result.verdict, Verdict::kWarn);
  EXPECT_EQ(result.deltas[0].severity, Verdict::kWarn);
}

TEST(DiffTest, FailPastFailThreshold) {
  const auto before = entry_with({{"virtual.t", vm(100)}});
  const auto after = entry_with({{"virtual.t", vm(140)}});
  const auto result = compare_entries(before, after, kDefault);
  EXPECT_EQ(result.verdict, Verdict::kFail);
}

TEST(DiffTest, DirectionAware) {
  // For a higher-is-better metric, a *drop* is the regression.
  const auto before =
      entry_with({{"virtual.rate", vm(100, /*lower_is_better=*/false)}});
  const auto up = entry_with({{"virtual.rate", vm(140, false)}});
  EXPECT_EQ(compare_entries(before, up, kDefault).verdict, Verdict::kOk);
  const auto down = entry_with({{"virtual.rate", vm(60, false)}});
  EXPECT_EQ(compare_entries(before, down, kDefault).verdict, Verdict::kFail);
}

TEST(DiffTest, WallMetricsInformationalUnlessGated) {
  const auto before = entry_with({{"wall.t", {100, "ms", "wall", true}}});
  const auto after = entry_with({{"wall.t", {300, "ms", "wall", true}}});
  const auto ungated = compare_entries(before, after, kDefault);
  EXPECT_EQ(ungated.verdict, Verdict::kOk);
  ASSERT_EQ(ungated.deltas.size(), 1u);
  EXPECT_FALSE(ungated.deltas[0].gated);

  DiffThresholds gated = kDefault;
  gated.gate_wall = true;
  EXPECT_EQ(compare_entries(before, after, gated).verdict, Verdict::kFail);
}

TEST(DiffTest, MetricOnlyInOneEntryIsReportedNotGated) {
  const auto before = entry_with({{"virtual.old", vm(1)}});
  const auto after = entry_with({{"virtual.new", vm(1)}});
  const auto result = compare_entries(before, after, kDefault);
  EXPECT_EQ(result.verdict, Verdict::kOk);
  ASSERT_EQ(result.deltas.size(), 2u);
  EXPECT_TRUE(result.deltas[0].only_in_one);
  EXPECT_TRUE(result.deltas[1].only_in_one);
}

TEST(DiffTest, TrajectoryNameMismatchIsSchemaMismatch) {
  Trajectory a, b;
  a.name = "fig6e";
  b.name = "fig6g";
  a.entries.push_back(entry_with({}));
  b.entries.push_back(entry_with({}));
  const auto result = compare_trajectories(a, &b, kDefault);
  EXPECT_EQ(result.verdict, Verdict::kSchemaMismatch);
  EXPECT_FALSE(result.error.empty());
}

TEST(DiffTest, SingleEntryIsBaselineNotError) {
  // A freshly seeded trajectory has exactly one entry: that is the
  // baseline, not a pipeline failure. Zero entries is still an error —
  // a comparison was requested and there is nothing at all.
  Trajectory t;
  t.name = "solo";
  EXPECT_EQ(compare_trajectories(t, nullptr, kDefault).verdict,
            Verdict::kSchemaMismatch);
  t.entries.push_back(entry_with({{"virtual.t", vm(100)}}));
  const auto baseline = compare_trajectories(t, nullptr, kDefault);
  EXPECT_EQ(baseline.verdict, Verdict::kBaseline);
  EXPECT_TRUE(baseline.error.empty());
  t.entries.push_back(entry_with({{"virtual.t", vm(150)}}));
  EXPECT_EQ(compare_trajectories(t, nullptr, kDefault).verdict,
            Verdict::kFail);
}

TEST(DiffTest, EmptyBeforeFileIsBaseline) {
  // Two-file mode, before-file present but never written to: the after
  // entry is the first real measurement. An empty *after* is an error.
  Trajectory before, after;
  before.name = after.name = "fresh";
  after.entries.push_back(entry_with({{"virtual.t", vm(100)}}));
  EXPECT_EQ(compare_trajectories(before, &after, kDefault).verdict,
            Verdict::kBaseline);
  EXPECT_EQ(compare_trajectories(after, &before, kDefault).verdict,
            Verdict::kSchemaMismatch);
}

TEST(DiffTest, BaselineReportPrintsNote) {
  Trajectory t;
  t.name = "solo";
  t.entries.push_back(entry_with({{"virtual.t", vm(100)}}));
  const auto result = compare_trajectories(t, nullptr, kDefault);
  std::ostringstream os;
  write_diff_report(os, result);
  EXPECT_NE(os.str().find("baseline recorded"), std::string::npos);
}

TEST(DiffTest, ReportNamesVerdictAndMetrics) {
  const auto before = entry_with({{"virtual.t", vm(100)}});
  const auto after = entry_with({{"virtual.t", vm(120)}});
  const auto result = compare_entries(before, after, kDefault);
  std::ostringstream os;
  write_diff_report(os, result);
  const std::string out = os.str();
  EXPECT_NE(out.find("virtual.t"), std::string::npos);
  EXPECT_NE(out.find(verdict_name(Verdict::kWarn)), std::string::npos);
}

}  // namespace
}  // namespace argus::obs::bench
