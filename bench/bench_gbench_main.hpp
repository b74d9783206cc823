// Replacement for BENCHMARK_MAIN() that adds the repo's shared bench
// flags (bench_args.hpp) to a google-benchmark binary:
//
//   * our flags (--json-out / --profile / --repeat / --smoke) are parsed
//     and stripped; everything else passes through to
//     benchmark::Initialize (--benchmark_filter etc. keep working);
//   * when profiling is armed, the main thread attaches to profiler lane
//     0 for the whole run, so the ARGUS_PROF_SCOPE sites inside
//     src/crypto light up under the microbenches;
//   * a capturing reporter mirrors every per-iteration result into the
//     trajectory entry as `wall.us_per_op.<BenchName>` and the console
//     output stays untouched; it colours that output by google-benchmark's
//     own `--benchmark_color` rule.
//
// Use: ARGUS_GBENCH_MAIN("fig6a") at the end of the file instead of
// BENCHMARK_MAIN().
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "bench_args.hpp"

namespace argus::bench {

/// Console options for `--benchmark_color=V` in `argv` (the last one
/// wins): "auto", the default, colours only when stdout is a terminal;
/// any other value colours unless it reads false/no/off/0 (or f, n).
inline benchmark::ConsoleReporter::OutputOptions console_options(
    const std::vector<char*>& argv) {
  constexpr std::string_view kFlag = "--benchmark_color=";
  std::string value = "auto";
  for (const char* arg : argv) {
    if (arg != nullptr && std::string_view(arg).starts_with(kFlag)) {
      value = arg + kFlag.size();
    }
  }
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const bool color =
      value == "auto"
          ? isatty(fileno(stdout)) != 0
          : !(value == "false" || value == "no" || value == "off" ||
              value == "0" || value == "f" || value == "n");
  return color ? benchmark::ConsoleReporter::OO_Defaults
               : benchmark::ConsoleReporter::OO_Tabular;
}

/// ConsoleReporter that also records each run into a BenchReporter.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter(obs::bench::BenchReporter& out, OutputOptions opts)
      : benchmark::ConsoleReporter(opts), out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration ||
          run.iterations <= 0) {
        continue;
      }
      const double us_per_op = run.real_accumulated_time * 1e6 /
                               static_cast<double>(run.iterations);
      out_.metric("wall.us_per_op." + run.benchmark_name(), us_per_op,
                  "us/op", "wall");
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  obs::bench::BenchReporter& out_;
};

inline int gbench_main(const char* name, int argc, char** argv) {
  Args args = parse_args(argc, argv);
  obs::bench::BenchReporter reporter(name);
  reporter.set_repeat(args.repeat);
  obs::prof::Profiler profiler;
  std::optional<obs::prof::Profiler::Attach> attach;
  if (args.wants_profile()) attach.emplace(profiler, 0);

  // Read the colour flag before Initialize strips it from argv.
  const auto options = console_options(args.passthrough);
  int fwd_argc = static_cast<int>(args.passthrough.size()) - 1;
  benchmark::Initialize(&fwd_argc, args.passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc,
                                             args.passthrough.data())) {
    return 1;
  }
  CapturingReporter console(reporter, options);
  for (std::uint64_t r = 0; r < args.repeat; ++r) {
    benchmark::RunSpecifiedBenchmarks(&console);
  }
  benchmark::Shutdown();

  attach.reset();
  return finish_bench(args, reporter,
                      args.wants_profile() ? &profiler : nullptr);
}

}  // namespace argus::bench

#define ARGUS_GBENCH_MAIN(name)                           \
  int main(int argc, char** argv) {                       \
    return ::argus::bench::gbench_main(name, argc, argv); \
  }
