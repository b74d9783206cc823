// Shared flag parsing and trajectory output for every bench binary:
//   --smoke           reduced grid + hard assertions (the ctest mode)
//   --threads N       sweep worker threads (default 0 = hardware concurrency)
//   --repeat N        run the measured section N times; wall metrics
//                     average over repeats, virtual metrics must not move
//   --json-out PATH   append one entry to the BENCH_<name>.json trajectory
//                     at PATH (obs/bench_report.hpp schema)
//   --profile PATH    write a collapsed-stack wall-clock profile
//                     (flamegraph.pl / speedscope format) to PATH
//
// Unrecognized flags pass through (`passthrough`) so the google-benchmark
// binaries can hand them to benchmark::Initialize.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/prof.hpp"

namespace argus::bench {

/// A kB field of /proc/self/status (e.g. "VmRSS:", "VmHWM:"); 0 where
/// unsupported.
inline std::uint64_t proc_status_kb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[128];
  std::uint64_t kb = 0;
  const std::size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, n) == 0) {
      kb = std::strtoull(line + n, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)field;
  return 0;
#endif
}

struct Args {
  bool smoke = false;
  std::size_t threads = 0;
  std::uint64_t repeat = 1;
  const char* json_out = nullptr;
  const char* profile_out = nullptr;
  /// argv[0] plus every unrecognized argument, NULL-terminated — the
  /// argv to forward to google-benchmark.
  std::vector<char*> passthrough;

  /// The profiler must be armed whenever its numbers can be consumed.
  [[nodiscard]] bool wants_profile() const {
    return profile_out != nullptr || json_out != nullptr;
  }
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 0) args.passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.threads =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      args.repeat =
          static_cast<std::uint64_t>(std::strtoul(argv[++i], nullptr, 10));
      if (args.repeat == 0) args.repeat = 1;
    } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      args.json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      args.profile_out = argv[++i];
    } else {
      args.passthrough.push_back(argv[i]);
    }
  }
  args.passthrough.push_back(nullptr);
  return args;
}

/// Shared bench tail: fold the profiler into the reporter, write the
/// collapsed-stack profile (--profile) and append the trajectory entry
/// (--json-out). Returns 0, or 1 on any I/O error. A bench that took no
/// flags is a no-op success.
inline int finish_bench(const Args& args, obs::bench::BenchReporter& reporter,
                        const obs::prof::Profiler* profiler) {
  if (profiler != nullptr && args.json_out != nullptr) {
    reporter.add_profile(*profiler);
  }
  if (args.profile_out != nullptr) {
    if (profiler == nullptr) {
      std::fprintf(stderr, "--profile: no profiler armed\n");
      return 1;
    }
    std::ofstream out(args.profile_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.profile_out);
      return 1;
    }
    profiler->write_collapsed(out);
    std::printf("wrote %s (collapsed stacks, %s)\n", args.profile_out,
                profiler->truncated() ? "event list truncated" : "complete");
  }
  if (args.json_out != nullptr) {
    std::string error;
    if (!reporter.append_to(args.json_out, &error)) {
      std::fprintf(stderr, "--json-out: %s\n", error.c_str());
      return 1;
    }
    std::printf("appended entry to %s (trajectory '%s')\n", args.json_out,
                reporter.name().c_str());
  }
  return 0;
}

}  // namespace argus::bench
