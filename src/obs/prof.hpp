// Wall-clock profiler for the real hot paths.
//
// Everything else in src/obs is keyed to the simulator's *virtual* clock,
// which proves determinism but cannot answer "how fast does this actually
// run". The profiler fills that gap without touching the virtual-time
// instruments: wall-clock values never enter golden digests, trace
// canonical forms, or counter text — they flow only into BENCH_*.json
// trajectory files (obs/bench_report.hpp) and flamegraph exports.
//
// Model: instrumentation sites open an RAII `Scope("crypto.ec.scalar_mul")`
// backed by a thread-local frame stack. A thread records only after a
// `Profiler` buffer is attached to it (`Profiler::Attach` guard); with no
// buffer attached a site costs one thread-local pointer test — the same
// off-switch discipline as `Tracer`. Each attached lane owns its event
// buffer, so recording is lock-free; buffers are merged after the run by
// (lane, seq), which is deterministic even though the timings themselves
// are not. Frames carry accumulated child time, so every closed scope
// knows both its inclusive and its self duration.
//
// Exporters: collapsed-stack text ("a;b;c <self_us>" — feed to
// flamegraph.pl or speedscope) and a JSON document with the per-label
// aggregate plus the merged event list.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace argus::obs::prof {

/// Monotonic wall clock, nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One closed scope. `path` indexes the owning buffer's path table; `seq`
/// is the per-lane *begin* order, so a (lane, seq) sort reconstructs
/// deterministic begin order across threads.
struct Event {
  std::uint32_t path = 0;
  std::uint32_t depth = 0;
  std::uint64_t seq = 0;
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per-label aggregate (label = full "a;b;c" stack path).
struct PathStat {
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
};

class Profiler;

/// Per-lane recording buffer. Only its owning thread writes it (enter /
/// exit); the profiler reads it after the run. Aggregates are updated on
/// every scope exit, so they stay exact even once the event list hits
/// `max_events` and stops growing.
class ThreadBuffer {
 public:
  void enter(const char* label);
  void exit();

  [[nodiscard]] std::uint64_t lane() const { return lane_; }
  /// The profiler that owns this buffer: a thread that hands work to
  /// another can attach it to the same profiler on a lane of its own.
  [[nodiscard]] Profiler* profiler() const { return profiler_; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] bool truncated() const { return truncated_; }
  /// Full ";"-joined path for a path-table index.
  [[nodiscard]] std::string path_string(std::uint32_t path) const;

 private:
  friend class Profiler;

  struct PathNode {
    std::uint32_t parent = 0;  // 0 = root sentinel
    std::string label;
  };
  struct Frame {
    std::uint32_t path = 0;
    std::uint64_t seq = 0;
    std::uint64_t t0_ns = 0;
    std::uint64_t child_ns = 0;
  };

  std::uint32_t intern(std::uint32_t parent, const char* label);

  Profiler* profiler_ = nullptr;
  std::uint64_t lane_ = 0;
  std::size_t max_events_ = 0;
  std::vector<PathNode> paths_{PathNode{}};  // [0] is the root sentinel
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> intern_;
  std::vector<Frame> stack_;
  std::vector<Event> events_;
  std::vector<PathStat> stats_;  // indexed by path id
  std::uint64_t next_seq_ = 0;
  bool truncated_ = false;
};

/// Currently attached buffer for this thread (null = profiling off). Sites
/// read it through `Scope`; only `Profiler::Attach` writes it.
inline thread_local ThreadBuffer* t_current = nullptr;

class Profiler {
 public:
  struct Options {
    /// Cap on stored events per lane; aggregates keep counting past it.
    std::size_t max_events_per_lane = 1u << 20;
  };

  Profiler() = default;
  explicit Profiler(Options opts) : opts_(opts) {}
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// RAII thread attachment. `lane` must be a *deterministic* small id
  /// (grid index, shard number, 0 for main) — merged output is keyed by
  /// it, so OS thread ids never leak into exports. Nested attaches save
  /// and restore the previous buffer.
  class Attach {
   public:
    Attach(Profiler& profiler, std::uint64_t lane)
        : prev_(t_current) {
      t_current = &profiler.buffer_for(lane);
    }
    ~Attach() { t_current = prev_; }
    Attach(const Attach&) = delete;
    Attach& operator=(const Attach&) = delete;

   private:
    ThreadBuffer* prev_;
  };

  /// Find-or-create the buffer for a lane (thread-safe; buffer addresses
  /// are stable). Reusing a lane across runs appends to its buffer.
  ThreadBuffer& buffer_for(std::uint64_t lane);

  [[nodiscard]] bool empty() const;
  void clear();

  /// All events across lanes, sorted by (lane, seq); second member of the
  /// pair is the full stack path.
  struct MergedEvent {
    std::uint64_t lane = 0;
    Event event;
    std::string path;
  };
  [[nodiscard]] std::vector<MergedEvent> merged_events() const;

  /// Per-path aggregate over *all* recorded scopes (exact even when event
  /// lists were truncated), keyed by full stack path, sorted by key.
  [[nodiscard]] std::map<std::string, PathStat> by_path() const;
  /// Same, collapsed to the leaf label (the last path segment).
  [[nodiscard]] std::map<std::string, PathStat> by_label() const;
  /// True if any lane hit its event cap.
  [[nodiscard]] bool truncated() const;

  /// Collapsed-stack export: one "path;seg;ments <self_us>" line per
  /// path with nonzero self time, sorted by path (flamegraph.pl format).
  void write_collapsed(std::ostream& os) const;
  /// JSON export: {"schema":1,"paths":{...aggregate...},"events":[...]}.
  void write_json(std::ostream& os) const;

 private:
  Options opts_{};
  mutable std::mutex mu_;  // guards lanes_ layout, not buffer contents
  std::vector<std::unique_ptr<ThreadBuffer>> lanes_;
};

/// RAII scoped timer. No-op (one thread-local pointer test) unless a
/// profiler buffer is attached to the current thread. `label` must outlive
/// the scope — use string literals.
class Scope {
 public:
  explicit Scope(const char* label) : buf_(t_current) {
    if (buf_ != nullptr) buf_->enter(label);
  }
  ~Scope() {
    if (buf_ != nullptr) buf_->exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadBuffer* buf_;
};

#define ARGUS_PROF_CAT2(a, b) a##b
#define ARGUS_PROF_CAT(a, b) ARGUS_PROF_CAT2(a, b)
/// Time the enclosing block under `label` when profiling is attached.
#define ARGUS_PROF_SCOPE(label) \
  ::argus::obs::prof::Scope ARGUS_PROF_CAT(argus_prof_scope_, __LINE__)(label)

// ---------------------------------------------------------------------------
// Shared span aggregation. tools/traceview reuses the profiler's self-time
// attribution for *virtual*-time protocol spans: flatten any span stream
// into FlatSpans and aggregate_flat_spans() rebuilds nesting per group
// (spans within one group must nest, as Tracer guarantees per node) and
// splits inclusive vs self time per name.

struct FlatSpan {
  std::uint64_t group = 0;  // nesting domain: node id / lane
  double ts = 0;            // begin, any consistent unit
  double dur = 0;
  std::string name;
};

/// Aggregate by name with self-time attribution. Input may be in any
/// order; within a group, containment is decided by [ts, ts+dur) bounds
/// (ties: the longer span is the parent).
std::map<std::string, PathStat> aggregate_flat_spans(
    std::vector<FlatSpan> spans, double unit_to_ns = 1e6);

/// Hot-span table: top `n` rows by self time (then name), e.g.
///   "  self(ms)    incl(ms)      count  label". `unit_div` scales the
/// stored nanoseconds for display (1e6 = milliseconds).
void write_top_table(std::ostream& os, const std::map<std::string, PathStat>& stats,
                     std::size_t n, double unit_div = 1e6);

}  // namespace argus::obs::prof
