#include "obs/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/json.hpp"

namespace argus::obs::prof {

std::uint32_t ThreadBuffer::intern(std::uint32_t parent, const char* label) {
  const auto key = std::make_pair(parent, std::string(label));
  const auto it = intern_.find(key);
  if (it != intern_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(PathNode{parent, key.second});
  stats_.resize(paths_.size());
  intern_.emplace(key, id);
  return id;
}

void ThreadBuffer::enter(const char* label) {
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().path;
  const std::uint32_t path = intern(parent, label);
  // Read the clock *after* interning so table maintenance is not charged
  // to the scope (it only runs on first sight of a path anyway).
  stack_.push_back(Frame{path, next_seq_++, now_ns(), 0});
}

void ThreadBuffer::exit() {
  if (stack_.empty()) return;  // unbalanced exit: ignore rather than crash
  const std::uint64_t t1 = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t1 - frame.t0_ns;
  const std::uint64_t self = dur > frame.child_ns ? dur - frame.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  PathStat& stat = stats_[frame.path];
  ++stat.count;
  stat.incl_ns += dur;
  stat.self_ns += self;
  if (events_.size() < max_events_) {
    events_.push_back(Event{frame.path,
                            static_cast<std::uint32_t>(stack_.size()),
                            frame.seq, frame.t0_ns, dur, self});
  } else {
    truncated_ = true;
  }
}

std::string ThreadBuffer::path_string(std::uint32_t path) const {
  if (path == 0 || path >= paths_.size()) return {};
  std::vector<const std::string*> segs;
  for (std::uint32_t id = path; id != 0; id = paths_[id].parent) {
    segs.push_back(&paths_[id].label);
  }
  std::string out;
  for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
    if (!out.empty()) out += ';';
    out += **it;
  }
  return out;
}

ThreadBuffer& Profiler::buffer_for(std::uint64_t lane) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : lanes_) {
    if (buf->lane_ == lane) return *buf;
  }
  lanes_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer& buf = *lanes_.back();
  buf.lane_ = lane;
  buf.max_events_ = opts_.max_events_per_lane;
  return buf;
}

bool Profiler::empty() const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : lanes_) {
    for (const PathStat& stat : buf->stats_) {
      if (stat.count > 0) return false;
    }
  }
  return true;
}

void Profiler::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  lanes_.clear();
}

std::vector<Profiler::MergedEvent> Profiler::merged_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Lane-sorted buffer order, then per-lane seq order (already sorted
  // within a buffer since seq is assigned monotonically on enter but
  // events are appended on *exit* — re-sort to restore begin order).
  std::vector<const ThreadBuffer*> order;
  order.reserve(lanes_.size());
  for (const auto& buf : lanes_) order.push_back(buf.get());
  std::sort(order.begin(), order.end(),
            [](const ThreadBuffer* a, const ThreadBuffer* b) {
              return a->lane_ < b->lane_;
            });
  std::vector<MergedEvent> out;
  for (const ThreadBuffer* buf : order) {
    const std::size_t first = out.size();
    for (const Event& ev : buf->events_) {
      out.push_back(MergedEvent{buf->lane_, ev, buf->path_string(ev.path)});
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const MergedEvent& a, const MergedEvent& b) {
                return a.event.seq < b.event.seq;
              });
  }
  return out;
}

std::map<std::string, PathStat> Profiler::by_path() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, PathStat> out;
  for (const auto& buf : lanes_) {
    for (std::uint32_t id = 1; id < buf->paths_.size(); ++id) {
      const PathStat& stat = buf->stats_[id];
      if (stat.count == 0) continue;
      PathStat& agg = out[buf->path_string(id)];
      agg.count += stat.count;
      agg.incl_ns += stat.incl_ns;
      agg.self_ns += stat.self_ns;
    }
  }
  return out;
}

std::map<std::string, PathStat> Profiler::by_label() const {
  std::map<std::string, PathStat> out;
  for (const auto& [path, stat] : by_path()) {
    const auto pos = path.rfind(';');
    PathStat& agg = out[pos == std::string::npos ? path : path.substr(pos + 1)];
    agg.count += stat.count;
    agg.incl_ns += stat.incl_ns;
    agg.self_ns += stat.self_ns;
  }
  return out;
}

bool Profiler::truncated() const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : lanes_) {
    if (buf->truncated_) return true;
  }
  return false;
}

void Profiler::write_collapsed(std::ostream& os) const {
  for (const auto& [path, stat] : by_path()) {
    if (stat.self_ns == 0) continue;
    os << path << ' ' << stat.self_ns / 1000 << '\n';
  }
}

void Profiler::write_json(std::ostream& os) const {
  std::string out = "{\"schema\":1,\"truncated\":";
  out += truncated() ? "true" : "false";
  out += ",\"paths\":{";
  bool first = true;
  for (const auto& [path, stat] : by_path()) {
    if (!first) out += ',';
    first = false;
    json::put_string(out, path);
    out += ":{\"count\":" + std::to_string(stat.count) +
           ",\"incl_ns\":" + std::to_string(stat.incl_ns) +
           ",\"self_ns\":" + std::to_string(stat.self_ns) + '}';
  }
  out += "},\"events\":[";
  first = true;
  for (const MergedEvent& me : merged_events()) {
    if (!first) out += ',';
    first = false;
    out += "{\"lane\":" + std::to_string(me.lane) + ",\"seq\":" +
           std::to_string(me.event.seq) + ",\"depth\":" +
           std::to_string(me.event.depth) + ",\"path\":";
    json::put_string(out, me.path);
    out += ",\"t0_ns\":" + std::to_string(me.event.t0_ns) +
           ",\"dur_ns\":" + std::to_string(me.event.dur_ns) +
           ",\"self_ns\":" + std::to_string(me.event.self_ns) + '}';
  }
  out += "]}\n";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

std::map<std::string, PathStat> aggregate_flat_spans(std::vector<FlatSpan> spans,
                                                     double unit_to_ns) {
  // Stable sort by (group, ts, -dur): within a group, parents sort before
  // the children they contain even at equal begin times.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const FlatSpan& a, const FlatSpan& b) {
                     if (a.group != b.group) return a.group < b.group;
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.dur > b.dur;
                   });
  struct Open {
    double end = 0;
    double child = 0;
    const FlatSpan* span = nullptr;
  };
  std::map<std::string, PathStat> out;
  std::vector<Open> stack;
  std::uint64_t group = 0;
  bool in_group = false;
  const auto close_one = [&] {
    const Open top = stack.back();
    stack.pop_back();
    const double self = std::max(0.0, top.span->dur - top.child);
    PathStat& stat = out[top.span->name];
    ++stat.count;
    stat.incl_ns += static_cast<std::uint64_t>(top.span->dur * unit_to_ns);
    stat.self_ns += static_cast<std::uint64_t>(self * unit_to_ns);
    if (!stack.empty()) stack.back().child += top.span->dur;
  };
  for (const FlatSpan& span : spans) {
    if (!in_group || span.group != group) {
      while (!stack.empty()) close_one();
      group = span.group;
      in_group = true;
    }
    while (!stack.empty() && stack.back().end <= span.ts) close_one();
    stack.push_back(Open{span.ts + span.dur, 0, &span});
  }
  while (!stack.empty()) close_one();
  return out;
}

void write_top_table(std::ostream& os, const std::map<std::string, PathStat>& stats,
                     std::size_t n, double unit_div) {
  std::vector<std::pair<std::string, PathStat>> rows(stats.begin(), stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self_ns != b.second.self_ns) {
      return a.second.self_ns > b.second.self_ns;
    }
    return a.first < b.first;
  });
  if (rows.size() > n) rows.resize(n);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "    %10s %10s %8s  %s\n", "self(ms)",
                "incl(ms)", "count", "label");
  os << buf;
  for (const auto& [name, stat] : rows) {
    std::snprintf(buf, sizeof(buf), "    %10.3f %10.3f %8llu  %s\n",
                  static_cast<double>(stat.self_ns) / unit_div,
                  static_cast<double>(stat.incl_ns) / unit_div,
                  static_cast<unsigned long long>(stat.count), name.c_str());
    os << buf;
  }
}

}  // namespace argus::obs::prof
