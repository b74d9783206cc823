#include "obs/trace.hpp"

#include <istream>
#include <ostream>

#include "common/json.hpp"

namespace argus::obs {

namespace {

const char* kind_letter(EventKind k) {
  switch (k) {
    case EventKind::kBegin: return "B";
    case EventKind::kEnd: return "E";
    case EventKind::kInstant: return "i";
  }
  return "?";
}

void append_json_fields(std::string& line, const TraceEvent& ev) {
  line.append("\"ts\":");
  json::put_number(line, ev.ts);
  line.append(",\"n\":");
  line.append(std::to_string(ev.node));
  if (!ev.name.empty()) {
    line.append(",\"name\":");
    json::put_string(line, ev.name);
  }
  if (!ev.cat.empty()) {
    line.append(",\"cat\":");
    json::put_string(line, ev.cat);
  }
  if (ev.a != 0) {
    line.append(",\"a\":");
    line.append(std::to_string(ev.a));
  }
  if (ev.b != 0) {
    line.append(",\"b\":");
    line.append(std::to_string(ev.b));
  }
  if (!ev.arg.empty()) {
    line.append(",\"arg\":");
    json::put_string(line, ev.arg);
  }
}

}  // namespace

void Tracer::begin(double ts, std::uint32_t node, std::string name,
                   std::string cat, std::uint64_t a, std::uint64_t b,
                   std::string arg) {
  open_[node].push_back(events_.size());
  events_.push_back(TraceEvent{EventKind::kBegin, ts, node, std::move(name),
                               std::move(cat), a, b, std::move(arg)});
}

void Tracer::end(double ts, std::uint32_t node, std::uint64_t a,
                 std::uint64_t b) {
  TraceEvent ev{EventKind::kEnd, ts, node, {}, {}, a, b, {}};
  auto it = open_.find(node);
  if (it == open_.end() || it->second.empty()) {
    balanced_ = false;  // orphan end
  } else {
    const TraceEvent& opener = events_[it->second.back()];
    ev.name = opener.name;
    ev.cat = opener.cat;
    if (ts < opener.ts) balanced_ = false;
    it->second.pop_back();
  }
  events_.push_back(std::move(ev));
}

void Tracer::instant(double ts, std::uint32_t node, std::string name,
                     std::string cat, std::uint64_t a, std::uint64_t b,
                     std::string arg) {
  events_.push_back(TraceEvent{EventKind::kInstant, ts, node, std::move(name),
                               std::move(cat), a, b, std::move(arg)});
}

void Tracer::append(TraceEvent ev) {
  switch (ev.kind) {
    case EventKind::kBegin:
      begin(ev.ts, ev.node, std::move(ev.name), std::move(ev.cat), ev.a, ev.b,
            std::move(ev.arg));
      break;
    case EventKind::kEnd:
      end(ev.ts, ev.node, ev.a, ev.b);
      break;
    case EventKind::kInstant:
      events_.push_back(std::move(ev));
      break;
  }
}

void Tracer::clear() {
  events_.clear();
  open_.clear();
  balanced_ = true;
}

std::size_t Tracer::open_spans() const {
  std::size_t n = 0;
  for (const auto& [node, stack] : open_) n += stack.size();
  return n;
}

bool Tracer::well_formed() const { return balanced_ && open_spans() == 0; }

std::vector<TraceSpan> Tracer::spans() const {
  std::vector<TraceSpan> out;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> stacks;
  std::vector<std::size_t> begin_to_span(events_.size(), SIZE_MAX);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& ev = events_[i];
    if (ev.kind == EventKind::kBegin) {
      stacks[ev.node].push_back(i);
    } else if (ev.kind == EventKind::kEnd) {
      auto& stack = stacks[ev.node];
      if (stack.empty()) continue;  // orphan end
      const TraceEvent& op = events_[stack.back()];
      TraceSpan span;
      span.ts = op.ts;
      span.dur = ev.ts - op.ts;
      span.node = op.node;
      span.name = op.name;
      span.cat = op.cat;
      span.arg = op.arg;
      span.a = op.a;
      span.b = ev.b != 0 ? ev.b : op.b;
      begin_to_span[stack.back()] = out.size();
      out.push_back(std::move(span));
      stack.pop_back();
    }
  }
  // Re-emit in begin order (the matching loop emits in end order).
  std::vector<TraceSpan> ordered;
  ordered.reserve(out.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (begin_to_span[i] != SIZE_MAX) ordered.push_back(out[begin_to_span[i]]);
  }
  return ordered;
}

void write_jsonl(const Tracer& tracer, std::ostream& os) {
  std::string line;
  for (const TraceEvent& ev : tracer.events()) {
    line.clear();
    line.append("{\"k\":\"");
    line.append(kind_letter(ev.kind));
    line.append("\",");
    append_json_fields(line, ev);
    line.append("}\n");
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

void write_chrome_json(const Tracer& tracer, std::ostream& os) {
  std::string out;
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  const auto comma = [&] {
    if (!first) out.append(",\n");
    first = false;
  };
  // Thread-name metadata from "node" meta instants.
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.kind != EventKind::kInstant || ev.cat != "meta" ||
        ev.name != "node") {
      continue;
    }
    comma();
    out.append("{\"ph\":\"M\",\"pid\":1,\"tid\":");
    out.append(std::to_string(ev.node));
    out.append(",\"name\":\"thread_name\",\"args\":{\"name\":");
    std::string label = ev.arg;
    if (ev.a != 0) label += " (L" + std::to_string(ev.a) + ")";
    json::put_string(out, label);
    out.append("}}");
  }
  for (const TraceEvent& ev : tracer.events()) {
    comma();
    out.append("{\"ph\":\"");
    out.append(kind_letter(ev.kind));
    out.append("\",\"pid\":1,\"tid\":");
    out.append(std::to_string(ev.node));
    out.append(",\"ts\":");
    json::put_number(out, ev.ts * 1000.0);  // chrome wants microseconds
    if (!ev.name.empty()) {
      out.append(",\"name\":");
      json::put_string(out, ev.name);
    }
    if (!ev.cat.empty()) {
      out.append(",\"cat\":");
      json::put_string(out, ev.cat);
    }
    if (ev.kind == EventKind::kInstant) out.append(",\"s\":\"t\"");
    out.append(",\"args\":{\"a\":");
    out.append(std::to_string(ev.a));
    out.append(",\"b\":");
    out.append(std::to_string(ev.b));
    if (!ev.arg.empty()) {
      out.append(",\"arg\":");
      json::put_string(out, ev.arg);
    }
    out.append("}}");
  }
  out.append("\n]}\n");
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

namespace {

// Maps one write_jsonl line onto `ev`. Strict: an unknown key, a missing
// "k", a wrongly typed value or a node id above u32 rejects the line.
bool parse_line(std::string_view line, TraceEvent& ev) {
  const auto v = json::parse(line);
  if (!v || !v->is(json::Value::Kind::kObject)) return false;
  bool have_kind = false;
  for (const auto& [key, val] : v->members) {
    if (key == "k") {
      const auto k = val.as_string();
      if (k == "B") ev.kind = EventKind::kBegin;
      else if (k == "E") ev.kind = EventKind::kEnd;
      else if (k == "i") ev.kind = EventKind::kInstant;
      else return false;
      have_kind = true;
    } else if (key == "ts") {
      const auto ts = val.as_double();
      if (!ts) return false;
      ev.ts = *ts;
    } else if (key == "n") {
      const auto n = val.as_u64();
      if (!n || *n > UINT32_MAX) return false;
      ev.node = static_cast<std::uint32_t>(*n);
    } else if (key == "a" || key == "b") {
      const auto x = val.as_u64();
      if (!x) return false;
      (key == "a" ? ev.a : ev.b) = *x;
    } else if (key == "name" || key == "cat" || key == "arg") {
      const auto s = val.as_string();
      if (!s) return false;
      (key == "name" ? ev.name : key == "cat" ? ev.cat : ev.arg) = *s;
    } else {
      return false;  // unknown key: not our schema
    }
  }
  return have_kind;
}

}  // namespace

bool read_jsonl(std::istream& is, Tracer& tracer) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    TraceEvent ev;
    if (!parse_line(line, ev)) return false;
    tracer.append(std::move(ev));
  }
  return true;
}

}  // namespace argus::obs
