#include "harness/digest.hpp"

#include <sstream>

#include "common/json.hpp"
#include "crypto/sha256.hpp"

namespace argus::harness {

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  out.append(std::to_string(v));
}

}  // namespace

std::string report_json(const core::DiscoveryReport& report) {
  std::string out;
  out.append("{\"total_ms\":");
  json::put_number(out, report.total_ms);
  out.append(",\"services\":[");
  for (std::size_t i = 0; i < report.services.size(); ++i) {
    if (i) out.push_back(',');
    const auto& svc = report.services[i];
    out.append("{\"id\":");
    json::put_string(out, svc.object_id);
    out.append(",\"level\":");
    put_u64(out, static_cast<std::uint64_t>(svc.level));
    out.append(",\"tag\":");
    json::put_string(out, svc.variant_tag);
    out.push_back('}');
  }
  out.append("],\"timeline\":[");
  for (std::size_t i = 0; i < report.timeline.size(); ++i) {
    if (i) out.push_back(',');
    const auto& ev = report.timeline[i];
    out.append("{\"id\":");
    json::put_string(out, ev.object_id);
    out.append(",\"at_ms\":");
    json::put_number(out, ev.at_ms);
    out.push_back('}');
  }
  out.append("],\"messages\":");
  put_u64(out, report.net_stats.messages);
  out.append(",\"bytes\":");
  put_u64(out, report.net_stats.bytes);
  out.append(",\"hop_bytes\":");
  put_u64(out, report.net_stats.hop_bytes);
  out.append(",\"dropped\":");
  put_u64(out, report.net_stats.dropped);
  out.append(",\"duplicates\":");
  put_u64(out, report.net_stats.duplicates);
  out.append(",\"offered_messages\":");
  put_u64(out, report.offered_messages);
  out.append(",\"offered_bytes\":");
  put_u64(out, report.offered_bytes);
  out.append(",\"delivery_ratio\":");
  json::put_number(out, report.delivery_ratio);
  out.append(",\"que1_rtx\":");
  put_u64(out, report.que1_retransmits);
  out.append(",\"que2_rtx\":");
  put_u64(out, report.que2_retransmits);
  out.append(",\"bytes_by_msg\":{");
  bool first = true;
  for (const auto& [name, bytes] : report.bytes_by_msg) {  // std::map: sorted
    if (!first) out.push_back(',');
    first = false;
    json::put_string(out, name);
    out.push_back(':');
    put_u64(out, bytes);
  }
  out.append("},\"outcomes\":[");
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    if (i) out.push_back(',');
    const auto& oc = report.outcomes[i];
    out.append("{\"id\":");
    json::put_string(out, oc.object_id);
    out.append(",\"discovered\":");
    out.append(oc.discovered ? "true" : "false");
    out.append(",\"que2_rtx\":");
    put_u64(out, oc.que2_retransmits);
    // Fault-only fields are omitted when at their clean-run defaults, so
    // a fault-free report's bytes are identical to pre-fault builds.
    if (oc.rejects > 0) {
      out.append(",\"rejects\":");
      put_u64(out, oc.rejects);
    }
    if (oc.reason != core::FailReason::kNone) {
      out.append(",\"reason\":");
      json::put_string(out, core::fail_reason_name(oc.reason));
    }
    out.push_back('}');
  }
  out.push_back(']');
  if (report.net_stats.fault_dropped > 0) {
    out.append(",\"fault_dropped\":");
    put_u64(out, report.net_stats.fault_dropped);
  }
  // Overload fields follow the same omit-when-default rule (queue_peak is
  // deliberately never serialized: it is nonzero even in clean runs).
  if (report.net_stats.queue_rejected > 0) {
    out.append(",\"queue_rejected\":");
    put_u64(out, report.net_stats.queue_rejected);
  }
  if (report.net_stats.queue_evicted > 0) {
    out.append(",\"queue_evicted\":");
    put_u64(out, report.net_stats.queue_evicted);
  }
  if (report.shed_overload > 0) {
    out.append(",\"shed_overload\":");
    put_u64(out, report.shed_overload);
  }
  if (report.rate_limited > 0) {
    out.append(",\"rate_limited\":");
    put_u64(out, report.rate_limited);
  }
  if (!report.fault_counts.empty()) {
    out.append(",\"faults\":{");
    bool f = true;
    for (const auto& [name, count] : report.fault_counts) {  // sorted map
      if (!f) out.push_back(',');
      f = false;
      json::put_string(out, name);
      out.push_back(':');
      put_u64(out, count);
    }
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

std::string counters_text(const obs::MetricsRegistry& metrics) {
  std::string out;
  for (const auto& [name, counter] : metrics.counters()) {  // sorted map
    out.append(name);
    out.push_back('=');
    put_u64(out, counter.value());
    out.push_back('\n');
  }
  return out;
}

std::string golden_digest(const obs::Tracer& trace,
                          const obs::MetricsRegistry& metrics,
                          const core::DiscoveryReport& report) {
  std::ostringstream jsonl;
  obs::write_jsonl(trace, jsonl);
  crypto::Sha256 h;
  const std::string trace_bytes = jsonl.str();
  h.update(str_bytes(trace_bytes));
  h.update(str_bytes(counters_text(metrics)));
  h.update(str_bytes(report_json(report)));
  return to_hex(h.finish());
}

}  // namespace argus::harness
