// Defaults guard: the benchmark measures the shipped library defaults, so
// every policy field of a config it builds must equal the field of a
// default-constructed config. Deployment fields (credentials, keys,
// seeds, epochs, sockets, sinks, expected-object counts, conn-id bases)
// are exempt. A later change to a default is then measured, not masked.
#include <tuple>

#include "common.hpp"
#include "crypto/ec.hpp"
#include "defaults.hpp"

namespace perfbench {

namespace {

auto tie_compute(const net::ComputeModel& c) {
  return std::tie(c.sign_ms, c.verify_ms, c.ecdh_gen_ms, c.ecdh_compute_ms,
                  c.hmac_ms, c.aes_ms, c.strength_factor);
}
auto tie_admission(const core::AdmissionParams& a) {
  return std::tie(a.enabled, a.peer_rate_per_s, a.peer_burst,
                  a.global_rate_per_s, a.global_burst, a.max_wire_bytes,
                  a.peer_capacity);
}
auto tie_resumption(const core::ResumptionParams& r) {
  return std::tie(r.enabled, r.ttl_ms, r.capacity, r.rotate_ms);
}
auto tie_retry(const core::RetryPolicy& r) {
  return std::tie(r.mode, r.max_retries, r.que1_timeout_ms, r.que2_timeout_ms,
                  r.backoff, r.round_deadline_ms);
}
auto tie_radio(const net::RadioParams& r) {
  return std::tie(r.bandwidth_bytes_per_ms, r.per_hop_latency_ms, r.jitter_ms,
                  r.drop_prob, r.dup_prob, r.queue_depth, r.queue_policy);
}
auto tie_reliable(const transport::ReliableParams& r) {
  return std::tie(r.rto_initial_ms, r.rto_backoff, r.rto_max_ms, r.max_resend,
                  r.window, r.send_queue_cap, r.recv_window,
                  r.keepalive_idle_ms, r.keepalive_timeout_ms,
                  r.half_open_timeout_ms, r.syn_max_retries);
}
auto tie_fast_paths(const crypto::EcFastPaths& f) {
  return std::tie(f.fixed_base, f.fast_double, f.shamir_verify,
                  f.precomp_cache);
}

class Guard {
 public:
  explicit Guard(std::vector<std::string>* bad) : bad_(bad) {}
  template <class T>
  void same(const char* field, const T& got, const T& want) {
    if (!(got == want)) bad_->push_back(field);
  }

 private:
  std::vector<std::string>* bad_;
};

}  // namespace

void check_fast_paths(std::vector<std::string>* bad) {
  Guard(bad).same("crypto.ec_fast_paths",
                  tie_fast_paths(crypto::ec_fast_paths()),
                  tie_fast_paths(crypto::EcFastPaths{}));
}

void check_object_config(const core::ObjectEngineConfig& c,
                         std::vector<std::string>* bad) {
  const core::ObjectEngineConfig d;
  Guard g(bad);
  g.same("object.version", c.version, d.version);
  g.same("object.strength", c.strength, d.strength);
  g.same("object.compute", tie_compute(c.compute), tie_compute(d.compute));
  g.same("object.pad_res2", c.pad_res2, d.pad_res2);
  g.same("object.equalize_timing", c.equalize_timing, d.equalize_timing);
  g.same("object.session_capacity", c.session_capacity, d.session_capacity);
  g.same("object.session_ttl_ms", c.session_ttl_ms, d.session_ttl_ms);
  g.same("object.replay_window", c.replay_window, d.replay_window);
  g.same("object.admission", tie_admission(c.admission),
         tie_admission(d.admission));
  g.same("object.resumption", tie_resumption(c.resumption),
         tie_resumption(d.resumption));
}

void check_subject_config(const core::SubjectEngineConfig& c,
                          std::vector<std::string>* bad) {
  const core::SubjectEngineConfig d;
  Guard g(bad);
  g.same("subject.version", c.version, d.version);
  g.same("subject.strength", c.strength, d.strength);
  g.same("subject.compute", tie_compute(c.compute), tie_compute(d.compute));
  g.same("subject.seek_level3", c.seek_level3, d.seek_level3);
  g.same("subject.resumption", tie_resumption(c.resumption),
         tie_resumption(d.resumption));
}

void check_scenario(const core::DiscoveryScenario& sc,
                    std::vector<std::string>* bad) {
  // The testbed copies these scenario fields into every engine config it
  // builds, so each must equal the engine default it stands for.
  const core::DiscoveryScenario d;
  const core::ObjectEngineConfig od;
  const core::SubjectEngineConfig sd;
  Guard g(bad);
  g.same("scenario.version", sc.version, od.version);
  g.same("scenario.strength", sc.strength, od.strength);
  g.same("scenario.radio", tie_radio(sc.radio), tie_radio(d.radio));
  g.same("scenario.subject_compute", tie_compute(sc.subject_compute),
         tie_compute(sd.compute));
  g.same("scenario.object_compute", tie_compute(sc.object_compute),
         tie_compute(od.compute));
  g.same("scenario.retry", tie_retry(sc.retry), tie_retry(d.retry));
  g.same("scenario.faults_armed", sc.faults.armed(), false);
  g.same("scenario.flood_armed", sc.flood.armed(), false);
  g.same("scenario.admission", tie_admission(sc.admission),
         tie_admission(od.admission));
  g.same("scenario.replay_window", sc.replay_window, od.replay_window);
  g.same("scenario.pad_res2", sc.pad_res2, od.pad_res2);
  g.same("scenario.equalize_timing", sc.equalize_timing, od.equalize_timing);
  g.same("scenario.seek_level3", sc.seek_level3, sd.seek_level3);
}

void check_client_params(const transport::ClientParams& p,
                         std::vector<std::string>* bad) {
  Guard(bad).same("client.retry", tie_retry(p.retry),
                  tie_retry(transport::ClientParams{}.retry));
}

void check_endpoint_params(const transport::EndpointParams& p,
                           std::vector<std::string>* bad) {
  const transport::EndpointParams d;
  Guard g(bad);
  g.same("endpoint.reliable", tie_reliable(p.reliable),
         tie_reliable(d.reliable));
  g.same("endpoint.max_conns", p.max_conns, d.max_conns);
  g.same("endpoint.max_recv_per_pump", p.max_recv_per_pump,
         d.max_recv_per_pump);
}

}  // namespace perfbench
