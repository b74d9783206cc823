// argusd — Argus object daemon: N ObjectEngines behind a reliable-ordered
// UDP loopback endpoint (transport/host.hpp over transport/endpoint.hpp).
//
// The fleet is the deterministic paper-testbed scenario
// (harness::make_scenario), so an argusctl started with the same
// --objects/--level/--seed derives matching credentials from its own
// Backend and the two processes can complete real handshakes with no
// key-distribution side channel.
//
// The host runs the engines on engine lanes (transport/lanes.hpp); this
// loop only pumps the socket and sends replies as they finish.
//
// Prints "LISTENING <port>" once bound (port 0 = ephemeral), serves until
// SIGTERM/SIGINT, a control-plane shutdown frame, or --run-ms expires,
// then drains until every connection is reaped and prints one JSON stats
// line. With --snapshot-dir the engine fleet restores on start and
// persists (atomically) on interval/shutdown.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <unistd.h>

#include "common/json.hpp"
#include "fault/netem.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "transport/host.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct Options {
  std::uint16_t port = 0;
  std::size_t objects = 20;
  int level = 2;
  std::uint64_t seed = 17;
  std::string snapshot_dir;
  double snapshot_interval_ms = 0;
  double keepalive_idle_ms = 1500;
  double keepalive_timeout_ms = 6000;
  std::size_t max_conns = 64;
  double loss = 0, dup = 0, reorder = 0;
  std::uint64_t shim_seed = 1;
  double run_ms = 0;  // 0 = until signalled
  bool admission = true;
  bool resumption = true;
  bool quiet = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: argusd [--port N] [--objects N] [--level 1|2|3] [--seed N]\n"
      "              [--snapshot-dir DIR] [--snapshot-interval-ms X]\n"
      "              [--keepalive-ms X] [--keepalive-timeout-ms X]\n"
      "              [--max-conns N] [--loss P] [--dup P] [--reorder P]\n"
      "              [--shim-seed N] [--run-ms X] [--no-admission]\n"
      "              [--no-resume] [--quiet]\n");
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::atof(argv[++i]);
      return true;
    };
    double v = 0;
    if (a == "--port" && next(&v)) o->port = static_cast<std::uint16_t>(v);
    else if (a == "--objects" && next(&v)) o->objects = static_cast<std::size_t>(v);
    else if (a == "--level" && next(&v)) o->level = static_cast<int>(v);
    else if (a == "--seed" && next(&v)) o->seed = static_cast<std::uint64_t>(v);
    else if (a == "--snapshot-dir" && i + 1 < argc) o->snapshot_dir = argv[++i];
    else if (a == "--snapshot-interval-ms" && next(&v)) o->snapshot_interval_ms = v;
    else if (a == "--keepalive-ms" && next(&v)) o->keepalive_idle_ms = v;
    else if (a == "--keepalive-timeout-ms" && next(&v)) o->keepalive_timeout_ms = v;
    else if (a == "--max-conns" && next(&v)) o->max_conns = static_cast<std::size_t>(v);
    else if (a == "--loss" && next(&v)) o->loss = v;
    else if (a == "--dup" && next(&v)) o->dup = v;
    else if (a == "--reorder" && next(&v)) o->reorder = v;
    else if (a == "--shim-seed" && next(&v)) o->shim_seed = static_cast<std::uint64_t>(v);
    else if (a == "--run-ms" && next(&v)) o->run_ms = v;
    else if (a == "--no-admission") o->admission = false;
    else if (a == "--no-resume") o->resumption = false;
    else if (a == "--quiet") o->quiet = true;
    else { usage(); return false; }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace argus;
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // Deterministic paper-testbed fleet: both sides of the wire derive the
  // same credentials from (objects, level, seed).
  harness::SweepPoint point;
  point.level = opt.level;
  point.objects = opt.objects;
  point.seed = opt.seed;
  const core::DiscoveryScenario scenario = harness::make_scenario(point);

  auto socket = transport::UdpSocket::bind_loopback(opt.port);
  if (!socket) {
    std::fprintf(stderr, "argusd: bind 127.0.0.1:%u failed\n", opt.port);
    return 1;
  }
  fault::NetemParams shim;
  shim.drop_prob = opt.loss;
  shim.dup_prob = opt.dup;
  shim.reorder_prob = opt.reorder;
  shim.seed = opt.shim_seed;
  fault::NetemSocket shimmed(*socket, shim);

  obs::MetricsRegistry metrics;
  transport::EndpointParams ep;
  ep.reliable.keepalive_idle_ms = opt.keepalive_idle_ms;
  ep.reliable.keepalive_timeout_ms = opt.keepalive_timeout_ms;
  ep.reliable.half_open_timeout_ms = opt.keepalive_timeout_ms;
  ep.max_conns = opt.max_conns;
  // ISN-style: a restarted daemon must not reuse its predecessor's ids.
  ep.conn_id_base = static_cast<std::uint32_t>(getpid()) * 2654435761u | 1u;
  transport::TransportEndpoint endpoint(shimmed, ep, &metrics);
  transport::SockTransport sock(endpoint);

  transport::HostConfig host_cfg;
  host_cfg.epoch = scenario.epoch;
  host_cfg.metrics = &metrics;
  if (!opt.snapshot_dir.empty()) {
    host_cfg.snapshot_path = opt.snapshot_dir + "/fleet.snap";
    host_cfg.snapshot_interval_ms = opt.snapshot_interval_ms;
  }
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    core::ObjectEngineConfig ocfg = core::object_engine_config(scenario, i);
    ocfg.admission.enabled = opt.admission;
    ocfg.resumption.enabled = opt.resumption;
    ocfg.metrics = &metrics;
    host_cfg.objects.push_back(std::move(ocfg));
  }

  transport::ObjectHost host(std::move(host_cfg), sock);
  std::size_t restored = 0;
  if (!opt.snapshot_dir.empty()) {
    if (host.restore_from_file() == persist::RestoreError::kOk) {
      restored = host.restored_engines();
    }
  }

  const std::uint16_t port = endpoint.local_addr().port;
  std::printf("LISTENING %u\n", port);
  std::fflush(stdout);
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "argusd: %zu objects (L%d, seed %llu) on 127.0.0.1:%u, "
                 "%zu restored\n",
                 host.engine_count(), opt.level,
                 static_cast<unsigned long long>(opt.seed), port, restored);
  }

  // Sleep on the socket until a datagram arrives or a timer is due: the
  // reliable layer's next deadline, capped by `until` (a signal also
  // ends the wait). While the engine lanes still owe replies the sleep
  // is capped at kReplyPollMs, so a finished reply leaves within about
  // that; an idle host sleeps until its next deadline.
  constexpr double kReplyPollMs = 1;
  const auto sleep_until_due = [&](double now_ms, double until_ms) {
    double due = std::min(endpoint.next_deadline_ms(), until_ms);
    if (opt.snapshot_interval_ms > 0) {
      due = std::min(due, now_ms + opt.snapshot_interval_ms);
    }
    if (host.in_flight() > 0) due = std::min(due, now_ms + kReplyPollMs);
    socket->wait_readable(due - now_ms);
  };
  const double start = transport::steady_now_ms();
  const double run_until =
      opt.run_ms > 0 ? opt.run_ms : std::numeric_limits<double>::infinity();
  double now = 0;
  while (!g_stop.load()) {
    now = transport::steady_now_ms() - start;
    host.pump(now);
    if (host.shutdown_requested()) break;
    if (now >= run_until) break;
    sleep_until_due(now, run_until);
  }

  // Drain: let keep-alive/half-open reaping retire every connection so a
  // clean exit proves zero leaked table slots. A client that vanished
  // without FIN ages out on the keep-alive clock.
  const double drain_deadline =
      transport::steady_now_ms() - start + opt.keepalive_timeout_ms + 500;
  while (endpoint.live_conns() > 0) {
    now = transport::steady_now_ms() - start;
    if (now >= drain_deadline) break;
    host.pump(now);
    sleep_until_due(now, drain_deadline);
  }
  if (!opt.snapshot_dir.empty()) host.write_snapshot();

  const auto& hs = host.stats();
  const auto& es = endpoint.stats();
  std::string line = "{";
  const auto field = [&line](std::string_view key, double value) {
    if (line.size() > 1) line += ',';
    json::put_string(line, key);
    line += ':';
    json::put_number(line, value);
  };
  field("conns_live", static_cast<double>(endpoint.live_conns()));
  field("conns_accepted", static_cast<double>(es.accepted));
  field("conns_closed", static_cast<double>(es.closed));
  field("conns_reaped_dead", static_cast<double>(es.reaped_dead));
  field("conns_reaped_half_open", static_cast<double>(es.reaped_half_open));
  field("conns_evicted", static_cast<double>(es.evicted));
  field("frames_rx", static_cast<double>(hs.frames_rx));
  field("replies_tx", static_cast<double>(hs.replies_tx));
  field("broadcasts_rx", static_cast<double>(hs.broadcasts_rx));
  field("snapshots_written", static_cast<double>(hs.snapshots_written));
  field("shim_dropped", static_cast<double>(shimmed.stats().dropped));
  std::printf("%s}\n", line.c_str());
  std::fflush(stdout);
  return endpoint.live_conns() == 0 ? 0 : 3;
}
