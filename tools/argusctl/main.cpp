// argusctl — Argus subject CLI: drives discovery rounds against argusd
// over the reliable-ordered UDP loopback transport.
//
// Builds the same deterministic paper-testbed scenario as the daemon
// (harness::make_scenario with matching --objects/--level/--seed), dials
// the daemon, runs --rounds discovery rounds with the PR-2 retry policy,
// and prints one JSON report line. Exit 0 iff every round resolved every
// channel (delivery_ratio == 1.0) — and, with --compare-sim, iff the
// engine-level result set matches an in-process simulator run of the
// identical scenario.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <unistd.h>

#include "argus/discovery.hpp"
#include "common/json.hpp"
#include "fault/netem.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "transport/client.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace {

struct Options {
  std::string connect = "127.0.0.1:0";
  std::size_t objects = 20;
  int level = 2;
  std::uint64_t seed = 17;
  std::size_t rounds = 1;
  double deadline_ms = 8000;
  double loss = 0, dup = 0, reorder = 0;
  std::uint64_t shim_seed = 2;
  bool compare_sim = false;
  bool shutdown = false;  // send a control shutdown after the last round
  bool resumption = true;
  bool quiet = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: argusctl --connect IP:PORT [--objects N] [--level 1|2|3]\n"
      "                [--seed N] [--rounds N] [--deadline-ms X]\n"
      "                [--loss P] [--dup P] [--reorder P] [--shim-seed N]\n"
      "                [--compare-sim] [--shutdown] [--no-resume] [--quiet]\n");
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
    if (a == "--connect" && i + 1 < argc) o->connect = argv[++i];
    else if (a == "--objects" && next(&v)) o->objects = static_cast<std::size_t>(v);
    else if (a == "--level" && next(&v)) o->level = static_cast<int>(v);
    else if (a == "--seed" && next(&v)) o->seed = static_cast<std::uint64_t>(v);
    else if (a == "--rounds" && next(&v)) o->rounds = static_cast<std::size_t>(v);
    else if (a == "--deadline-ms" && next(&v)) o->deadline_ms = v;
    else if (a == "--loss" && next(&v)) o->loss = v;
    else if (a == "--dup" && next(&v)) o->dup = v;
    else if (a == "--reorder" && next(&v)) o->reorder = v;
    else if (a == "--shim-seed" && next(&v)) o->shim_seed = static_cast<std::uint64_t>(v);
    else if (a == "--compare-sim") o->compare_sim = true;
    else if (a == "--shutdown") o->shutdown = true;
    else if (a == "--no-resume") o->resumption = false;
    else if (a == "--quiet") o->quiet = true;
    else { usage(); return false; }
  }
  return true;
}

/// Engine-level result set: (object, level, variant) triples, order-free.
std::set<std::tuple<std::string, int, std::string>> result_set(
    const std::vector<argus::core::DiscoveredService>& services) {
  std::set<std::tuple<std::string, int, std::string>> out;
  for (const auto& s : services) out.emplace(s.object_id, s.level, s.variant_tag);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace argus;
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;

  transport::NetAddr daemon;
  if (!transport::parse_addr(opt.connect, &daemon) || daemon.port == 0) {
    std::fprintf(stderr, "argusctl: bad --connect '%s'\n", opt.connect.c_str());
    return 2;
  }

  harness::SweepPoint point;
  point.level = opt.level;
  point.objects = opt.objects;
  point.seed = opt.seed;
  core::DiscoveryScenario scenario = harness::make_scenario(point);

  auto socket = transport::UdpSocket::bind_loopback(0);
  if (!socket) {
    std::fprintf(stderr, "argusctl: bind failed\n");
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
  // ISN-style: a restarted subject re-dials with fresh conn ids so the
  // daemon replaces the stale connection instead of feeding its
  // handshake into a dead state machine.
  ep.conn_id_base = static_cast<std::uint32_t>(getpid()) * 2654435761u | 1u;
  transport::TransportEndpoint endpoint(shimmed, ep, &metrics);
  transport::SockTransport sock(endpoint);

  core::SubjectEngineConfig scfg = core::subject_engine_config(scenario);
  // The scenario seed alone would repeat every R_S on a second run
  // against the same daemon, whose replay windows then drop them all.
  // Mix in the PID, as conn_id_base does; --compare-sim compares service
  // sets, which no nonce changes.
  scfg.seed ^= static_cast<std::uint64_t>(getpid()) * 0x9E3779B97F4A7C15ull;
  scfg.resumption.enabled = opt.resumption;
  scfg.metrics = &metrics;

  transport::ClientParams params;
  params.expected_objects = scenario.objects.size();
  params.epoch = scenario.epoch;
  params.retry.mode = core::RetryMode::kOn;
  params.retry.round_deadline_ms = opt.deadline_ms;
  params.metrics = &metrics;
  transport::SubjectClient client(std::move(scfg), params, sock);

  const double start = transport::steady_now_ms();
  const auto wall_now = [&] { return transport::steady_now_ms() - start; };

  endpoint.connect(daemon, wall_now());

  std::size_t resolved = 0, expected = 0;
  double last_round_ms = 0;
  std::uint64_t que1_retx = 0, que2_retx = 0, rejects = 0;
  bool all_complete = true;
  // Sleep on the socket until a datagram arrives or the earliest
  // reliable-layer deadline, capped by `until_ms`. While the client's
  // lane still owes effects the sleep is capped at kEffectPollMs, so a
  // finished QUE2 leaves within about that.
  constexpr double kEffectPollMs = 1;
  const auto sleep_until_due = [&](double until_ms) {
    const double now = wall_now();
    double due = std::min(endpoint.next_deadline_ms(), until_ms);
    if (client.in_flight() > 0) due = std::min(due, now + kEffectPollMs);
    socket->wait_readable(due - now);
  };
  for (std::size_t r = 0; r < opt.rounds; ++r) {
    client.begin_round(r, wall_now());
    while (true) {
      client.step(wall_now());
      if (client.round_done()) break;
      sleep_until_due(client.next_deadline_ms());
    }
    const transport::ClientReport report = client.finish_round(wall_now());
    resolved += report.resolved;
    expected += report.expected;
    last_round_ms = report.round_ms;
    que1_retx += report.que1_retransmits;
    que2_retx += report.que2_retransmits;
    rejects += report.rejects;
    all_complete &= report.complete();
    if (!opt.quiet) {
      std::fprintf(stderr,
                   "argusctl: round %zu: %zu/%zu in %.1f ms "
                   "(que1_retx %llu, que2_retx %llu)\n",
                   r, report.resolved, report.expected, report.round_ms,
                   static_cast<unsigned long long>(report.que1_retransmits),
                   static_cast<unsigned long long>(report.que2_retransmits));
    }
  }

  if (opt.shutdown) {
    // Tell the daemon to exit. Pump until the reliable layer has the
    // frame acked — the daemon handles it in the same pump that acks it,
    // so a lossy shim can't strand the order — then leave WITHOUT a FIN:
    // the daemon's keep-alive reaper must retire our connection on its
    // own (the smoke test asserts conns_live == 0 afterwards). This runs
    // before --compare-sim: the simulation does not pump the socket, and
    // under a sanitizer it outlasts a short keep-alive timeout, so the
    // daemon would reap the connection before the frame went out.
    client.send_control(daemon.pack(), transport::CtlOp::kShutdown,
                        wall_now());
    const double until = wall_now() + 10000;
    while (wall_now() < until) {
      sock.pump(wall_now());
      shimmed.flush();
      const auto* conn = endpoint.conn(daemon);
      if (conn == nullptr || conn->defunct() ||
          (conn->in_flight() == 0 && conn->queued() == 0)) {
        break;
      }
      sleep_until_due(until);
    }
  }

  // Engine-level parity with the authoritative simulator: run the
  // identical scenario in-process and compare discovered (object, level,
  // variant) sets.
  bool sim_match = true;
  if (opt.compare_sim) {
    const core::DiscoveryReport sim_report = core::run_discovery(scenario);
    sim_match = result_set(sim_report.services) ==
                result_set(client.engine().discovered());
    if (!sim_match && !opt.quiet) {
      std::fprintf(stderr,
                   "argusctl: sim mismatch (daemon %zu vs sim %zu services)\n",
                   client.engine().discovered().size(),
                   sim_report.services.size());
    }
  }

  const double ratio =
      expected == 0 ? 1.0
                    : static_cast<double>(resolved) / static_cast<double>(expected);
  std::string line = "{";
  const auto field = [&line](std::string_view key, double value) {
    if (line.size() > 1) line += ',';
    json::put_string(line, key);
    line += ':';
    json::put_number(line, value);
  };
  field("expected", static_cast<double>(expected));
  field("resolved", static_cast<double>(resolved));
  field("delivery_ratio", ratio);
  field("services", static_cast<double>(client.engine().discovered().size()));
  field("round_ms", last_round_ms);
  field("que1_retx", static_cast<double>(que1_retx));
  field("que2_retx", static_cast<double>(que2_retx));
  field("rejects", static_cast<double>(rejects));
  line += sim_match ? ",\"sim_match\":true" : ",\"sim_match\":false";
  field("shim_dropped", static_cast<double>(shimmed.stats().dropped));
  std::printf("%s}\n", line.c_str());
  std::fflush(stdout);
  return all_complete && sim_match ? 0 : 1;
}
