// Transport: discovery rounds over the reliable-ordered layer, measured
// two ways at 0 / 10 / 30% shim loss:
//
//   virtual   daemon + subject over the in-memory pipe hub on a
//             hand-stepped clock — deterministic round time, retransmit
//             and resend counters, delivery ratio. These are the
//             benchdiff-gated numbers: any delta is a real change in the
//             reliable layer or the retry driver, not machine noise.
//   wall      the same engine rooms over real UDP loopback sockets, one
//             host and four clients for one second per loss point and
//             per --repeat — handshakes/s and p99 round latency.
//             Informational on shared runners; the header line and the
//             trajectory entry record the core count and --repeat.
//
// One "handshake" is a resolved channel: the full QUE1/RES1/QUE2/RES2
// exchange for one hosted object, carried over the reliable connection.
//
// Every cell runs the shipped reliable-layer defaults. The table splits
// reliable-layer resends by cause: retransmit-timer expiry, RACK-detected
// loss and tail-loss probe.
//
// `--smoke` is the ctest/CI gate: clean pipe rounds must complete with
// zero retransmits and zero reliable-layer resends, lossy rounds must
// still deliver every service (delivery_ratio == 1.0, recovery counters
// > 0) with zero retry-driver retransmits (the reliable layer alone
// recovers losses), the lossy cell must replay byte-deterministically,
// and a UDP loopback round at 10% shim loss must complete. (The two-process CI
// smoke additionally asserts zero leaked daemon connections.)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_args.hpp"
#include "fault/netem.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "transport/client.hpp"
#include "transport/host.hpp"
#include "transport/lanes.hpp"
#include "transport/pipe.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

using namespace argus;

namespace {

struct Grid {
  std::size_t objects = 16;
  std::size_t rounds = 8;         // virtual rounds per loss point
  double wall_s = 1.0;            // loopback seconds per loss point, per repeat
  std::size_t wall_clients = 4;   // loopback clients sharing the host
};

constexpr double kLossPoints[] = {0.0, 0.10, 0.30};

core::DiscoveryScenario scenario_for(std::size_t objects) {
  harness::SweepPoint point;
  point.level = 2;
  point.objects = objects;
  point.seed = 17;
  return harness::make_scenario(point);
}

transport::HostConfig host_config(const core::DiscoveryScenario& scenario,
                                  obs::MetricsRegistry* metrics) {
  transport::HostConfig cfg;
  cfg.epoch = scenario.epoch;
  cfg.metrics = metrics;
  for (std::size_t i = 0; i < scenario.objects.size(); ++i) {
    core::ObjectEngineConfig ocfg = core::object_engine_config(scenario, i);
    ocfg.metrics = metrics;
    cfg.objects.push_back(std::move(ocfg));
  }
  return cfg;
}

core::SubjectEngineConfig subject_config(
    const core::DiscoveryScenario& scenario, obs::MetricsRegistry* metrics) {
  core::SubjectEngineConfig scfg = core::subject_engine_config(scenario);
  scfg.metrics = metrics;
  return scfg;
}

transport::ClientParams client_params(const core::DiscoveryScenario& s) {
  transport::ClientParams params;
  params.expected_objects = s.objects.size();
  params.epoch = s.epoch;
  params.retry.mode = core::RetryMode::kOn;
  return params;
}

/// Shipped reliable-layer defaults; only the conn-id base differs.
transport::EndpointParams endpoint_params(std::uint32_t base) {
  transport::EndpointParams p;
  p.conn_id_base = base;
  return p;
}

fault::NetemParams shim_params(double loss, std::uint64_t seed) {
  fault::NetemParams p;
  p.drop_prob = loss;
  p.seed = seed;
  return p;
}

/// One virtual-clock loss point: daemon + subject over the pipe hub.
struct VirtualCell {
  bool ok = true;
  double total_round_ms = 0;   // summed over rounds — deterministic
  double worst_ratio = 1.0;
  std::uint64_t retransmits = 0;  // QUE1 + QUE2 (retry driver)
  transport::ReliableConn::Stats reliable;  // client -> daemon connection
  std::uint64_t shim_dropped = 0;
  std::size_t handshakes = 0;
};

VirtualCell run_virtual(const Grid& grid, double loss) {
  const core::DiscoveryScenario scenario = scenario_for(grid.objects);
  transport::PipeHub hub;
  auto dsock = hub.open(0);
  auto csock = hub.open(0);
  fault::NetemSocket dshim(*dsock, shim_params(loss, 13));
  fault::NetemSocket cshim(*csock, shim_params(loss, 14));
  obs::MetricsRegistry metrics;
  transport::TransportEndpoint dend(dshim, endpoint_params(7000), &metrics);
  transport::TransportEndpoint cend(cshim, endpoint_params(9000), &metrics);
  transport::SockTransport dtrans(dend), ctrans(cend);
  transport::ObjectHost host(host_config(scenario, &metrics), dtrans);
  transport::SubjectClient client(subject_config(scenario, &metrics),
                                  client_params(scenario), ctrans);

  VirtualCell cell;
  double now = 0;
  for (std::size_t r = 0; r < grid.rounds; ++r) {
    cend.connect(dsock->local_addr(), now);
    client.begin_round(0, now);
    const double deadline = now + 60000;
    while (!client.round_done() && now < deadline) {
      now += 5;
      host.pump(now);
      host.settle();
      client.step(now);
      client.settle();
    }
    const transport::ClientReport report = client.finish_round(now);
    cell.ok = cell.ok && report.complete();
    cell.total_round_ms += report.round_ms;
    cell.worst_ratio = std::min(cell.worst_ratio, report.delivery_ratio());
    cell.retransmits += report.que1_retransmits + report.que2_retransmits;
    cell.handshakes += report.resolved;
  }
  if (const auto* conn = cend.conn(dsock->local_addr())) {
    cell.reliable = conn->stats();
  }
  cell.shim_dropped = dshim.stats().dropped + cshim.stats().dropped;
  return cell;
}

/// One wall-clock loss point: the same rooms over real UDP loopback, one
/// host and `wall_clients` clients, each socket behind its own netem
/// shim, running closed-loop rounds for `wall_s` seconds per repeat
/// (rounds in flight at the end run to completion). Nobody settles: host
/// and clients pump without waiting for their engine lanes.
struct WallCell {
  bool ok = true;
  double handshakes_per_s = 0;
  double p99_round_ms = 0;
};

WallCell run_wall(const Grid& grid, double loss, std::uint64_t repeat) {
  const core::DiscoveryScenario scenario = scenario_for(grid.objects);
  WallCell cell;
  auto dsock = transport::UdpSocket::bind_loopback(0);
  if (!dsock) {
    std::fprintf(stderr, "loopback bind failed\n");
    cell.ok = false;
    return cell;
  }
  fault::NetemSocket dshim(*dsock, shim_params(loss, 21));
  obs::MetricsRegistry metrics;
  transport::TransportEndpoint dend(dshim, endpoint_params(7000), &metrics);
  transport::SockTransport dtrans(dend);
  transport::ObjectHost host(host_config(scenario, &metrics), dtrans);

  const double start = transport::steady_now_ms();
  const auto now = [&] { return transport::steady_now_ms() - start; };

  struct Client {
    std::unique_ptr<transport::UdpSocket> sock;
    std::optional<fault::NetemSocket> shim;
    std::optional<transport::TransportEndpoint> end;
    std::optional<transport::SockTransport> trans;
    std::optional<transport::SubjectClient> client;
    bool active = false;
  };
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < grid.wall_clients; ++c) {
    auto cl = std::make_unique<Client>();
    cl->sock = transport::UdpSocket::bind_loopback(0);
    if (!cl->sock) {
      std::fprintf(stderr, "loopback bind failed\n");
      cell.ok = false;
      return cell;
    }
    cl->shim.emplace(*cl->sock, shim_params(loss, 22 + c));
    const auto base = static_cast<std::uint32_t>(9000 + 100 * c);
    cl->end.emplace(*cl->shim, endpoint_params(base));
    cl->trans.emplace(*cl->end);
    core::SubjectEngineConfig scfg = subject_config(scenario, &metrics);
    scfg.seed += c;  // distinct nonces: no client replays another's
    cl->client.emplace(std::move(scfg), client_params(scenario), *cl->trans);
    cl->end->connect(dsock->local_addr(), now());
    clients.push_back(std::move(cl));
  }

  // Closed-loop rounds on every client until `until` (each client runs at
  // least one); false if a round failed or outlived `give_up`.
  std::vector<double> round_ms;
  std::size_t handshakes = 0;
  const auto run = [&](double until) {
    const double give_up = until + 120000;
    bool ok = true;
    bool any = true;
    for (auto& cl : clients) {
      cl->active = true;
      cl->client->begin_round(0, now());
    }
    while (any && now() < give_up) {
      host.pump(now());
      any = false;
      for (auto& cl : clients) {
        if (!cl->active) {
          // Keep an idle client's connection alive: a client silent past
          // the keep-alive timeout is reaped by the host, and its next
          // round would go into a connection only it still knows.
          cl->trans->pump(now());
          continue;
        }
        cl->client->step(now());
        if (cl->client->round_done()) {
          const transport::ClientReport r = cl->client->finish_round(now());
          ok = ok && r.complete();
          round_ms.push_back(r.round_ms);
          handshakes += r.resolved;
          cl->active = now() < until;
          if (cl->active) cl->client->begin_round(0, now());
        }
        any = any || cl->active;
      }
    }
    return ok && !any;
  };
  // One untimed round per client first: connection set-up and the first,
  // cold discoveries would otherwise be most of a one-second cell's p99.
  cell.ok = run(0);
  round_ms.clear();
  handshakes = 0;
  const double wall0 = now();
  cell.ok = run(wall0 + grid.wall_s * 1000.0 * static_cast<double>(repeat)) &&
            cell.ok;
  const double wall_s = (now() - wall0) / 1000.0;
  cell.handshakes_per_s =
      wall_s > 0 ? static_cast<double>(handshakes) / wall_s : 0;
  std::sort(round_ms.begin(), round_ms.end());
  if (!round_ms.empty()) {
    const std::size_t idx = (round_ms.size() * 99 + 99) / 100 - 1;
    cell.p99_round_ms = round_ms[std::min(idx, round_ms.size() - 1)];
  }
  return cell;
}

const char* loss_tag(double loss) {
  if (loss == 0.0) return "loss0";
  if (loss == 0.10) return "loss10";
  return "loss30";
}

int smoke(const bench::Args& args) {
  const Grid grid{6, 2, 0.2, 4};
  // Clean pipe: complete, and quiet — zero retry-driver retransmits and
  // zero reliable-layer resends.
  const VirtualCell clean = run_virtual(grid, 0.0);
  if (!clean.ok || clean.retransmits != 0 || clean.reliable.resends != 0) {
    std::fprintf(stderr,
                 "smoke: clean pipe regressed (ok %d, rtx %llu, resends "
                 "%llu)\n",
                 clean.ok, static_cast<unsigned long long>(clean.retransmits),
                 static_cast<unsigned long long>(clean.reliable.resends));
    return 1;
  }
  // Lossy pipe: the shim must have really dropped packets, the reliable
  // layer must still deliver every service, and it must be the only
  // loss-recovery owner: zero retry-driver retransmits.
  const VirtualCell lossy = run_virtual(grid, 0.30);
  if (!lossy.ok || lossy.worst_ratio < 1.0 || lossy.shim_dropped == 0 ||
      lossy.reliable.resends == 0 || lossy.retransmits != 0) {
    std::fprintf(stderr,
                 "smoke: lossy pipe regressed (ok %d, ratio %.3f, dropped "
                 "%llu, resends %llu, rtx %llu)\n",
                 lossy.ok, lossy.worst_ratio,
                 static_cast<unsigned long long>(lossy.shim_dropped),
                 static_cast<unsigned long long>(lossy.reliable.resends),
                 static_cast<unsigned long long>(lossy.retransmits));
    return 1;
  }
  // Determinism: the lossy cell replays to the same virtual timings and
  // counters — seeded shims + fixed-step clock leave no room for noise.
  const VirtualCell replay = run_virtual(grid, 0.30);
  if (replay.total_round_ms != lossy.total_round_ms ||
      replay.retransmits != lossy.retransmits ||
      replay.reliable.resends != lossy.reliable.resends ||
      replay.shim_dropped != lossy.shim_dropped) {
    std::fprintf(stderr, "smoke: lossy pipe cell is not deterministic\n");
    return 1;
  }
  // Real sockets: one loopback point at 10% shim loss must complete.
  const WallCell wall = run_wall(grid, 0.10, 1);
  if (!wall.ok) {
    std::fprintf(stderr, "smoke: loopback round at 10%% loss incomplete\n");
    return 1;
  }
  std::printf(
      "smoke OK: clean pipe %zu handshakes quiet; 30%% loss ratio %.3f "
      "(%llu dropped, %llu resends) deterministic; loopback@10%% %.1f hs/s "
      "p99 %.1f ms\n",
      clean.handshakes, lossy.worst_ratio,
      static_cast<unsigned long long>(lossy.shim_dropped),
      static_cast<unsigned long long>(lossy.reliable.resends),
      wall.handshakes_per_s,
      wall.p99_round_ms);

  obs::bench::BenchReporter reporter("transport");
  reporter.set_threads(transport::LaneSet::max_workers());
  reporter.set_repeat(args.repeat);
  reporter.metric("virtual.round_ms_total.loss0", clean.total_round_ms, "ms",
                  "virtual");
  reporter.metric("virtual.round_ms_total.loss30", lossy.total_round_ms, "ms",
                  "virtual");
  reporter.metric("virtual.resends.loss30",
                  static_cast<double>(lossy.reliable.resends), "count",
                  "virtual");
  reporter.metric("virtual.delivery_ratio.worst", lossy.worst_ratio, "ratio",
                  "virtual", /*lower_is_better=*/false);
  reporter.metric("wall.handshakes_per_s.loss10", wall.handshakes_per_s,
                  "hs/s", "wall", /*lower_is_better=*/false);
  reporter.metric("wall.round_ms_p99.loss10", wall.p99_round_ms, "ms",
                  "wall");
  return bench::finish_bench(args, reporter, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  if (args.smoke) return smoke(args);

  const Grid grid;
  std::printf("Transport — %zu objects; per loss point %zu virtual rounds "
              "and %.0f s x %llu of %zu loopback clients on %u cores "
              "(%zu engine-lane workers)\n\n",
              grid.objects, grid.rounds, grid.wall_s,
              static_cast<unsigned long long>(args.repeat), grid.wall_clients,
              std::thread::hardware_concurrency(),
              transport::LaneSet::max_workers());
  std::printf("%6s | %10s %6s %8s %6s %6s %6s | %10s %8s\n", "loss",
              "virt ms/rd", "rtx", "resends", "rto", "fast", "tlp", "hs/s",
              "p99 ms");
  std::printf("-------+---------------------------------------------------"
              "+--------------------\n");

  // One untimed second of loopback rounds before the first timed cell: on
  // a machine that has been idle, the lane workers' first second runs
  // several times slower (cold vCPUs), and without this it lands in the
  // 0 % cell. It touches no virtual row.
  if (!run_wall(grid, 0.0, 1).ok) {
    std::fprintf(stderr, "incomplete warm-up round\n");
    return 1;
  }

  obs::bench::BenchReporter reporter("transport");
  reporter.set_threads(transport::LaneSet::max_workers());
  reporter.set_repeat(args.repeat);
  for (const double loss : kLossPoints) {
    const VirtualCell v = run_virtual(grid, loss);
    const WallCell w = run_wall(grid, loss, args.repeat);
    if (!v.ok || !w.ok || v.worst_ratio < 1.0) {
      std::fprintf(stderr, "incomplete round at %.0f%% loss (ratio %.3f)\n",
                   loss * 100, v.worst_ratio);
      return 1;
    }
    std::printf("%5.0f%% | %10.1f %6llu %8llu %6llu %6llu %6llu | %10.1f "
                "%8.1f\n",
                loss * 100, v.total_round_ms / static_cast<double>(grid.rounds),
                static_cast<unsigned long long>(v.retransmits),
                static_cast<unsigned long long>(v.reliable.resends),
                static_cast<unsigned long long>(v.reliable.rto_resends),
                static_cast<unsigned long long>(v.reliable.fast_resends),
                static_cast<unsigned long long>(v.reliable.tlp_probes),
                w.handshakes_per_s, w.p99_round_ms);
    const std::string tag = loss_tag(loss);
    // Virtual numbers are --repeat invariant (one deterministic pass);
    // a wall cell runs --repeat times as long.
    reporter.metric("virtual.round_ms_total." + tag, v.total_round_ms, "ms",
                    "virtual");
    reporter.metric("virtual.retransmits." + tag,
                    static_cast<double>(v.retransmits), "count", "virtual");
    reporter.metric("virtual.resends." + tag,
                    static_cast<double>(v.reliable.resends),
                    "count", "virtual");
    reporter.metric("wall.handshakes_per_s." + tag, w.handshakes_per_s,
                    "hs/s", "wall", /*lower_is_better=*/false);
    reporter.metric("wall.round_ms_p99." + tag, w.p99_round_ms, "ms", "wall");
  }
  reporter.metric("virtual.delivery_ratio.worst", 1.0, "ratio", "virtual",
                  /*lower_is_better=*/false);
  return bench::finish_bench(args, reporter, nullptr);
}
