// daemon_loss10: the argusd/argusctl engine rooms over real loopback UDP.
// One ObjectHost serves 16 Level-2 engines; 4 SubjectClients with their
// own credentials each run closed-loop rounds against it. Every socket
// sits behind a seeded 10% NetemSocket drop; endpoint, reliable-layer and
// retry settings are the shipped defaults. One thread polls host and
// clients, timing each pump/step call from outside: a call that moved a
// packet is busy time, one that moved nothing is idle (waiting on a
// retransmit timer or the peer).
#include <cstdio>
#include <memory>
#include <optional>

#include "common.hpp"
#include "defaults.hpp"
#include "fault/netem.hpp"
#include "transport/client.hpp"
#include "transport/host.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kObjects = 16;
constexpr std::size_t kClients = 4;
constexpr std::size_t kSetups = 21;  // set-up repeats; setup_s is the median
constexpr double kLoss = 0.10;

/// Counts the bytes an endpoint offers to the wire (before the loss shim
/// drops any), retransmissions and acks included.
class CountingSocket final : public transport::DatagramSocket {
 public:
  explicit CountingSocket(transport::DatagramSocket& inner) : inner_(inner) {}
  bool send_to(const transport::NetAddr& to, ByteSpan data) override {
    bytes_ += data.size();
    return inner_.send_to(to, data);
  }
  bool recv_from(transport::NetAddr* from, Bytes* data) override {
    return inner_.recv_from(from, data);
  }
  [[nodiscard]] transport::NetAddr local_addr() const override {
    return inner_.local_addr();
  }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  transport::DatagramSocket& inner_;
  std::uint64_t bytes_ = 0;
};

/// One socket stack: endpoint -> byte counter -> loss shim -> UDP.
/// Held by pointer: each layer keeps a reference to the one below.
struct Stack {
  std::unique_ptr<transport::UdpSocket> udp;
  std::optional<fault::NetemSocket> netem;
  std::optional<CountingSocket> counter;
  std::optional<transport::TransportEndpoint> endpoint;
  std::optional<transport::SockTransport> transport;

  [[nodiscard]] std::uint64_t packets() const {
    return endpoint->stats().rx_packets + endpoint->stats().tx_packets;
  }
};

/// The registered fleet: what the program under test receives.
struct Fleet {
  crypto::EcPoint admin_pub;
  std::uint64_t epoch = 0;
  std::vector<backend::SubjectCredentials> subjects;
  std::vector<backend::ObjectCredentials> objects;
};

Fleet provision(std::uint64_t seed) {
  ARGUS_PROF_SCOPE("backend.provision");
  backend::Backend be(crypto::Strength::b128, seed);
  Fleet f;
  // Managers and employees see different faces of every object.
  for (std::size_t c = 0; c < kClients; ++c) {
    f.subjects.push_back(be.register_subject(
        "subject-" + std::to_string(c),
        backend::AttributeMap{
            {"position", c % 2 == 0 ? "manager" : "employee"}}));
  }
  for (std::size_t i = 0; i < kObjects; ++i) {
    f.objects.push_back(be.register_object(
        "obj-" + std::to_string(i), backend::AttributeMap{{"type", "display"}},
        backend::Level::kL2, {},
        {{"position=='manager'", "managers", {"use", "configure"}},
         {"position=='employee'", "staff", {"use"}}}));
  }
  f.admin_pub = be.admin_public_key();
  f.epoch = be.now();
  return f;
}

transport::HostConfig host_config(const Fleet& f, std::uint64_t seed) {
  transport::HostConfig cfg;
  cfg.epoch = f.epoch;
  for (std::size_t i = 0; i < f.objects.size(); ++i) {
    core::ObjectEngineConfig ocfg;
    ocfg.creds = f.objects[i];
    ocfg.admin_pub = f.admin_pub;
    ocfg.seed = seed * 1000 + 100 + i;
    cfg.objects.push_back(std::move(ocfg));
  }
  return cfg;
}

core::SubjectEngineConfig subject_config(const Fleet& f, std::size_t c,
                                         std::uint64_t seed) {
  core::SubjectEngineConfig scfg;
  scfg.creds = f.subjects[c];
  scfg.admin_pub = f.admin_pub;
  scfg.seed = seed * 1000 + c;
  return scfg;
}

transport::ClientParams client_params(const Fleet& f) {
  transport::ClientParams p;
  p.expected_objects = f.objects.size();
  p.epoch = f.epoch;
  return p;
}

/// Shipped defaults: no RTO, window or conn-table override.
transport::EndpointParams endpoint_params() { return {}; }

std::unique_ptr<Stack> make_stack(std::uint64_t netem_seed) {
  auto s = std::make_unique<Stack>();
  s->udp = transport::UdpSocket::bind_loopback(0);
  if (!s->udp) return nullptr;
  s->netem.emplace(*s->udp, fault::NetemParams{kLoss, 0.0, 0.0, netem_seed});
  s->counter.emplace(*s->netem);
  s->endpoint.emplace(*s->counter, endpoint_params());
  s->transport.emplace(*s->endpoint);
  return s;
}

struct Rig {
  Fleet fleet;
  std::unique_ptr<Stack> host_stack;
  std::vector<std::unique_ptr<Stack>> client_stacks;
  std::optional<transport::ObjectHost> host;
  std::vector<std::unique_ptr<transport::SubjectClient>> clients;
  std::vector<ServiceSet> expected;  // per client, from the oracle

  [[nodiscard]] std::vector<const Stack*> stacks() const {
    std::vector<const Stack*> out{host_stack.get()};
    for (const auto& s : client_stacks) out.push_back(s.get());
    return out;
  }
};

/// Provision the fleet and build host, clients and sockets; nullptr if a
/// loopback socket cannot be bound. With `overrides` set, every config
/// built is checked against the shipped defaults.
std::unique_ptr<Rig> build_rig(std::uint64_t seed,
                               std::vector<std::string>* overrides) {
  auto rig = std::make_unique<Rig>();
  rig->fleet = provision(seed);
  ARGUS_PROF_SCOPE("argus.testbed_build");
  rig->host_stack = make_stack(seed * 1000 + 500);
  if (!rig->host_stack) return nullptr;
  transport::HostConfig hcfg = host_config(rig->fleet, seed);
  if (overrides != nullptr) {
    check_fast_paths(overrides);
    check_endpoint_params(endpoint_params(), overrides);
    check_client_params(client_params(rig->fleet), overrides);
    for (const auto& ocfg : hcfg.objects) check_object_config(ocfg, overrides);
  }
  rig->host.emplace(std::move(hcfg), *rig->host_stack->transport);
  const transport::NetAddr host_addr = rig->host_stack->udp->local_addr();
  for (std::size_t c = 0; c < kClients; ++c) {
    auto stack = make_stack(seed * 1000 + 501 + c);
    if (!stack) return nullptr;
    core::SubjectEngineConfig scfg = subject_config(rig->fleet, c, seed);
    if (overrides != nullptr) check_subject_config(scfg, overrides);
    rig->clients.push_back(std::make_unique<transport::SubjectClient>(
        std::move(scfg), client_params(rig->fleet), *stack->transport));
    stack->endpoint->connect(host_addr, transport::steady_now_ms());
    rig->client_stacks.push_back(std::move(stack));
  }
  return rig;
}

void prepare_oracle(Rig& rig) {
  for (const backend::SubjectCredentials& subject : rig.fleet.subjects) {
    ServiceSet want;
    for (const backend::ObjectCredentials& object : rig.fleet.objects) {
      ServiceKey k;
      if (expected_service(subject, 0, object, &k)) want.insert(k);
    }
    rig.expected.push_back(std::move(want));
  }
}

struct Loop {
  double wall_ms = 0;
  double host_busy_ms = 0;
  double client_busy_ms = 0;
  double idle_ms = 0;
  std::uint64_t attempted = 0;
  std::uint64_t resolved = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t rejects = 0;
  std::uint64_t que1_retransmits = 0;
  std::uint64_t que2_retransmits = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<double> round_ms;
};

std::uint64_t wire_bytes(const Rig& rig) {
  std::uint64_t total = 0;
  for (const Stack* s : rig.stacks()) total += s->counter->bytes();
  return total;
}

/// Closed-loop rounds on every client until `seconds` have passed (or
/// each client ran `fixed_rounds`); rounds in flight at the deadline run
/// to completion.
Loop run_loop(Rig& rig, double seconds, std::size_t fixed_rounds,
              obs::prof::Profiler* prof) {
  std::optional<obs::prof::Profiler::Attach> attach;
  if (prof != nullptr) attach.emplace(*prof, 0);
  Loop out;
  const std::uint64_t bytes0 = wire_bytes(rig);
  const std::uint64_t t0 = obs::prof::now_ns();
  const double end = transport::steady_now_ms() + seconds * 1000.0;
  std::vector<std::size_t> rounds(kClients, 0);
  std::vector<char> active(kClients, 0);
  const auto begin = [&](std::size_t c) {
    const bool more = fixed_rounds > 0 ? rounds[c] < fixed_rounds
                                       : transport::steady_now_ms() < end;
    active[c] = more;
    if (!more) return;
    const std::uint64_t b0 = obs::prof::now_ns();
    {
      ARGUS_PROF_SCOPE("transport.client.begin_round");
      rig.clients[c]->begin_round(0, transport::steady_now_ms());
    }
    out.client_busy_ms += ms_since(b0);
  };
  for (std::size_t c = 0; c < kClients; ++c) begin(c);
  bool any = true;
  while (any) {
    {
      const std::uint64_t p0 = rig.host_stack->packets();
      const std::uint64_t c0 = obs::prof::now_ns();
      {
        ARGUS_PROF_SCOPE("transport.host.pump");
        rig.host->pump(transport::steady_now_ms());
      }
      (rig.host_stack->packets() != p0 ? out.host_busy_ms : out.idle_ms) +=
          ms_since(c0);
    }
    any = false;
    for (std::size_t c = 0; c < kClients; ++c) {
      if (!active[c]) continue;
      transport::SubjectClient& client = *rig.clients[c];
      const std::uint64_t p0 = rig.client_stacks[c]->packets();
      const std::uint64_t c0 = obs::prof::now_ns();
      {
        ARGUS_PROF_SCOPE("transport.client.step");
        client.step(transport::steady_now_ms());
      }
      (rig.client_stacks[c]->packets() != p0 ? out.client_busy_ms
                                             : out.idle_ms) += ms_since(c0);
      if (client.round_done()) {
        const transport::ClientReport r =
            client.finish_round(transport::steady_now_ms());
        ++rounds[c];
        out.attempted += r.expected;
        out.resolved += r.resolved;
        out.failed += r.expected - r.resolved;
        out.rejects += r.rejects;
        out.que1_retransmits += r.que1_retransmits;
        out.que2_retransmits += r.que2_retransmits;
        out.round_ms.push_back(r.round_ms);
        // A complete round must leave exactly the oracle's services;
        // an incomplete one already counts as failed.
        if (r.complete() &&
            service_mismatches(rig.expected[c], to_service_set(r.services)) !=
                0) {
          ++out.wrong;
        }
        begin(c);
      }
      any = any || active[c];
    }
  }
  out.wall_ms = ms_since(t0);
  out.wire_bytes = wire_bytes(rig) - bytes0;
  return out;
}

}  // namespace

RunResult run_daemon_loss10(const Options& opts) {
  RunResult res;
  obs::prof::Profiler setup_prof({kProfEventsPerLane});
  std::unique_ptr<Rig> rig;
  const std::size_t setups = opts.fixed_rounds > 0 ? 1 : kSetups;
  for (std::size_t rep = 0; rep < setups; ++rep) {
    rig.reset();
    std::optional<obs::prof::Profiler::Attach> attach;
    if (opts.trace) attach.emplace(setup_prof, 0);
    const std::uint64_t t0 = obs::prof::now_ns();
    // The last set-up is the one measured; its configs are checked.
    rig = build_rig(opts.seed, rep + 1 == setups ? &res.overrides : nullptr);
    res.setup_s.push_back(ms_since(t0) / 1000.0);
    if (!rig) {
      std::fprintf(stderr, "daemon_loss10: cannot bind a loopback socket\n");
      return res;  // nothing attempted: the run fails
    }
  }
  prepare_oracle(*rig);
  if (opts.corrupt_expectation) {
    ServiceSet& want = rig->expected[0];
    ServiceKey k = *want.begin();
    want.erase(want.begin());
    k.variant_tag += "-wrong";
    want.insert(k);
  }

  // One untimed warm-up round per client: connection handshakes and
  // first discoveries happen here, so the measured rounds are all
  // re-discoveries.
  const Loop warm = run_loop(*rig, 0, 1, nullptr);
  res.peak_rss_mb = peak_rss_mb();

  obs::prof::Profiler prof({kProfEventsPerLane});
  Loop plain;
  if (!opts.trace || opts.fixed_rounds == 0) {
    plain = run_loop(*rig, opts.trace ? opts.seconds / 2 : opts.seconds,
                     opts.fixed_rounds, nullptr);
  }
  Loop traced;
  if (opts.trace) {
    traced = run_loop(*rig, opts.seconds / 2, opts.fixed_rounds, &prof);
  }
  const Loop& main = opts.trace ? traced : plain;

  // Every client must end holding exactly the oracle's services.
  std::uint64_t wrong = warm.wrong + plain.wrong + traced.wrong;
  for (std::size_t c = 0; c < kClients; ++c) {
    const auto& found = rig->clients[c]->engine().discovered();
    wrong += service_mismatches(rig->expected[c], to_service_set(found));
  }
  res.timed_s = main.wall_ms / 1000.0;
  res.handshakes = main.resolved;
  res.attempted = warm.attempted + plain.attempted + traced.attempted;
  res.failed = warm.failed + plain.failed + traced.failed;
  res.wrong = wrong;
  res.round_ms = main.round_ms;
  res.wire_bytes_per_handshake = ratio(static_cast<double>(main.wire_bytes),
                                       static_cast<double>(main.resolved));
  if (!opts.trace) return res;

  Layer& L = res.layer;
  const auto spans = label_stats(prof);
  add_span_layers(spans, traced.resolved, &L);
  add_setup_layers(label_stats(setup_prof), kClients + kObjects, setups, &L);
  const double hs_all =
      static_cast<double>(warm.resolved + plain.resolved + traced.resolved);

  // Engine counters, cumulative over every round of the run.
  core::ObjectEngine::Stats host_engines;
  for (std::size_t i = 0; i < rig->host->engine_count(); ++i) {
    const auto& s = rig->host->engine(i).stats();
    host_engines.rejects += s.rejects;
    host_engines.resumption_hits += s.resumption_hits;
    host_engines.resumption_misses += s.resumption_misses;
    host_engines.batch_verified_sigs += s.batch_verified_sigs;
    host_engines.batch_fallback_sigs += s.batch_fallback_sigs;
  }
  double hits = static_cast<double>(host_engines.resumption_hits);
  double misses = static_cast<double>(host_engines.resumption_misses);
  for (const auto& client : rig->clients) {
    hits += static_cast<double>(client->engine().stats().resumption_hits);
    misses += static_cast<double>(client->engine().stats().resumption_misses);
  }
  L["argus.virtual_round_ms"] = 0;  // no modelled clock on the daemon path
  L["argus.rejects"] = static_cast<double>(
      warm.rejects + plain.rejects + traced.rejects + host_engines.rejects);
  L["argus.resumption_hits"] = hits;
  L["argus.resumption_misses"] = misses;
  L["argus.resumption_hit_ratio"] = ratio(hits, hits + misses);
  const double batched = static_cast<double>(host_engines.batch_verified_sigs);
  const double fallback = static_cast<double>(host_engines.batch_fallback_sigs);
  L["argus.batch_verified_sigs"] = batched;
  L["argus.batch_fallback_sigs"] = fallback;
  L["argus.batch_fallback_ratio"] = ratio(fallback, batched + fallback);
  L["pool.workers"] = 1;

  // Transport split of the traced phase: busy calls minus the engine
  // spans inside them is the transport's own time.
  const auto incl = [&](std::initializer_list<const char*> labels) {
    double ms = 0;
    for (const char* label : labels) {
      if (const auto it = spans.find(label); it != spans.end()) {
        ms += it->second.incl_ms;
      }
    }
    return ms;
  };
  L["transport.host.busy_ms"] = traced.host_busy_ms;
  L["transport.client.busy_ms"] = traced.client_busy_ms;
  L["transport.host.self_ms"] =
      traced.host_busy_ms -
      incl({"object.handle_que1", "object.handle_que2", "object.handle_batch"});
  L["transport.client.self_ms"] =
      traced.client_busy_ms -
      incl({"subject.start_round", "subject.handle_res1_l1",
            "subject.handle_res1", "subject.handle_res2"});
  L["transport.idle_ms"] = traced.idle_ms;
  L["transport.wait_share"] =
      ratio(traced.idle_ms,
            traced.idle_ms + traced.host_busy_ms + traced.client_busy_ms);

  // Reliable-layer and endpoint counters over the whole run, both sides.
  transport::ReliableConn::Stats rel;
  const transport::NetAddr host_addr = rig->host_stack->udp->local_addr();
  const auto add_conn = [&rel](const transport::ReliableConn* conn) {
    if (conn == nullptr) return;
    rel.frames_sent += conn->stats().frames_sent;
    rel.resends += conn->stats().resends;
    rel.dup_rx += conn->stats().dup_rx;
    rel.out_of_order_rx += conn->stats().out_of_order_rx;
    rel.acks_sent += conn->stats().acks_sent;
  };
  for (const auto& stack : rig->client_stacks) {
    add_conn(stack->endpoint->conn(host_addr));
    add_conn(rig->host_stack->endpoint->conn(stack->udp->local_addr()));
  }
  const auto frames = static_cast<double>(rel.frames_sent);
  const auto resends = static_cast<double>(rel.resends);
  L["transport.reliable.frames_sent"] = frames;
  L["transport.reliable.resends"] = resends;
  L["transport.reliable.resend_ratio"] = ratio(resends, frames);
  L["transport.reliable.dup_rx"] = static_cast<double>(rel.dup_rx);
  L["transport.reliable.out_of_order_rx"] =
      static_cast<double>(rel.out_of_order_rx);
  L["transport.reliable.acks_sent"] = static_cast<double>(rel.acks_sent);
  double tx = 0, rx = 0, decode_failed = 0, dropped = 0;
  for (const Stack* s : rig->stacks()) {
    tx += static_cast<double>(s->endpoint->stats().tx_packets);
    rx += static_cast<double>(s->endpoint->stats().rx_packets);
    decode_failed += static_cast<double>(s->endpoint->stats().decode_failed);
    dropped += static_cast<double>(s->netem->stats().dropped);
  }
  L["transport.endpoint.tx_packets"] = tx;
  L["transport.endpoint.rx_packets"] = rx;
  L["transport.endpoint.decode_failed"] = decode_failed;
  L["transport.packets_per_handshake"] = ratio(tx, hs_all);
  L["transport.client.que1_retransmits"] = static_cast<double>(
      warm.que1_retransmits + plain.que1_retransmits + traced.que1_retransmits);
  L["transport.client.que2_retransmits"] = static_cast<double>(
      warm.que2_retransmits + plain.que2_retransmits + traced.que2_retransmits);
  L["transport.netem.dropped"] = dropped;

  const double plain_hs =
      ratio(static_cast<double>(plain.resolved), plain.wall_ms / 1000.0);
  const double traced_hs =
      ratio(static_cast<double>(traced.resolved), traced.wall_ms / 1000.0);
  L["obs.untraced_handshakes_per_s"] = plain_hs;
  L["obs.traced_handshakes_per_s"] = traced_hs;
  L["obs.trace_overhead_ratio"] = ratio(plain_hs, traced_hs);
  L["obs.accounted_share"] = ratio(total_self_ms(spans), traced.wall_ms);
  return res;
}

}  // namespace perfbench
