// Subject-side discovery client: the socket adapter over
// core::RoundDriver.
//
// argusctl's engine room, shared with the in-process transport tests.
// The round itself — QUE1 re-broadcast, per-channel QUE2 retransmits,
// backoff, budgets, the round deadline — is the driver's, the same code
// the simulator runs; this class only does socket work: mux
// encode/decode (one channel per hosted engine), polling the driver's
// timers against the caller's clock, and the control plane. A dead
// daemon or a lossy path degrades to a reported timeout, never a hang.
//
// The caller owns the drive loop:
//
//   client.begin_round(group_idx, now);
//   while (!client.round_done()) { client.step(now); now = ...; }
//   auto report = client.finish_round(now);
//
// on a wall clock (argusctl) or a hand-stepped virtual one (tests).
#pragma once

#include <cstdint>
#include <vector>

#include "argus/round_driver.hpp"
#include "obs/metrics.hpp"
#include "transport/mux.hpp"
#include "transport/transport.hpp"

namespace argus::transport {

struct ClientParams {
  /// Channels (hosted engines) a round expects answers from.
  std::size_t expected_objects = 0;
  /// Wall-clock epoch for certificate validity (matches the daemon's).
  std::uint64_t epoch = 0;
  core::RetryPolicy retry{};
  obs::MetricsRegistry* metrics = nullptr;
};

struct ClientReport {
  std::size_t expected = 0;
  std::size_t resolved = 0;   // channels that completed an exchange
  std::size_t timed_out = 0;  // channels that exhausted their budget
  double round_ms = 0;
  std::uint64_t que1_retransmits = 0;
  std::uint64_t que2_retransmits = 0;
  std::uint64_t rejects = 0;
  std::vector<core::DiscoveredService> services;

  [[nodiscard]] double delivery_ratio() const {
    return expected == 0
               ? 1.0
               : static_cast<double>(resolved) / static_cast<double>(expected);
  }
  [[nodiscard]] bool complete() const { return resolved == expected; }
};

class SubjectClient {
 public:
  SubjectClient(core::SubjectEngineConfig cfg, ClientParams params,
                SockTransport& transport);

  void begin_round(std::size_t group_idx, double now_ms);
  /// Pump the transport and fire retry/deadline timers.
  void step(double now_ms);
  /// Every channel settled, or the round deadline passed.
  [[nodiscard]] bool round_done() const { return driver_.settled(); }
  /// Earliest instant step() has timer work: a retry timer or the round
  /// deadline (socket readiness and transport timers are the caller's).
  [[nodiscard]] double next_deadline_ms() const;
  ClientReport finish_round(double now_ms);

  /// Fire-and-forget control frame to `to` (shutdown, snapshot).
  void send_control(PeerId to, CtlOp op, double now_ms);

  [[nodiscard]] const core::SubjectEngine& engine() const {
    return driver_.engine();
  }

 private:
  void on_frame(PeerId from, const Bytes& frame);
  /// Carry out the driver's effects; `from_timer` marks retransmissions.
  void apply(core::RoundDriver::Effects effects, bool from_timer);
  void count(const char* name);

  core::RoundDriver driver_;
  ClientParams params_;
  SockTransport& transport_;

  double now_ms_ = 0;
  double round_start_ms_ = 0;
  std::vector<PeerId> peers_;   // per channel: who answered (QUE2 target)
  std::vector<double> due_ms_;  // per driver timer: when it fires
};

}  // namespace argus::transport
