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
//
// The driver runs on an engine lane (lanes.hpp), off the pumping thread:
// step() decodes the mux and posts each frame to the lane, where
// RoundDriver::on_frame runs and its effects are copied out (Effects is a
// span into the driver). step() never waits for that work; it carries
// out the effects that have finished, in frame order, and fires timers
// and the round deadline only while the lane owes nothing, so the driver
// is never touched from two threads. A lockstep driver that calls
// `step(); settle();` sends exactly what a client that handled every
// frame inside step() would send, at the same times.
#pragma once

#include <cstdint>
#include <vector>

#include "argus/round_driver.hpp"
#include "obs/metrics.hpp"
#include "transport/lanes.hpp"
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

/// The transport must outlive the client. A profiler attached to the
/// pumping thread when a frame arrives records the driver's work on lane
/// (pump lane + 1 + the client lane's id).
///
/// Metrics: the engine config's registry is swapped for the lane's
/// LaneRegistry stand-in, which every settle point merges.
class SubjectClient {
 public:
  SubjectClient(core::SubjectEngineConfig cfg, ClientParams params,
                SockTransport& transport);
  /// Settles first.
  ~SubjectClient();
  SubjectClient(const SubjectClient&) = delete;
  SubjectClient& operator=(const SubjectClient&) = delete;

  /// Settles first.
  void begin_round(std::size_t group_idx, double now_ms);
  /// Carry out finished frame effects, pump the transport (inbound frames
  /// become lane tasks) and, while the lane owes nothing, fire
  /// retry/deadline timers. Never waits for engine work.
  void step(double now_ms);
  /// Wait for the lane, carry out every effect, then fire the timers the
  /// last step() held back. Rethrows an exception the driver raised.
  void settle();
  /// Frames posted to the lane whose effects have not been carried out.
  [[nodiscard]] std::size_t in_flight() const { return lanes_.in_flight(); }
  /// No frame in flight, no effect owed, and every channel settled or
  /// the round deadline passed.
  [[nodiscard]] bool round_done() const {
    return in_flight() == 0 && driver_.settled();
  }
  /// Earliest instant step() has timer work: a retry timer or the round
  /// deadline (socket readiness, transport timers and in-flight frames
  /// are the caller's).
  [[nodiscard]] double next_deadline_ms() const;
  /// Settles first.
  ClientReport finish_round(double now_ms);

  /// Fire-and-forget control frame to `to` (shutdown, snapshot).
  void send_control(PeerId to, CtlOp op, double now_ms);

  /// Settles first; the reference is safe to use until the next step().
  [[nodiscard]] const core::SubjectEngine& engine();

 private:
  /// One frame's driver output, copied off the driver on the lane. Each
  /// effect's wire points into `wires`, whose heap buffers stay put when
  /// the vector grows or the struct moves.
  struct Handled {
    std::size_t slot = 0;
    PeerId from = 0;
    bool reject = false;
    std::vector<core::RoundDriver::Effect> effects;
    std::vector<Bytes> wires;
  };

  void on_frame(PeerId from, const Bytes& frame);
  /// Wait for the lane, carry out its effects, merge the lane's metrics
  /// and rethrow its error; fires no timer.
  void quiesce();
  void apply_finished();
  /// Round deadline and due timers; only while the lane owes nothing.
  void poll_timers();
  /// Carry out the driver's effects; `from_timer` marks retransmissions.
  void apply(core::RoundDriver::Effects effects, bool from_timer);
  void count(const char* name);

  LaneRegistry metrics_;  // before driver_, whose engine writes it
  core::RoundDriver driver_;
  ClientParams params_;
  SockTransport& transport_;

  double now_ms_ = 0;
  double round_start_ms_ = 0;
  std::vector<PeerId> peers_;   // per channel: who answered (QUE2 target)
  std::vector<double> due_ms_;  // per driver timer: when it fires
  EngineLanes<Handled> lanes_;  // last: waits for the lane before all else
};

}  // namespace argus::transport
