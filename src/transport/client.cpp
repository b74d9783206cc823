#include "transport/client.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace argus::transport {

namespace {

constexpr double kIdle = std::numeric_limits<double>::infinity();

}  // namespace

SubjectClient::SubjectClient(core::SubjectEngineConfig cfg,
                             ClientParams params, SockTransport& transport)
    : driver_(std::move(cfg), params.expected_objects, params.epoch,
              params.retry),
      params_(params),
      transport_(transport),
      peers_(params.expected_objects, 0),
      due_ms_(params.expected_objects + 1, kIdle) {
  transport_.set_handler(
      [this](PeerId from, const Bytes& frame) { on_frame(from, frame); });
}

void SubjectClient::begin_round(std::size_t group_idx, double now_ms) {
  now_ms_ = now_ms;
  round_start_ms_ = now_ms;
  apply(driver_.begin_round(group_idx), /*from_timer=*/false);
}

void SubjectClient::step(double now_ms) {
  now_ms_ = now_ms;
  transport_.pump(now_ms);  // frames land in on_frame during this call
  if (round_done()) return;
  if (now_ms >= driver_.deadline_after(round_start_ms_)) {
    apply(driver_.end_round(), /*from_timer=*/false);
    return;
  }
  // Fire due timers: the QUE1 re-broadcast first, then per channel.
  const auto fire = [&](std::size_t timer) {
    if (due_ms_[timer] > now_ms) return;
    due_ms_[timer] = kIdle;
    apply(driver_.on_timer(timer), /*from_timer=*/true);
  };
  fire(driver_.que1_timer());
  for (std::size_t c = 0; c < driver_.slots(); ++c) fire(c);
}

double SubjectClient::next_deadline_ms() const {
  double due = driver_.deadline_after(round_start_ms_);
  for (const double t : due_ms_) due = std::min(due, t);
  return due;
}

ClientReport SubjectClient::finish_round(double now_ms) {
  now_ms_ = now_ms;
  apply(driver_.end_round(), /*from_timer=*/false);
  ClientReport report;
  report.expected = driver_.slots();
  for (std::size_t c = 0; c < driver_.slots(); ++c) {
    const core::RoundDriver::Phase phase = driver_.exchange(c).phase;
    report.resolved += phase == core::RoundDriver::Phase::kDone ? 1 : 0;
    report.timed_out += phase == core::RoundDriver::Phase::kTimedOut ? 1 : 0;
  }
  report.round_ms = now_ms - round_start_ms_;
  report.que1_retransmits = driver_.counts().que1_retransmits;
  report.que2_retransmits = driver_.counts().que2_retransmits;
  report.rejects = driver_.counts().rejects;
  report.services = driver_.engine().discovered();
  return report;
}

void SubjectClient::send_control(PeerId to, CtlOp op, double now_ms) {
  transport_.send(to, encode_mux(kMuxControl, encode_ctl(op)), now_ms);
}

void SubjectClient::on_frame(PeerId from, const Bytes& frame) {
  const auto mux = decode_mux(frame);
  if (!mux) {
    count("client.mux_decode_failed");
    return;
  }
  if (mux->channel == kMuxControl) return;  // the daemon sends none
  if (mux->channel >= driver_.slots()) {
    count("client.bad_channel");
    return;
  }
  peers_[mux->channel] = from;
  const core::RoundDriver::Handled handled =
      driver_.on_frame(mux->channel, mux->payload);
  (void)driver_.engine().take_consumed_ms();  // modeled cost; time is real
  if (core::is_reject(handled.status)) count("client.rejects");
  apply(handled.effects, /*from_timer=*/false);
}

void SubjectClient::apply(core::RoundDriver::Effects effects, bool from_timer) {
  using Kind = core::RoundDriver::Effect::Kind;
  for (const core::RoundDriver::Effect& e : effects) {
    switch (e.kind) {
      case Kind::kBroadcast:
        if (from_timer) count("client.que1_retransmit");
        transport_.broadcast(encode_mux(kMuxBroadcast, e.wire), now_ms_);
        break;
      case Kind::kSend:
        if (from_timer) count("client.que2_retransmit");
        transport_.send(peers_[e.slot],
                        encode_mux(static_cast<std::uint32_t>(e.slot), e.wire),
                        now_ms_);
        break;
      case Kind::kArm:
        due_ms_[e.slot] = now_ms_ + e.delay_ms;
        break;
      case Kind::kCancel:
        due_ms_[e.slot] = kIdle;
        break;
    }
  }
}

void SubjectClient::count(const char* name) {
  if (params_.metrics != nullptr) params_.metrics->counter(name).inc();
}

}  // namespace argus::transport
