#include "transport/client.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace argus::transport {

namespace {

constexpr double kIdle = std::numeric_limits<double>::infinity();

core::SubjectEngineConfig with_metrics(core::SubjectEngineConfig cfg,
                                       obs::MetricsRegistry* metrics) {
  cfg.metrics = metrics;
  return cfg;
}

}  // namespace

SubjectClient::SubjectClient(core::SubjectEngineConfig cfg,
                             ClientParams params, SockTransport& transport)
    : metrics_(cfg.metrics),
      driver_(with_metrics(std::move(cfg), metrics_.stand_in()),
              params.expected_objects, params.epoch, params.retry),
      params_(params),
      transport_(transport),
      peers_(params.expected_objects, 0),
      due_ms_(params.expected_objects + 1, kIdle),
      lanes_(1) {
  transport_.set_handler(
      [this](PeerId from, const Bytes& frame) { on_frame(from, frame); });
}

SubjectClient::~SubjectClient() {
  try {
    quiesce();
  } catch (...) {
    // A destructor must not throw: a driver failure that no earlier
    // settle point reported ends here unreported.
  }
}

void SubjectClient::begin_round(std::size_t group_idx, double now_ms) {
  quiesce();
  now_ms_ = now_ms;
  round_start_ms_ = now_ms;
  apply(driver_.begin_round(group_idx), /*from_timer=*/false);
}

void SubjectClient::step(double now_ms) {
  now_ms_ = now_ms;
  apply_finished();
  transport_.pump(now_ms);  // frames become lane tasks during this call
  poll_timers();
}

void SubjectClient::settle() {
  quiesce();
  poll_timers();
}

void SubjectClient::quiesce() {
  lanes_.wait_idle();
  apply_finished();
  metrics_.merge();
  lanes_.rethrow();
}

void SubjectClient::apply_finished() {
  lanes_.drain([this](Handled& h) {
    peers_[h.slot] = h.from;
    if (h.reject) count("client.rejects");
    apply(h.effects, /*from_timer=*/false);
  });
}

void SubjectClient::poll_timers() {
  if (in_flight() > 0 || driver_.settled()) return;
  if (now_ms_ >= driver_.deadline_after(round_start_ms_)) {
    apply(driver_.end_round(), /*from_timer=*/false);
    return;
  }
  // Fire due timers: the QUE1 re-broadcast first, then per channel.
  const auto fire = [&](std::size_t timer) {
    if (due_ms_[timer] > now_ms_) return;
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
  quiesce();
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

const core::SubjectEngine& SubjectClient::engine() {
  quiesce();
  return driver_.engine();
}

void SubjectClient::on_frame(PeerId from, const Bytes& frame) {
  auto mux = decode_mux(frame);
  if (!mux) {
    count("client.mux_decode_failed");
    return;
  }
  if (mux->channel == kMuxControl) return;  // the daemon sends none
  if (mux->channel >= peers_.size()) {
    count("client.bad_channel");
    return;
  }
  lanes_.post(0, [this, slot = std::size_t{mux->channel}, from,
                  payload = std::move(mux->payload)] {
    const core::RoundDriver::Handled handled = driver_.on_frame(slot, payload);
    (void)driver_.engine().take_consumed_ms();  // modeled cost; time is real
    Handled out;
    out.slot = slot;
    out.from = from;
    out.reject = core::is_reject(handled.status);
    for (core::RoundDriver::Effect e : handled.effects) {
      if (!e.wire.empty()) {
        e.wire = out.wires.emplace_back(e.wire.begin(), e.wire.end());
      }
      out.effects.push_back(e);
    }
    return out;
  });
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
