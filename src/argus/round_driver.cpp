#include "argus/round_driver.hpp"

#include <utility>

namespace argus::core {

namespace {

bool pending(RoundDriver::Phase phase) {
  return phase == RoundDriver::Phase::kAwaitRes1 ||
         phase == RoundDriver::Phase::kAwaitRes2;
}

}  // namespace

RoundDriver::RoundDriver(SubjectEngineConfig cfg, std::size_t slots,
                         std::uint64_t epoch, const RetryPolicy& policy)
    : engine_(std::move(cfg)),
      epoch_(epoch),
      policy_(policy),
      retries_(policy.mode != RetryMode::kOff),
      exchanges_(slots),
      armed_(slots + 1, false) {}

RoundDriver::Effects RoundDriver::begin_round(std::size_t group_idx) {
  effects_.clear();
  quiesce();  // a round the owner cut short leaves no timer behind
  engine_.set_group_key_index(group_idx);
  que1_wire_ = engine_.start_round();
  (void)engine_.take_consumed_ms();
  que1_attempts_ = 0;
  counts_ = {};
  for (Exchange& ex : exchanges_) {
    ex.phase = Phase::kAwaitRes1;
    ex.que2_attempts = 0;
    ex.que2_wire.clear();
  }
  broadcast_que1();
  return effects_;
}

RoundDriver::Handled RoundDriver::on_frame(std::size_t slot, ByteSpan frame) {
  effects_.clear();
  HandleResult result = engine_.handle(frame, epoch_);
  Exchange& ex = exchanges_[slot];
  if (is_reject(result.status)) {
    ++ex.rejects;
    ++counts_.rejects;
  }
  if (!result) {
    // Terminal frame (RES1-L1, RES2, or a RES1 for a finished exchange):
    // a handled success settles the exchange — including a re-discovery
    // the engine dedupes without growing discovered().
    if (result.status == HandleStatus::kOk ||
        result.status == HandleStatus::kDuplicate) {
      resolve(slot);
    }
  } else if (ex.phase == Phase::kAwaitRes1) {
    // First RES1: cache the QUE2 for resends, arm its timer, send it.
    ex.phase = Phase::kAwaitRes2;
    ex.que2_wire = std::move(*result);
    arm(slot, policy_.que2_timeout_ms, ex.que2_attempts);
    send(slot, ex.que2_wire);
  } else {
    // Duplicate RES1: resend the engine's QUE2, leave the timer alone.
    reply_ = std::move(*result);
    send(slot, reply_);
  }
  return {result.status, effects_};
}

RoundDriver::Effects RoundDriver::on_timer(std::size_t timer) {
  effects_.clear();
  armed_[timer] = false;
  if (timer == que1_timer()) {
    if (awaiting_res1()) {
      ++que1_attempts_;
      ++counts_.que1_retransmits;
      broadcast_que1();  // same bytes: objects answer duplicates idempotently
    }
    return effects_;
  }
  Exchange& ex = exchanges_[timer];
  if (ex.phase != Phase::kAwaitRes2) return effects_;
  if (ex.que2_attempts >= policy_.max_retries) {
    ex.phase = Phase::kTimedOut;
    if (settled()) quiesce();
    return effects_;
  }
  ++ex.que2_attempts;
  ++ex.retransmits;
  ++counts_.que2_retransmits;
  send(timer, ex.que2_wire);
  arm(timer, policy_.que2_timeout_ms, ex.que2_attempts);
  return effects_;
}

RoundDriver::Effects RoundDriver::end_round() {
  effects_.clear();
  quiesce();
  for (Exchange& ex : exchanges_) {
    if (pending(ex.phase)) ex.phase = Phase::kTimedOut;
  }
  return effects_;
}

bool RoundDriver::settled() const {
  for (const Exchange& ex : exchanges_) {
    if (pending(ex.phase)) return false;
  }
  return true;
}

void RoundDriver::broadcast_que1() {
  effects_.push_back({Effect::Kind::kBroadcast, 0, 0, que1_wire_});
  if (que1_attempts_ < policy_.max_retries && awaiting_res1()) {
    arm(que1_timer(), policy_.que1_timeout_ms, que1_attempts_);
  }
}

void RoundDriver::send(std::size_t slot, ByteSpan wire) {
  effects_.push_back({Effect::Kind::kSend, slot, 0, wire});
}

void RoundDriver::arm(std::size_t timer, double base_ms, unsigned attempt) {
  if (!retries_) return;
  double delay = base_ms;
  for (unsigned i = 0; i < attempt; ++i) delay *= policy_.backoff;
  armed_[timer] = true;
  effects_.push_back({Effect::Kind::kArm, timer, delay, {}});
}

void RoundDriver::cancel(std::size_t timer) {
  if (!armed_[timer]) return;
  armed_[timer] = false;
  effects_.push_back({Effect::Kind::kCancel, timer, 0, {}});
}

/// The exchange in `slot` finished: stop its timer and, once nothing is
/// pending, every other timer too, so the round ends at its true
/// completion time.
void RoundDriver::resolve(std::size_t slot) {
  exchanges_[slot].phase = Phase::kDone;
  cancel(slot);
  if (settled()) quiesce();
}

void RoundDriver::quiesce() {
  cancel(que1_timer());
  for (std::size_t slot = 0; slot < exchanges_.size(); ++slot) cancel(slot);
}

bool RoundDriver::awaiting_res1() const {
  for (const Exchange& ex : exchanges_) {
    if (ex.phase == Phase::kAwaitRes1) return true;
  }
  return false;
}

}  // namespace argus::core
