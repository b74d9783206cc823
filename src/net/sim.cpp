#include "net/sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace argus::net {

void Simulator::schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) throw std::invalid_argument("Simulator: time in the past");
  push(Event{{when, next_seq_++}, std::move(fn), 0});
}

TimerId Simulator::schedule_timer_at(SimTime when, std::function<void()> fn) {
  return schedule_timer_at(EventKey{when, next_seq_++}, std::move(fn));
}

TimerId Simulator::schedule_timer_at(EventKey key, std::function<void()> fn) {
  if (key.time < now_) {
    throw std::invalid_argument("Simulator: time in the past");
  }
  const TimerId id = next_timer_++;
  live_timers_.insert(id);
  push(Event{key, std::move(fn), id});
  return id;
}

void Simulator::push(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Simulator::Event Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event out = std::move(heap_.back());
  heap_.pop_back();
  return out;
}

EventKey Simulator::next_key() {
  prune();
  return heap_.empty() ? EventKey::never() : heap_.front().key;
}

bool Simulator::cancel_timer(TimerId id) {
  if (live_timers_.erase(id) == 0) return false;
  // The event is still in the heap (its live entry is erased on pop),
  // so this cancel created exactly one tombstone.
  ++dead_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (dead_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Event& ev) {
    return ev.timer != 0 && !live_timers_.contains(ev.timer);
  });
  std::make_heap(heap_.begin(), heap_.end(), later);
  dead_ = 0;
}

void Simulator::prune() {
  while (!heap_.empty()) {
    const TimerId timer = heap_.front().timer;
    if (timer == 0 || live_timers_.contains(timer)) return;
    pop();  // cancelled: drop without firing or advancing time
    --dead_;
  }
}

SimTime Simulator::dispatch(SimTime deadline, bool advance_clock) {
  if (tracer_) tracer_->begin(now_, 0, "sim.run", "sim", pending());
  const std::uint64_t before = executed_;
  for (prune(); !heap_.empty() && heap_.front().key.time <= deadline;
       prune()) {
    Event ev = pop();
    if (ev.timer != 0) live_timers_.erase(ev.timer);
    now_ = ev.key.time;
    ++executed_;
    {
      ARGUS_PROF_SCOPE("sim.dispatch");
      ev.fn();
    }
  }
  if (advance_clock) now_ = std::max(now_, deadline);
  if (tracer_) tracer_->end(now_, 0, executed_ - before);
  return now_;
}

}  // namespace argus::net
