// Discrete-event simulator kernel.
//
// Virtual time is in milliseconds (double). Events fire in (time, seq)
// order, so same-time events preserve scheduling order and runs are fully
// deterministic — a requirement for reproducing the paper's discovery
// timelines and for the indistinguishability analyses, where timing IS the
// observable.
//
// The event store is one binary min-heap on exact (time, seq). Busy
// nodes park their frames in ingress queues behind one wake event each
// (net/network.hpp), so the heap holds the in-flight deliveries and one
// wake per busy node, not one timer per parked frame.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "net/event_queue.hpp"

namespace argus::obs {
class Tracer;
}

namespace argus::net {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` ms from now (delay >= 0).
  void schedule(SimTime delay, std::function<void()> fn);
  /// Schedule at an absolute virtual time (>= now).
  void schedule_at(SimTime when, std::function<void()> fn);

  /// Cancellable callback at an absolute virtual time (>= now). Callers
  /// pass an exact stored deadline (e.g. a node's busy_until) or
  /// now() + delay. A cancelled timer's slot is skipped on pop without
  /// firing, advancing the clock, or counting toward executed().
  TimerId schedule_timer_at(SimTime when, std::function<void()> fn);
  /// Cancel a pending timer. Returns false if it already fired (or was
  /// already cancelled); cancelling is idempotent either way. The queue
  /// slot becomes a tombstone, discarded lazily on pop — but tombstones
  /// are counted exactly, and when they outnumber live events the queue
  /// is compacted in one pass, so cancel-heavy runs (retry storms) can't
  /// accumulate unbounded dead entries.
  bool cancel_timer(TimerId id);

  // Reserved keys. A component that models many logical wake-ups with
  // one real event (net::Network's ingress queues) reserves the sequence
  // number each logical wake-up would have taken, arms one cancellable
  // event at the smallest such key, and asks next_key() whether anything
  // else is due before the next one. Every other event keeps the seq it
  // would have had, so the firing order is unchanged.

  /// Reserve `n` consecutive sequence numbers; returns the first.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }
  /// Cancellable callback at a reserved key (key.time >= now).
  TimerId schedule_timer_at(EventKey key, std::function<void()> fn);
  /// Key of the next live event; EventKey::never() when none is queued.
  [[nodiscard]] EventKey next_key();

  /// Run until the event queue drains. Returns the final virtual time.
  SimTime run() { return dispatch(kForever, /*advance_clock=*/false); }
  /// Run until `deadline` (events after it stay queued), then move the
  /// clock forward to the deadline.
  SimTime run_until(SimTime deadline) { return dispatch(deadline, true); }
  /// Like run_until, but the clock is NOT forced forward to the
  /// deadline: the return value is the time of the last event fired.
  SimTime drain_until(SimTime deadline) { return dispatch(deadline, false); }

  /// Live (uncancelled) events still queued. Exact: cancelled timers
  /// awaiting lazy discard are not counted.
  [[nodiscard]] std::size_t pending() const { return heap_.size() - dead_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Attach an event tracer (null detaches). With no tracer the only
  /// overhead is one pointer test per run()/run_until() call — never
  /// per event.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Event {
    EventKey key;
    std::function<void()> fn;
    TimerId timer = 0;  // 0: plain event; else cancellable
  };
  static constexpr SimTime kForever = EventKey::never().time;

  /// Heap comparator: `a` fires after `b`, so heap_.front() is the
  /// smallest key.
  static bool later(const Event& a, const Event& b) { return b.key < a.key; }

  void push(Event ev);
  Event pop();
  /// The one event loop: fire every live event due at or before
  /// `deadline`, in (time, seq) order, inside one "sim.run" trace span.
  SimTime dispatch(SimTime deadline, bool advance_clock);
  /// Discard cancelled timers sitting at the head of the heap, so its
  /// front is live. Skipped slots do not advance the clock or count as
  /// executed.
  void prune();
  /// One-pass removal of all tombstones once they exceed the live count.
  void maybe_compact();

  std::vector<Event> heap_;  // binary min-heap on Event::key
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  TimerId next_timer_ = 1;
  std::size_t dead_ = 0;  // cancelled timers still occupying queue slots
  std::unordered_set<TimerId> live_timers_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace argus::net
