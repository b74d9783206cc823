// Engine lanes: the daemon's engine work, off the thread that pumps the
// sockets. ObjectHost runs one lane per hosted engine, SubjectClient one
// lane for its round driver.
//
// A lane is a serial FIFO (a strand): tasks posted on one lane run one at
// a time, in post order, so the engine behind it is only ever touched by
// one thread at a time, and only its own tasks touch it. Every lane of
// the process runs on one shared set of max(1, cores - 1) workers (one
// core stays with the pumping thread), an argus::ThreadPool started by
// the first post, so building hosts and clients starts no thread, and a
// process with a thousand lanes still runs at most that many workers. A
// worker runs one task of a lane and then puts the lane back at the end
// of the pool's queue, so a busy lane cannot starve the others.
//
// EngineLanes<T> adds the completion outbox: each posted task's result
// takes the next slot in dispatch order, and drain() hands the owner the
// finished prefix, so no result overtakes one posted before it whatever
// the workers' timing. wait_idle() blocks until nothing is queued or
// running; rethrow() raises the first exception a task threw (that task's
// slot finishes empty).
//
// Profiling: a task posted while the posting thread has a profiler buffer
// attached records on lane (that buffer's lane + 1 + the lane's id) of the
// same profiler. Lane ids are small and unique among the lanes alive in
// the process, and the smallest free id is taken first, so a process that
// builds its hosts and clients in a fixed order gets the same ids every
// run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace argus::transport {

class LaneSet {
 public:
  explicit LaneSet(std::size_t lanes);
  /// Waits until idle; a task still queued would outlive its owner.
  ~LaneSet();
  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  /// Queue `task` behind everything posted on `lane` before it.
  void post(std::size_t lane, std::function<void()> task);
  /// Block until no task is queued or running.
  void wait_idle();
  /// Rethrow (and forget) the first exception a task threw.
  void rethrow();

  [[nodiscard]] std::size_t size() const { return lanes_.size(); }

  /// Workers every lane of the process shares: max(1, cores - 1).
  static std::size_t max_workers();
  /// Workers running now: 0 until the first post, then max_workers().
  static std::size_t workers();

 private:
  struct Task {
    std::function<void()> fn;
    obs::prof::ThreadBuffer* prof = nullptr;  // posting thread's buffer
  };
  struct Lane {
    std::size_t id = 0;
    std::deque<Task> queue;
    bool scheduled = false;  // a worker owns the lane's next task
  };

  /// Worker side: run the lane's next task, then requeue the lane if it
  /// has more.
  void run_next(std::size_t lane);
  void schedule(std::size_t lane);

  std::mutex mu_;  // guards lanes_' queues and flags, pending_, error_
  std::condition_variable idle_cv_;  // pending_ reached 0
  std::vector<Lane> lanes_;
  std::size_t pending_ = 0;  // tasks queued or running
  std::exception_ptr error_;
};

/// The registry an engine on a lane writes in place of its configured
/// one, so no registry is written by two threads: merge(), called at a
/// settle point while the lane is idle, folds it into the configured
/// registry and clears it. With no configured registry there is none.
class LaneRegistry {
 public:
  explicit LaneRegistry(obs::MetricsRegistry* configured)
      : configured_(configured),
        local_(configured != nullptr
                   ? std::make_unique<obs::MetricsRegistry>()
                   : nullptr) {}

  /// What the engine's config should point at.
  [[nodiscard]] obs::MetricsRegistry* stand_in() const {
    return local_.get();
  }
  void merge() {
    if (local_ == nullptr) return;
    configured_->merge_from(*local_);
    local_->clear();
  }

 private:
  obs::MetricsRegistry* configured_;
  std::unique_ptr<obs::MetricsRegistry> local_;
};

template <class T>
class EngineLanes {
 public:
  explicit EngineLanes(std::size_t lanes) : lanes_(lanes) {}

  /// Run `fn` (returning T) on `lane`; its result takes the next slot.
  template <class F>
  void post(std::size_t lane, F fn) {
    std::uint64_t slot = 0;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      slot = base_ + outbox_.size();
      outbox_.emplace_back();
    }
    lanes_.post(lane, [this, slot, fn = std::move(fn)]() mutable {
      std::optional<T> result;
      try {
        result.emplace(fn());
      } catch (...) {
        finish(slot, std::nullopt);
        throw;
      }
      finish(slot, std::move(result));
    });
  }

  /// Hand the finished prefix to `sink(T&)` in dispatch order, on the
  /// calling thread and outside the lock; empty slots are skipped.
  template <class Sink>
  void drain(Sink&& sink) {
    std::vector<T> ready;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      while (!outbox_.empty() && outbox_.front().done) {
        if (outbox_.front().value) {
          ready.push_back(std::move(*outbox_.front().value));
        }
        outbox_.pop_front();
        ++base_;
      }
    }
    for (T& r : ready) sink(r);
  }

  void wait_idle() { lanes_.wait_idle(); }
  void rethrow() { lanes_.rethrow(); }

  /// Posted tasks whose results have not been drained.
  [[nodiscard]] std::size_t in_flight() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return outbox_.size();
  }
 private:
  struct Slot {
    bool done = false;
    std::optional<T> value;
  };

  void finish(std::uint64_t slot, std::optional<T> value) {
    const std::lock_guard<std::mutex> lk(mu_);
    Slot& s = outbox_[slot - base_];
    s.value = std::move(value);
    s.done = true;
  }

  mutable std::mutex mu_;  // guards outbox_, base_
  std::deque<Slot> outbox_;
  std::uint64_t base_ = 0;  // dispatch number of outbox_.front()
  LaneSet lanes_;           // last: waits for the tasks before mu_ dies
};

}  // namespace argus::transport
