#include "transport/lanes.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "common/thread_pool.hpp"

namespace argus::transport {

namespace {

std::atomic<std::size_t> g_workers{0};

/// The process's one worker set, built by the first post.
ThreadPool& pool() {
  static ThreadPool workers(LaneSet::max_workers());
  static const bool counted = [] {
    g_workers.store(workers.size());
    return true;
  }();
  (void)counted;
  return workers;
}

/// Process-wide lane ids: smallest free first.
std::mutex g_ids_mu;
std::vector<bool> g_ids_used;

std::size_t acquire_id() {
  const std::lock_guard<std::mutex> lk(g_ids_mu);
  const auto free = std::find(g_ids_used.begin(), g_ids_used.end(), false);
  const auto id = static_cast<std::size_t>(free - g_ids_used.begin());
  if (free == g_ids_used.end()) {
    g_ids_used.push_back(true);
  } else {
    *free = true;
  }
  return id;
}

void release_id(std::size_t id) {
  const std::lock_guard<std::mutex> lk(g_ids_mu);
  g_ids_used[id] = false;
}

}  // namespace

std::size_t LaneSet::max_workers() {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, cores - 1);
}

std::size_t LaneSet::workers() { return g_workers.load(); }

LaneSet::LaneSet(std::size_t lanes) : lanes_(lanes) {
  for (Lane& lane : lanes_) lane.id = acquire_id();
}

LaneSet::~LaneSet() {
  wait_idle();
  for (const Lane& lane : lanes_) release_id(lane.id);
}

void LaneSet::post(std::size_t lane, std::function<void()> task) {
  const std::lock_guard<std::mutex> lk(mu_);
  lanes_[lane].queue.push_back(Task{std::move(task), obs::prof::t_current});
  ++pending_;
  schedule(lane);
}

void LaneSet::schedule(std::size_t lane) {
  Lane& l = lanes_[lane];
  if (l.scheduled || l.queue.empty()) return;
  l.scheduled = true;
  (void)pool().submit([this, lane] { run_next(lane); });
}

void LaneSet::run_next(std::size_t lane) {
  Task task;
  std::size_t id = 0;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    task = std::move(lanes_[lane].queue.front());
    lanes_[lane].queue.pop_front();
    id = lanes_[lane].id;
  }
  std::exception_ptr error;
  try {
    std::optional<obs::prof::Profiler::Attach> attach;
    if (task.prof != nullptr) {
      attach.emplace(*task.prof->profiler(), task.prof->lane() + 1 + id);
    }
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  task.fn = nullptr;  // captured state dies before the owner can
  // One critical section to the end: once pending_ reaches 0 the owner
  // may destroy this set, so nothing of it is touched after the unlock.
  const std::lock_guard<std::mutex> lk(mu_);
  if (error && !error_) error_ = error;
  lanes_[lane].scheduled = false;
  schedule(lane);
  if (--pending_ == 0) idle_cv_.notify_all();
}

void LaneSet::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return pending_ == 0; });
}

void LaneSet::rethrow() {
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace argus::transport
