#include "transport/host.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/prof.hpp"
#include "transport/mux.hpp"

namespace argus::transport {

/// One unit of shard work: a frame for one engine, or a clock advance for
/// every engine of the shard.
struct ObjectHost::Task {
  bool clock = false;
  std::size_t engine = 0;
  PeerId from = 0;
  std::shared_ptr<const Bytes> payload;  // shared by a broadcast's tasks
  std::uint64_t reply = 0;               // dispatch number of its slot
  double now_ms = 0;                     // clock tasks
  obs::prof::ThreadBuffer* prof = nullptr;  // dispatching thread's lane
};

struct ObjectHost::Shard {
  std::size_t index = 0;
  std::vector<std::size_t> engines;
  /// (configured registry, this shard's stand-in for it). Only the
  /// shard's thread writes a stand-in; settle points merge and clear it.
  std::vector<std::pair<obs::MetricsRegistry*,
                        std::unique_ptr<obs::MetricsRegistry>>>
      metrics;
  std::mutex mu;  // guards queue, stop; taken before done_mu_, never after
  std::condition_variable cv;
  std::deque<Task> queue;
  bool stop = false;
  std::thread thread;

  obs::MetricsRegistry& registry_for(obs::MetricsRegistry* target) {
    for (auto& [configured, local] : metrics) {
      if (configured == target) return *local;
    }
    metrics.emplace_back(target, std::make_unique<obs::MetricsRegistry>());
    return *metrics.back().second;
  }
};

namespace {

/// One core stays with the thread that pumps the transport.
std::size_t shards_for(std::size_t engines) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min(cores - 1, engines));
}

}  // namespace

ObjectHost::ObjectHost(HostConfig cfg, SockTransport& transport)
    : cfg_(std::move(cfg)), transport_(transport) {
  const std::size_t w = shards_for(cfg_.objects.size());
  for (std::size_t s = 0; s < w; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = s;
  }
  engines_.reserve(cfg_.objects.size());
  for (std::size_t i = 0; i < cfg_.objects.size(); ++i) {
    core::ObjectEngineConfig ocfg = cfg_.objects[i];
    Shard& shard = *shards_[i % w];
    shard.engines.push_back(i);
    if (ocfg.metrics != nullptr) ocfg.metrics = &shard.registry_for(ocfg.metrics);
    engines_.push_back(std::make_unique<core::ObjectEngine>(std::move(ocfg)));
  }
  transport_.set_handler([this](PeerId from, const Bytes& frame) {
    on_frame(from, frame);
  });
}

ObjectHost::~ObjectHost() {
  try {
    settle();
  } catch (...) {
    // A destructor must not throw: an engine failure that no earlier
    // settle() reported ends here unreported.
  }
  for (auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> lk(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void ObjectHost::pump(double now_ms) {
  now_ms_ = now_ms;
  send_finished();
  transport_.pump(now_ms);
  queue_clock(now_ms);
  if (cfg_.snapshot_interval_ms > 0 && !cfg_.snapshot_path.empty() &&
      now_ms - last_snapshot_ms_ >= cfg_.snapshot_interval_ms) {
    write_snapshot();
    last_snapshot_ms_ = now_ms;
  }
}

void ObjectHost::settle() {
  wait_idle();
  send_finished();
  for (auto& shard : shards_) {
    for (auto& [configured, local] : shard->metrics) {
      configured->merge_from(*local);
      local->clear();
    }
  }
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lk(done_mu_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

std::size_t ObjectHost::in_flight() const {
  const std::lock_guard<std::mutex> lk(done_mu_);
  return outbox_.size();
}

core::ObjectEngine& ObjectHost::engine(std::size_t i) {
  settle();
  return *engines_[i];
}

void ObjectHost::wait_idle() {
  if (!started_) return;
  // Clock tasks are queued without a wake-up; settling wakes every shard.
  for (auto& shard : shards_) shard->cv.notify_one();
  std::unique_lock<std::mutex> lk(done_mu_);
  idle_cv_.wait(lk, [this] { return pending_ == 0; });
}

void ObjectHost::send_finished() {
  // Only the finished prefix leaves: a reply never overtakes one
  // dispatched before it, so every driver sees the lockstep send order
  // whatever the shards' timing.
  std::vector<std::pair<PeerId, Bytes>> ready;
  {
    const std::lock_guard<std::mutex> lk(done_mu_);
    while (!outbox_.empty() && outbox_.front().done) {
      Reply& r = outbox_.front();
      if (r.frame) ready.emplace_back(r.to, std::move(*r.frame));
      outbox_.pop_front();
      ++outbox_base_;
    }
  }
  for (auto& [to, frame] : ready) {
    stats_.replies_tx++;
    transport_.send(to, std::move(frame), now_ms_);
  }
}

Bytes ObjectHost::fleet_bundle() {
  settle();
  persist::BundleEntries entries;
  entries.reserve(engines_.size());
  for (const auto& engine : engines_) {
    entries.emplace_back(persist::object_section(engine->credentials().id),
                         engine->snapshot());
  }
  return persist::seal_bundle(entries);
}

bool ObjectHost::write_snapshot() {
  if (cfg_.snapshot_path.empty()) return false;
  const bool ok = persist::write_snapshot_file(cfg_.snapshot_path,
                                               fleet_bundle());
  if (ok) {
    stats_.snapshots_written++;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("persist.daemon.snapshot_written").inc();
    }
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->instant(now_ms_, 0, "persist.snapshot", "transport", 0, 0,
                           cfg_.snapshot_path);
    }
  }
  return ok;
}

persist::RestoreError ObjectHost::restore_from_file() {
  settle();
  restored_ = 0;
  if (cfg_.snapshot_path.empty()) return persist::RestoreError::kIoError;
  const auto file = persist::read_snapshot_file(cfg_.snapshot_path);
  if (!file) return file.error;
  const auto bundle = persist::open_bundle(file.data);
  if (!bundle) return bundle.error;
  // Blank-or-exact per engine: a missing or refused section leaves that
  // engine blank without disturbing its neighbours' restores.
  for (auto& engine : engines_) {
    const std::string want = persist::object_section(engine->credentials().id);
    for (const auto& [name, sealed] : bundle.entries) {
      if (name != want) continue;
      if (engine->restore(sealed) == persist::RestoreError::kOk) restored_++;
      break;
    }
  }
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("persist.daemon.engines_restored").inc(restored_);
  }
  return persist::RestoreError::kOk;
}

void ObjectHost::on_frame(PeerId from, const Bytes& frame) {
  stats_.frames_rx++;
  auto mux = decode_mux(frame);
  if (!mux) {
    stats_.mux_decode_failed++;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("transport.mux_decode_failed").inc();
    }
    return;
  }
  if (mux->channel == kMuxControl) {
    stats_.ctl_rx++;
    settle();
    handle_ctl(mux->payload);
    return;
  }
  const bool broadcast = mux->channel == kMuxBroadcast;
  if (!broadcast && mux->channel >= engines_.size()) {
    stats_.bad_channel++;
    return;
  }
  const auto payload = std::make_shared<const Bytes>(std::move(mux->payload));
  if (!broadcast) {
    dispatch(mux->channel, from, payload);
    return;
  }
  stats_.broadcasts_rx++;
  for (std::size_t i = 0; i < engines_.size(); ++i) dispatch(i, from, payload);
}

void ObjectHost::dispatch(std::size_t idx, PeerId from,
                          const std::shared_ptr<const Bytes>& payload) {
  if (!started_) {
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) continue;  // a failed start left it
      shard->thread = std::thread([this, s = shard.get()] { run_shard(*s); });
    }
    started_ = true;
  }
  Task task;
  task.engine = idx;
  task.from = from;
  task.payload = payload;
  task.prof = obs::prof::t_current;
  {
    const std::lock_guard<std::mutex> lk(done_mu_);
    task.reply = outbox_base_ + outbox_.size();
    outbox_.emplace_back().to = from;
    ++pending_;
  }
  Shard& shard = *shards_[idx % shards_.size()];
  {
    const std::lock_guard<std::mutex> lk(shard.mu);
    shard.queue.push_back(std::move(task));
  }
  shard.cv.notify_one();
}

void ObjectHost::queue_clock(double now_ms) {
  if (!started_) {
    for (auto& engine : engines_) engine->advance_clock(now_ms);
    return;
  }
  // Behind this pump's frames on every shard. No wake-up: the clock only
  // needs to reach an engine before its next frame (same FIFO) or by the
  // next settle. A clock task still waiting at the tail just moves on to
  // the later time; the engine then sees advance(t2) instead of
  // advance(t1), advance(t2), which evicts and rotates exactly the same.
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lk(shard->mu);
    if (!shard->queue.empty() && shard->queue.back().clock) {
      shard->queue.back().now_ms = now_ms;
      continue;
    }
    Task task;
    task.clock = true;
    task.now_ms = now_ms;
    {
      const std::lock_guard<std::mutex> dlk(done_mu_);
      ++pending_;
    }
    shard->queue.push_back(std::move(task));
  }
}

void ObjectHost::run_shard(Shard& shard) {
  std::unique_lock<std::mutex> lk(shard.mu);
  while (true) {
    shard.cv.wait(lk, [&] { return shard.stop || !shard.queue.empty(); });
    if (shard.queue.empty()) return;  // stopped and drained
    Task task = std::move(shard.queue.front());
    shard.queue.pop_front();
    lk.unlock();
    run_task(shard, task);
    lk.lock();
  }
}

void ObjectHost::run_task(Shard& shard, Task& task) {
  std::optional<Bytes> reply;
  std::exception_ptr error;
  try {
    if (task.clock) {
      for (const std::size_t i : shard.engines) {
        engines_[i]->advance_clock(task.now_ms);
      }
    } else {
      std::optional<obs::prof::Profiler::Attach> attach;
      if (task.prof != nullptr) {
        attach.emplace(*task.prof->profiler(),
                       task.prof->lane() + 1 + shard.index);
      }
      core::ObjectEngine& engine = *engines_[task.engine];
      const auto result = engine.handle(*task.payload, cfg_.epoch, task.from);
      (void)engine.take_consumed_ms();  // modeled cost; real time is real here
      if (result) {
        reply = encode_mux(static_cast<std::uint32_t>(task.engine), *result);
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  const std::lock_guard<std::mutex> lk(done_mu_);
  if (!task.clock) {
    Reply& slot = outbox_[task.reply - outbox_base_];
    slot.frame = std::move(reply);
    slot.done = true;
  }
  if (error && !error_) error_ = error;
  if (--pending_ == 0) idle_cv_.notify_all();
}

void ObjectHost::handle_ctl(ByteSpan payload) {
  const auto ctl = decode_ctl(payload);
  if (!ctl) {
    stats_.mux_decode_failed++;
    return;
  }
  switch (ctl->first) {
    case CtlOp::kShutdown:
      shutdown_ = true;
      if (!cfg_.snapshot_path.empty()) write_snapshot();
      return;
    case CtlOp::kSnapshot:
      write_snapshot();
      return;
  }
}

}  // namespace argus::transport
