#include "transport/host.hpp"

#include <utility>

#include "transport/mux.hpp"

namespace argus::transport {

ObjectHost::ObjectHost(HostConfig cfg, SockTransport& transport)
    : cfg_(std::move(cfg)),
      transport_(transport),
      lanes_(cfg_.objects.size()) {
  cores_.reserve(cfg_.objects.size());
  metrics_.reserve(cfg_.objects.size());
  for (core::ObjectEngineConfig ocfg : cfg_.objects) {
    ocfg.metrics = metrics_.emplace_back(ocfg.metrics).stand_in();
    cores_.push_back(
        std::make_unique<core::ObjectCore>(std::move(ocfg), cfg_.epoch));
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
}

void ObjectHost::pump(double now_ms) {
  now_ms_ = now_ms;
  send_finished();
  transport_.pump(now_ms);
  clock_ms_ = now_ms;
  if (cfg_.snapshot_interval_ms > 0 && !cfg_.snapshot_path.empty() &&
      now_ms - last_snapshot_ms_ >= cfg_.snapshot_interval_ms) {
    write_snapshot();
    last_snapshot_ms_ = now_ms;
  }
}

void ObjectHost::settle() {
  lanes_.wait_idle();
  for (auto& obj : cores_) obj->engine().advance_clock(clock_ms_);
  send_finished();
  for (LaneRegistry& m : metrics_) m.merge();
  lanes_.rethrow();
}

std::size_t ObjectHost::in_flight() const { return lanes_.in_flight(); }

core::ObjectEngine& ObjectHost::engine(std::size_t i) {
  settle();
  return cores_[i]->engine();
}

void ObjectHost::send_finished() {
  // Only the finished prefix leaves: a reply never overtakes one
  // dispatched before it, so every driver sees the lockstep send order
  // whatever the lanes' timing.
  lanes_.drain([this](Reply& r) {
    if (!r.frame) return;
    stats_.replies_tx++;
    transport_.send(r.to, std::move(*r.frame), now_ms_);
  });
}

Bytes ObjectHost::fleet_bundle() {
  settle();
  persist::BundleEntries entries;
  entries.reserve(cores_.size());
  for (const auto& obj : cores_) {
    const core::ObjectEngine& engine = obj->engine();
    entries.emplace_back(persist::object_section(engine.credentials().id),
                         engine.snapshot());
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
  for (auto& obj : cores_) {
    core::ObjectEngine& engine = obj->engine();
    const std::string want = persist::object_section(engine.credentials().id);
    for (const auto& [name, sealed] : bundle.entries) {
      if (name != want) continue;
      if (engine.restore(sealed) == persist::RestoreError::kOk) restored_++;
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
  if (!broadcast && mux->channel >= cores_.size()) {
    stats_.bad_channel++;
    return;
  }
  const auto payload = std::make_shared<const Bytes>(std::move(mux->payload));
  if (!broadcast) {
    dispatch(mux->channel, from, payload);
    return;
  }
  stats_.broadcasts_rx++;
  for (std::size_t i = 0; i < cores_.size(); ++i) dispatch(i, from, payload);
}

void ObjectHost::dispatch(std::size_t idx, PeerId from,
                          const std::shared_ptr<const Bytes>& payload) {
  lanes_.post(idx, [this, idx, from, payload, clock = clock_ms_] {
    // The engine's clock catches up here, before its frame, to the pump
    // before the one that dispatched it — as on a host that advanced
    // every engine at the end of every pump. The step's modeled cost is
    // not charged: real time is real here.
    const core::ObjectCore::Step step =
        cores_[idx]->step(*payload, from, clock);
    Reply reply{from, std::nullopt};
    if (step.result) {
      reply.frame = encode_mux(static_cast<std::uint32_t>(idx), *step.result);
    }
    return reply;
  });
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
