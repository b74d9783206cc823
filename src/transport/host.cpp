#include "transport/host.hpp"

#include <utility>

#include "transport/mux.hpp"

namespace argus::transport {

ObjectHost::ObjectHost(HostConfig cfg, SockTransport& transport)
    : cfg_(std::move(cfg)), transport_(transport) {
  engines_.reserve(cfg_.objects.size());
  for (const auto& ocfg : cfg_.objects) {
    engines_.push_back(std::make_unique<core::ObjectEngine>(ocfg));
  }
  transport_.set_handler([this](PeerId from, const Bytes& frame) {
    on_frame(from, frame);
  });
}

void ObjectHost::pump(double now_ms) {
  now_ms_ = now_ms;
  transport_.pump(now_ms);
  for (auto& engine : engines_) engine->advance_clock(now_ms);
  if (cfg_.snapshot_interval_ms > 0 && !cfg_.snapshot_path.empty() &&
      now_ms - last_snapshot_ms_ >= cfg_.snapshot_interval_ms) {
    write_snapshot();
    last_snapshot_ms_ = now_ms;
  }
}

Bytes ObjectHost::fleet_bundle() const {
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
  const auto mux = decode_mux(frame);
  if (!mux) {
    stats_.mux_decode_failed++;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("transport.mux_decode_failed").inc();
    }
    return;
  }
  if (mux->channel == kMuxBroadcast) {
    stats_.broadcasts_rx++;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      handle_engine(i, from, mux->payload);
    }
    return;
  }
  if (mux->channel == kMuxControl) {
    stats_.ctl_rx++;
    handle_ctl(mux->payload);
    return;
  }
  if (mux->channel >= engines_.size()) {
    stats_.bad_channel++;
    return;
  }
  handle_engine(mux->channel, from, mux->payload);
}

void ObjectHost::handle_engine(std::size_t idx, PeerId from,
                               ByteSpan payload) {
  core::ObjectEngine& engine = *engines_[idx];
  const auto result = engine.handle(payload, cfg_.epoch, from);
  (void)engine.take_consumed_ms();  // modeled cost; real time is real here
  if (!result) return;
  stats_.replies_tx++;
  transport_.send(from, encode_mux(static_cast<std::uint32_t>(idx), *result),
                  now_ms_);
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
