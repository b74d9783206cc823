// Object-side daemon core: N ObjectEngines behind one SockTransport.
//
// The host is argusd's engine room, kept tool-free so the in-process
// transport tests drive exactly the daemon's code path. It demuxes
// inbound frames (mux.hpp) onto the hosted engines — a broadcast channel
// frame (QUE1) fans out to every engine, a unicast channel addresses one
// — and sends each engine's reply back on that engine's channel. PR-5
// admission control and PR-8 session resumption run whenever the engine
// configs arm them; the `peer` handed to the engines is the transport
// PeerId (a packed socket address on the real path), so per-peer
// admission buckets track real remote endpoints.
//
// Persistence (ISSUE-10 satellite): with a snapshot path set, the host
// writes a sealed fleet bundle via the persist layer's atomic file
// helpers on demand, on an interval, and on shutdown, and restores
// blank-or-exact per engine on startup — an engine whose section is
// missing or damaged starts blank while its neighbours restore.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "argus/object_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/snapshot.hpp"
#include "transport/transport.hpp"

namespace argus::transport {

struct HostConfig {
  std::vector<core::ObjectEngineConfig> objects;
  /// Wall-clock epoch fed to the engines for certificate validity.
  std::uint64_t epoch = 0;
  /// Sealed fleet-bundle file ("" = persistence off).
  std::string snapshot_path;
  /// Periodic snapshot writes (0 = only on demand/shutdown).
  double snapshot_interval_ms = 0;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

class ObjectHost {
 public:
  ObjectHost(HostConfig cfg, SockTransport& transport);

  /// Drive the transport and the host's clocks (engine TTLs, interval
  /// snapshots). Inbound frames are handled inside this call.
  void pump(double now_ms);

  /// A control-plane shutdown frame arrived; the tool's main loop exits.
  [[nodiscard]] bool shutdown_requested() const { return shutdown_; }

  // --- persistence --------------------------------------------------------
  /// Sealed fleet bundle of every engine ("object:<id>" sections).
  [[nodiscard]] Bytes fleet_bundle() const;
  /// Atomic write to cfg.snapshot_path; false on IO failure or no path.
  bool write_snapshot();
  /// Blank-or-exact restore per engine from cfg.snapshot_path. Returns
  /// the file-level error (kOk when the bundle opened; individual engine
  /// sections can still have been refused — see restored_engines()).
  persist::RestoreError restore_from_file();
  [[nodiscard]] std::size_t restored_engines() const { return restored_; }

  [[nodiscard]] std::size_t engine_count() const { return engines_.size(); }
  [[nodiscard]] core::ObjectEngine& engine(std::size_t i) {
    return *engines_[i];
  }

  struct Stats {
    std::uint64_t frames_rx = 0;
    std::uint64_t broadcasts_rx = 0;  // QUE1 fan-outs
    std::uint64_t replies_tx = 0;
    std::uint64_t ctl_rx = 0;
    std::uint64_t mux_decode_failed = 0;
    std::uint64_t bad_channel = 0;
    std::uint64_t snapshots_written = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_frame(PeerId from, const Bytes& frame);
  void handle_engine(std::size_t idx, PeerId from, ByteSpan payload);
  void handle_ctl(ByteSpan payload);

  HostConfig cfg_;
  SockTransport& transport_;
  std::vector<std::unique_ptr<core::ObjectEngine>> engines_;
  double now_ms_ = 0;
  double last_snapshot_ms_ = 0;
  bool shutdown_ = false;
  std::size_t restored_ = 0;
  Stats stats_;
};

}  // namespace argus::transport
