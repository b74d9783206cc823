// Object-side daemon room: N object cores behind one SockTransport.
//
// The host is argusd's engine room, kept tool-free so the in-process
// transport tests drive exactly the daemon's code path. It demuxes
// inbound frames (mux.hpp) onto the hosted object cores
// (argus/object_core.hpp), the same step the simulator's object nodes
// run — a broadcast channel frame (QUE1) fans out to every core, a
// unicast channel addresses one — and sends each core's reply back on
// that engine's channel. Admission control and session resumption run
// whenever the engine configs arm them; the `peer` handed to the cores
// is the transport PeerId (a packed socket address on the real path),
// so per-peer admission buckets track real remote endpoints.
//
// Engine lanes (lanes.hpp): each engine has a lane of its own, so it
// handles its frames in arrival order and is only ever touched by one
// thread at a time; the endpoint, the reliable layer and the socket stay
// on the thread that calls pump(). pump() never waits for engine work: it
// sends the replies that have finished — the finished prefix, in dispatch
// order, so no reply overtakes an earlier one — and drains the transport
// into the lanes. Clock advances are lazy: a frame's task first advances
// its engine to the time of the pump before it, and settle() brings every
// engine up to the last pump, so no pump posts a task of its own.
// settle() waits for every queued task and sends its reply, so a
// lockstep driver that calls `pump(); settle();` issues exactly the
// send() sequence of a host that handled every frame inline.
//
// Persistence: with a snapshot path set, the host
// writes a sealed fleet bundle via the persist layer's atomic file
// helpers on demand, on an interval, and on shutdown, and restores
// blank-or-exact per engine on startup — an engine whose section is
// missing or damaged starts blank while its neighbours restore.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "argus/object_core.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/snapshot.hpp"
#include "transport/lanes.hpp"
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

/// The transport must outlive the host: the destructor settles, which
/// sends the last replies. A profiler attached to the pumping thread when
/// a frame is dispatched records that frame's engine work on lane
/// (pump lane + 1 + the engine lane's id), so it must outlive the frame's
/// task too.
///
/// Metrics: an engine config's registry is swapped for its lane's
/// LaneRegistry stand-in, which every settle point merges.
class ObjectHost {
 public:
  ObjectHost(HostConfig cfg, SockTransport& transport);
  ~ObjectHost();
  ObjectHost(const ObjectHost&) = delete;
  ObjectHost& operator=(const ObjectHost&) = delete;

  /// Drive the transport and the host's clocks (engine TTLs, interval
  /// snapshots) without waiting for engine work: finished replies leave
  /// in dispatch order, inbound frames become tasks on the engines'
  /// lanes.
  void pump(double now_ms);

  /// Wait for every queued task, advance every engine to the last pump's
  /// time, send every reply in dispatch order and merge the lanes'
  /// metrics. Rethrows an exception an engine raised.
  void settle();

  /// Frames handed to the engines whose replies have not left yet.
  [[nodiscard]] std::size_t in_flight() const;

  /// A control-plane shutdown frame arrived; the tool's main loop exits.
  [[nodiscard]] bool shutdown_requested() const { return shutdown_; }

  // --- persistence (each settles first) -----------------------------------
  /// Sealed fleet bundle of every engine ("object:<id>" sections).
  [[nodiscard]] Bytes fleet_bundle();
  /// Atomic write to cfg.snapshot_path; false on IO failure or no path.
  bool write_snapshot();
  /// Blank-or-exact restore per engine from cfg.snapshot_path. Returns
  /// the file-level error (kOk when the bundle opened; individual engine
  /// sections can still have been refused — see restored_engines()).
  persist::RestoreError restore_from_file();
  [[nodiscard]] std::size_t restored_engines() const { return restored_; }

  [[nodiscard]] std::size_t engine_count() const { return cores_.size(); }
  /// Settles first; the reference is safe to use until the next pump().
  [[nodiscard]] core::ObjectEngine& engine(std::size_t i);

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
  /// One dispatched frame's reply.
  struct Reply {
    PeerId to = 0;
    std::optional<Bytes> frame;  // muxed reply; empty = the engine kept quiet
  };

  void on_frame(PeerId from, const Bytes& frame);
  void dispatch(std::size_t idx, PeerId from,
                const std::shared_ptr<const Bytes>& payload);
  void send_finished();
  void handle_ctl(ByteSpan payload);

  HostConfig cfg_;
  SockTransport& transport_;
  std::vector<std::unique_ptr<core::ObjectCore>> cores_;
  std::vector<LaneRegistry> metrics_;  // per engine
  double now_ms_ = 0;    // the current pump's time: replies leave at it
  double clock_ms_ = 0;  // the last finished pump's time: engines' clock
  double last_snapshot_ms_ = 0;
  bool shutdown_ = false;
  std::size_t restored_ = 0;
  Stats stats_;
  EngineLanes<Reply> lanes_;  // last: waits for the tasks before all else
};

}  // namespace argus::transport
