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
// Shards: engine i belongs to shard i % W, W = max(1, min(cores - 1,
// engines)), and each shard is one worker thread with one FIFO. An
// engine therefore handles its frames in arrival order and is only ever
// touched by its shard's thread; the endpoint, the reliable layer and
// the socket stay on the thread that calls pump(). The workers start on
// the first frame handed to an engine, so building a host starts none.
// pump() never waits for engine work: it sends the replies that have
// finished — the finished prefix, in dispatch order, so no reply
// overtakes an earlier one — drains the transport into the shards, and
// queues each engine's clock advance behind that pump's frames.
// settle() waits for every queued task and sends its reply, so a
// lockstep driver that calls `pump(); settle();` issues exactly the
// send() sequence of a host that handled every frame inline.
//
// Persistence (ISSUE-10 satellite): with a snapshot path set, the host
// writes a sealed fleet bundle via the persist layer's atomic file
// helpers on demand, on an interval, and on shutdown, and restores
// blank-or-exact per engine on startup — an engine whose section is
// missing or damaged starts blank while its neighbours restore.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
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

/// The transport must outlive the host: the destructor settles, which
/// sends the last replies. A profiler attached to the pumping thread when
/// a frame is dispatched records that frame's engine work on lane
/// (pump lane + 1 + shard), so it must outlive the frame's task too.
///
/// Metrics: an engine config's registry is swapped for a registry owned
/// by the engine's shard, which every settle point merges into the
/// configured one (and clears), so no registry is written by two threads.
class ObjectHost {
 public:
  ObjectHost(HostConfig cfg, SockTransport& transport);
  ~ObjectHost();
  ObjectHost(const ObjectHost&) = delete;
  ObjectHost& operator=(const ObjectHost&) = delete;

  /// Drive the transport and the host's clocks (engine TTLs, interval
  /// snapshots) without waiting for engine work: finished replies leave
  /// in dispatch order, inbound frames become tasks on the engines'
  /// shards.
  void pump(double now_ms);

  /// Wait for every queued task, send every reply in dispatch order and
  /// merge the shards' metrics. Rethrows an exception an engine raised.
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

  [[nodiscard]] std::size_t engine_count() const { return engines_.size(); }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
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
  struct Shard;
  struct Task;
  /// One dispatched frame's reply slot, in dispatch order.
  struct Reply {
    PeerId to = 0;
    bool done = false;
    std::optional<Bytes> frame;  // muxed reply; empty = the engine kept quiet
  };

  void on_frame(PeerId from, const Bytes& frame);
  void dispatch(std::size_t idx, PeerId from,
                const std::shared_ptr<const Bytes>& payload);
  void queue_clock(double now_ms);
  void run_shard(Shard& shard);
  void run_task(Shard& shard, Task& task);
  void send_finished();
  /// Wait until no task is queued or running; no rethrow, no sends.
  void wait_idle();
  void handle_ctl(ByteSpan payload);

  HostConfig cfg_;
  SockTransport& transport_;
  std::vector<std::unique_ptr<core::ObjectEngine>> engines_;
  double now_ms_ = 0;
  double last_snapshot_ms_ = 0;
  bool shutdown_ = false;
  bool started_ = false;  // shard threads running
  std::size_t restored_ = 0;
  Stats stats_;

  mutable std::mutex done_mu_;  // guards outbox_, outbox_base_, pending_, error_
  std::condition_variable idle_cv_;  // pending_ reached 0
  std::deque<Reply> outbox_;
  std::uint64_t outbox_base_ = 0;  // dispatch number of outbox_.front()
  std::size_t pending_ = 0;        // tasks queued or running
  std::exception_ptr error_;       // first exception an engine task raised

  std::vector<std::unique_ptr<Shard>> shards_;  // last: joined first
};

}  // namespace argus::transport
