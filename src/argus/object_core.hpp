// Object side of one discovery node, shared by the simulator and the
// daemon.
//
// ObjectCore owns an ObjectEngine, which it rebuilds from the engine's own
// config on reboot, and the chaos a fault plan arms on the node: a
// ByzantineMutator that corrupts replies after the honest engine ran, and
// the zombie flag that eats them. The simulator's ObjectNode adds the
// trace, compute charging and the radio to its step; the daemon's
// ObjectHost adds the mux framing and drops the modeled cost.
#pragma once

#include <cstdint>
#include <optional>

#include "argus/object_engine.hpp"
#include "fault/byzantine.hpp"

namespace argus::core {

class ObjectCore {
 public:
  struct Step {
    /// The engine's status and the reply that leaves the node: after
    /// Byzantine mutation, empty when the zombie flag ate it.
    HandleResult result;
    /// 2 or 3 when the reply that leaves is tagged RES2 (3: this payload
    /// confirmed a Level-3 fellow), else 0 — the level the timing auditor
    /// partitions faces by. Read from the bytes that leave, after
    /// mutation and suppression; a resend of a cached Level-3 RES2 reads 2.
    std::uint64_t reply_level = 0;
    /// Modeled crypto milliseconds the engine spent on the payload.
    double consumed_ms = 0;
    /// Size of the reply the zombie flag suppressed; empty when none was.
    std::optional<std::size_t> zombie_suppressed;
  };

  /// `epoch` is the wall-clock time fed to the engine for certificate
  /// validity.
  ObjectCore(ObjectEngineConfig cfg, std::uint64_t epoch);

  /// Advance the engine's clock to `now_ms`, handle `payload` from peer
  /// `from`, then apply the armed chaos to the reply.
  Step step(ByteSpan payload, std::uint64_t from, double now_ms);

  /// Reboot after a crash: the engine restarts from its config with an
  /// empty session table (and a reset DRBG — bad post-reboot entropy is
  /// realistic). Byzantine arming dies with the old process image; a
  /// zombie stays one.
  void reboot();
  /// Silent-drop zombie: the engine keeps working, no reply leaves again.
  void make_zombie() { zombie_ = true; }
  void arm_byzantine(fault::ByzantineMode mode, std::uint64_t seed) {
    byzantine_.arm(mode, seed);
  }

  ObjectEngine& engine() { return *engine_; }
  [[nodiscard]] const ObjectEngine& engine() const { return *engine_; }

 private:
  std::uint64_t epoch_;
  std::optional<ObjectEngine> engine_;  // optional: rebuilt in place on reboot
  fault::ByzantineMutator byzantine_;
  bool zombie_ = false;
};

}  // namespace argus::core
