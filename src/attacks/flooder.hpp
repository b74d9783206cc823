// Flooding adversary (§IV-B storms, overload protection's threat model).
//
// A Flooder is a deterministic stream of protocol-shaped junk: fresh
// random-nonce QUE1s (each would cost the victim an ECDH generate + ECDSA
// sign), garbage bytes wearing a QUE2 type tag (cheap-reject fodder for
// the cheap-check-first pipeline), or a captured wire blob replayed
// verbatim. The stream is core::FloodPayloads (argus/discovery.hpp),
// which the in-simulation flooder node sprays over the radio; this
// offline form drives an engine directly so unit tests can measure
// exactly what a flood costs and what admission control sheds — no
// network, no timers, same bytes.
#pragma once

#include "argus/discovery.hpp"
#include "attacks/adversary.hpp"

namespace argus::attacks {

/// What one offline flood did to the victim engine.
struct FloodOutcome {
  std::uint64_t sent = 0;         // payloads fed to the engine
  std::uint64_t served = 0;       // engine did the full (expensive) work
  std::uint64_t shed = 0;         // kShedOverload + kRateLimited
  std::uint64_t rejected = 0;     // is_reject statuses (malformed etc.)
  std::uint64_t other = 0;        // duplicates, stale, policy-silent, ...
  double victim_compute_ms = 0;   // modeled crypto the flood extracted
};

/// A flood payload stream that can feed itself into a victim engine.
class Flooder {
 public:
  using Kind = core::FloodSpec::Kind;

  Flooder(Kind kind, std::uint64_t seed, Bytes replay_wire = {})
      : payloads_(kind, seed, std::move(replay_wire)) {}

  /// Next payload in the stream.
  Bytes next() { return payloads_.next(); }

  /// Feed `count` payloads straight into an engine, advancing its virtual
  /// clock by `tick_ms` per payload (so token buckets refill exactly as
  /// they would under a real-time flood at 1000/tick_ms msgs/s). `peer`
  /// is the flooder's identity for per-peer rate limiting.
  FloodOutcome run_against(core::ObjectEngine& engine, std::size_t count,
                           double tick_ms, std::uint64_t now,
                           std::uint64_t peer = 0xF100D);

  [[nodiscard]] Kind kind() const { return payloads_.kind(); }

 private:
  core::FloodPayloads payloads_;
};

/// Build a replay flooder from a captured exchange: the replayed blob is
/// the captured QUE2 (the most state-touching message an eavesdropper
/// holds). Seed only drives tie-breaking; the payload is fixed.
Flooder replay_flooder(const CapturedTrace& trace, std::uint64_t seed);

}  // namespace argus::attacks
