// Event keys of the discrete-event simulator.
//
// The simulator's contract is exact (time, seq) total order: same-time
// events fire in scheduling order, every run is bit-deterministic. Every
// seq the simulator issues (scheduled or reserved) is unique, so the key
// order is strict and any correct priority queue fires the same events
// in the same order.
#pragma once

#include <cstdint>
#include <limits>

namespace argus::net {

using SimTime = double;  // virtual milliseconds

/// Handle for a cancellable timer; 0 is never a valid id.
using TimerId = std::uint64_t;

/// An event's exact place in the firing order: time, then the sequence
/// number the simulator issued when it was scheduled (or reserved).
struct EventKey {
  SimTime time = 0;
  std::uint64_t seq = 0;

  /// Sorts after every real event.
  static constexpr EventKey never() {
    return {std::numeric_limits<SimTime>::infinity(),
            std::numeric_limits<std::uint64_t>::max()};
  }
  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  friend bool operator==(const EventKey&, const EventKey&) = default;
};

}  // namespace argus::net
