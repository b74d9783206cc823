// Per-node ingress queue of the ground-network model (net/network.hpp).
//
// A message that reaches a busy node parks until the node's busy window
// ends. Every parked message carries a virtual wake key (time, seq): the
// key its own wake timer would take — the node's busy_until when it
// parked, and a simulator sequence number reserved at that moment. The
// queue keeps entries in key order, so the Network arms ONE real
// simulator event per busy node, at front_key(), and replays each
// entry's wake from there in exact (time, seq) order.
//
// Entries are stored as runs: consecutive sequence numbers that share a
// wake time. When a busy window ends, the whole run behind it re-parks
// behind the next busy_until with fresh consecutive sequence numbers —
// one relabel, not one event per entry. A burst of k arrivals at one
// node therefore costs O(k) queue work and one event per busy window.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "net/event_queue.hpp"

namespace argus::net {

using NodeId = std::uint32_t;

class IngressQueue {
 public:
  struct Entry {
    std::shared_ptr<const Bytes> frame;
    NodeId from = 0;
    SimTime arrived = 0;  // first park; net.queue.wait_ms counts from here
  };

  /// Eviction class of a frame: its wire-type byte, lower = stronger.
  static std::uint8_t priority(const Bytes& frame) {
    return frame.empty() ? 0xFF : frame[0];
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Smallest wake key. Precondition: !empty().
  [[nodiscard]] EventKey front_key() const {
    const Run& r = runs_[first_];
    return {r.time, r.seq};
  }
  /// How many entries, from the front, wake at front_key().time with
  /// consecutive sequence numbers front_key().seq, +1, ... No other event
  /// can take a seq between them.
  [[nodiscard]] std::size_t front_run() const { return runs_[first_].size(); }

  /// Park `entry` at `key`; key.seq must exceed every queued seq (it was
  /// reserved just now).
  void push(EventKey key, Entry entry);
  /// Remove and return the front entry.
  Entry pop_front();
  /// Re-park the front_run() front entries at keys (time, seq),
  /// (time, seq + 1), ... — a block of seqs freshly reserved.
  void repark_front(SimTime time, std::uint64_t seq);

  /// Remove and return the entry parked earliest (smallest seq).
  Entry evict_oldest();
  /// Remove and return the weakest entry (highest priority byte, newest
  /// of those), unless `arriving` is no stronger than it.
  std::optional<Entry> evict_weakest(std::uint8_t arriving);

 private:
  /// Live entries[head..] wake at (time, seq), (time, seq + 1), ...
  struct Run {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::vector<Entry> entries;
    std::size_t head = 0;
    [[nodiscard]] std::size_t size() const { return entries.size() - head; }
  };

  /// Place a run whose seqs exceed every queued seq, merging it into its
  /// predecessor when their keys continue each other.
  void insert(Run run);
  /// Remove and return live entry `j` of runs_[i].
  Entry take(std::size_t i, std::size_t j);
  /// Drop runs_[i] once it is empty.
  void erase_run(std::size_t i);

  std::vector<Run> runs_;  // key order, starting at runs_[first_]
  std::size_t first_ = 0;
  std::size_t size_ = 0;
};

}  // namespace argus::net
