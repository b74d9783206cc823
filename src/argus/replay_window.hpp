// The object's replay window (§IV-B freshness): the R_S nonces it has
// seen recently, each with the stamp it was inserted under, forgotten
// oldest-insert first once the window is full.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/bytes.hpp"

namespace argus::core {

/// Stamps are assigned once, at insert, and strictly increase, so the
/// smallest stamp is the oldest insert. An insertion-order ring of map
/// iterators beside the map finds it in O(1). The ring grows on demand
/// (an empty window allocates nothing) and stops one slot past `bound`,
/// the most a bounded window ever holds between an insert and its
/// eviction. Copies rebuild the ring over their own map.
class ReplayWindow {
 public:
  using Entries = std::map<Bytes, std::uint64_t>;

  /// `bound` sizes the ring only; eviction is the caller's decision.
  explicit ReplayWindow(std::size_t bound = 0) : bound_(bound) {}
  ReplayWindow(const ReplayWindow& other);
  ReplayWindow& operator=(const ReplayWindow& other);
  ReplayWindow(ReplayWindow&& other) noexcept;
  ReplayWindow& operator=(ReplayWindow&& other) noexcept;

  [[nodiscard]] bool contains(const Bytes& r_s) const {
    return entries_.contains(r_s);
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Every nonce with its stamp, in key order (the snapshot order).
  [[nodiscard]] const Entries& entries() const { return entries_; }

  /// Record a nonce not yet in the window. `stamp` must exceed every
  /// stamp the window holds.
  void insert(const Bytes& r_s, std::uint64_t stamp);
  /// Forget the oldest insert (the smallest stamp) and return its nonce.
  /// The window must not be empty.
  Bytes evict_oldest();
  /// Replace the contents, e.g. from a snapshot. Stamps must be
  /// distinct; the insertion order is rebuilt from them.
  void assign(Entries entries);
  void clear();

 private:
  void rebuild();
  void push(Entries::iterator it);

  Entries entries_;
  std::vector<Entries::iterator> ring_;  // oldest insert at ring_[head_]
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t bound_ = 0;
};

}  // namespace argus::core
