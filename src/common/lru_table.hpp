// One eviction-ordered table for every bounded map: sessions, reply and
// premaster caches, the replay window, admission buckets, verified
// credentials, precomputed EC tables and transport connections.
//
// Entries live in an ordinary index, std::map or std::unordered_map (the
// template argument), and each carries a stamp its owner supplies from a
// counter that never goes back. A doubly linked list threaded through the
// index's own nodes keeps them in eviction order: ascending stamp, ties
// (only a rebuild from saved stamps has them) in index order. For a
// std::map index the head of that order is exactly the entry a full scan
// for the smallest stamp picks, first in key order among equals, but
// found in O(1).
//
// Both index kinds keep node addresses stable across inserts, erases,
// rehashes and moves, so the links are plain pointers: insert, touch and
// evict allocate nothing beyond the index node. A table whose entries are
// never re-stamped is FIFO.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

namespace argus {

/// Index payload: the owner's value, its stamp, and the eviction links.
template <class Key, class Value>
struct LruEntry {
  using Slot = std::pair<const Key, LruEntry>;
  using value_type = Value;

  Value value{};
  std::uint64_t stamp = 0;
  Slot* older = nullptr;  // toward the next victim
  Slot* newer = nullptr;
};

template <class Map>
class LruTable {
 public:
  using Index = Map;
  using key_type = typename Index::key_type;
  using Entry = typename Index::mapped_type;
  using Value = typename Entry::value_type;
  using iterator = typename Index::iterator;
  using const_iterator = typename Index::const_iterator;

  LruTable() = default;
  LruTable(const LruTable& other) : index_(other.index_) { relink(other); }
  LruTable& operator=(const LruTable& other) {
    if (this != &other) {
      index_ = other.index_;
      relink(other);
    }
    return *this;
  }
  // Moving an index moves its nodes, so the links move along intact.
  LruTable(LruTable&& other) noexcept
      : index_(std::move(other.index_)),
        oldest_(std::exchange(other.oldest_, nullptr)),
        newest_(std::exchange(other.newest_, nullptr)) {
    other.index_.clear();
  }
  LruTable& operator=(LruTable&& other) noexcept {
    if (this != &other) {
      index_ = std::move(other.index_);
      oldest_ = std::exchange(other.oldest_, nullptr);
      newest_ = std::exchange(other.newest_, nullptr);
      other.index_.clear();
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }
  /// Index order (key order for std::map), not eviction order.
  iterator begin() { return index_.begin(); }
  iterator end() { return index_.end(); }
  const_iterator begin() const { return index_.begin(); }
  const_iterator end() const { return index_.end(); }
  iterator find(const key_type& key) { return index_.find(key); }
  const_iterator find(const key_type& key) const { return index_.find(key); }
  [[nodiscard]] bool contains(const key_type& key) const {
    return index_.contains(key);
  }

  /// Look `key` up, inserting a default value if absent, and stamp it.
  /// Every stamp exceeds the ones the table already holds.
  std::pair<iterator, bool> try_emplace(const key_type& key,
                                        std::uint64_t stamp) {
    const auto [it, fresh] = index_.try_emplace(key);
    if (!fresh) unlink(&*it);
    restamp(&*it, stamp);
    return {it, fresh};
  }
  /// Insert or overwrite `key`'s value, stamped `stamp`.
  iterator put(const key_type& key, Value value, std::uint64_t stamp) {
    const iterator it = try_emplace(key, stamp).first;
    it->second.value = std::move(value);
    return it;
  }
  /// Re-stamp an entry (a use under LRU).
  void touch(iterator it, std::uint64_t stamp) {
    unlink(&*it);
    restamp(&*it, stamp);
  }

  iterator erase(iterator it) {
    unlink(&*it);
    return index_.erase(it);
  }
  std::size_t erase(const key_type& key) {
    const iterator it = index_.find(key);
    if (it == index_.end()) return 0;
    erase(it);
    return 1;
  }
  /// The next victim: the smallest stamp, first in key order among
  /// equals. The table must not be empty.
  [[nodiscard]] const key_type& oldest() const { return oldest_->first; }
  void evict_oldest() { erase(index_.find(oldest_->first)); }
  /// Evict oldest-first until at most `bound` entries remain; returns how
  /// many went.
  std::size_t trim(std::size_t bound) {
    std::size_t evicted = 0;
    for (; index_.size() > bound; ++evicted) evict_oldest();
    return evicted;
  }
  void clear() {
    index_.clear();
    oldest_ = newest_ = nullptr;
  }

  /// Take `entries`, values and stamps set, links ignored (e.g. parsed
  /// from a snapshot), and order them by stamp, then index order.
  void assign(Index entries) {
    index_ = std::move(entries);
    std::vector<Slot*> order;
    order.reserve(index_.size());
    for (auto& slot : index_) order.push_back(&slot);
    std::stable_sort(order.begin(), order.end(), [](Slot* a, Slot* b) {
      return a->second.stamp < b->second.stamp;
    });
    oldest_ = newest_ = nullptr;
    for (Slot* s : order) append(s);
  }

 private:
  using Slot = typename Index::value_type;

  void restamp(Slot* s, std::uint64_t stamp) {
    s->second.stamp = stamp;
    append(s);
  }

  void append(Slot* s) {
    s->second.older = newest_;
    s->second.newer = nullptr;
    (newest_ != nullptr ? newest_->second.newer : oldest_) = s;
    newest_ = s;
  }

  void unlink(Slot* s) {
    Entry& e = s->second;
    (e.older != nullptr ? e.older->second.newer : oldest_) = e.newer;
    (e.newer != nullptr ? e.newer->second.older : newest_) = e.older;
    e.older = e.newer = nullptr;
  }

  /// Thread this table's nodes in `other`'s eviction order.
  void relink(const LruTable& other) {
    oldest_ = newest_ = nullptr;
    for (const Slot* s = other.oldest_; s != nullptr; s = s->second.newer) {
      append(&*index_.find(s->first));
    }
  }

  Index index_;
  Slot* oldest_ = nullptr;
  Slot* newest_ = nullptr;
};

template <class Key, class Value>
using LruMap = LruTable<std::map<Key, LruEntry<Key, Value>>>;
template <class Key, class Value, class Hash>
using LruHashMap =
    LruTable<std::unordered_map<Key, LruEntry<Key, Value>, Hash>>;

}  // namespace argus
