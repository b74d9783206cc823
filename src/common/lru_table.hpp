// One eviction-ordered table for every bounded map: sessions, reply and
// premaster caches, the replay window, admission buckets, verified
// credentials, precomputed EC tables and transport connections.
//
// Each entry carries a stamp its owner supplies from a counter that never
// goes back. A doubly linked list keeps the entries in eviction order:
// ascending stamp, ties (only a rebuild from saved stamps has them) in
// key order. The head of that order is exactly the entry a full scan for
// the smallest stamp picks, first in key order among equals, but found in
// O(1). A table whose entries are never re-stamped is FIFO.
//
// The entries live in one of two index kinds (the template argument); the
// link code below is the same for both, written over the kind's handle:
//
// - OrderedIndex: a std::map whose nodes carry the entry and the links.
//   Handles are node addresses, which stay put across inserts, erases and
//   moves. Iteration is key order, for tables whose order is observed.
// - FlatIndex: one pool of entries in a std::vector, 32-bit pool slots as
//   handles and links, and an open-addressed index of slots (linear
//   probing, load at most 1/2, backward-shift deletion). An erase moves
//   the last entry into the hole, so the pool stays dense and storage is
//   two vectors that grow geometrically from empty. Iteration is pool
//   order. The index hashes every key byte with SipHash-1-3 under a
//   secret drawn once per process: peers that choose keys (a subject's
//   R_S) cannot aim them at one probe chain. Nothing observable depends
//   on the secret: lookups, pool order and eviction order do not.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace argus {

// ---------------------------------------------------------------------------
// Ordered index

/// A std::map node's payload: the owner's value, its stamp, the links.
template <class Key, class Value>
struct LruEntry {
  using Slot = std::pair<const Key, LruEntry>;
  using value_type = Value;

  Value value{};
  std::uint64_t stamp = 0;
  Slot* older = nullptr;  // toward the next victim
  Slot* newer = nullptr;
};

template <class Key, class Value>
class OrderedIndex {
 public:
  using key_type = Key;
  using Entry = LruEntry<Key, Value>;
  using Parsed = std::map<Key, Entry>;
  using iterator = typename Parsed::iterator;
  using const_iterator = typename Parsed::const_iterator;
  using Handle = typename Parsed::value_type*;
  static constexpr bool kOrdered = true;
  static constexpr Handle kNil = nullptr;

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  iterator begin() { return map_.begin(); }
  iterator end() { return map_.end(); }
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }
  iterator find(const Key& key) { return map_.find(key); }
  const_iterator find(const Key& key) const { return map_.find(key); }

  Entry& entry(Handle h) { return h->second; }
  const Entry& entry(Handle h) const { return h->second; }
  const Key& key(Handle h) const { return h->first; }
  Handle handle(iterator it) { return &*it; }
  iterator at(Handle h) { return map_.find(h->first); }
  /// The handle in this index of `other`'s entry `h` (same keys).
  Handle counterpart(const OrderedIndex& other, Handle h) {
    return &*map_.find(other.key(h));
  }

  std::pair<iterator, bool> try_emplace(const Key& key) {
    return map_.try_emplace(key);
  }
  /// Node addresses never move, so `relocate` is never called.
  template <class Relocate>
  iterator erase(iterator it, Relocate&& /*relocate*/) {
    return map_.erase(it);
  }
  void clear() { map_.clear(); }
  void load(Parsed entries) { map_ = std::move(entries); }

 private:
  Parsed map_;
};

// ---------------------------------------------------------------------------
// Flat index

namespace lru_detail {

/// The flat index's hash secret, drawn once per process.
inline const std::array<std::uint64_t, 2>& hash_secret() {
  static const std::array<std::uint64_t, 2> secret = [] {
    std::random_device rd;
    std::array<std::uint64_t, 2> k{};
    for (std::uint64_t& w : k) w = (std::uint64_t{rd()} << 32) ^ rd();
    return k;
  }();
  return secret;
}

inline std::uint64_t rotl(std::uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

/// SipHash-1-3 of `n` bytes under `k`, words loaded in host order.
inline std::uint64_t siphash13(const std::array<std::uint64_t, 2>& k,
                               const unsigned char* p, std::size_t n) {
  std::uint64_t v0 = 0x736f6d6570736575ull ^ k[0];
  std::uint64_t v1 = 0x646f72616e646f6dull ^ k[1];
  std::uint64_t v2 = 0x6c7967656e657261ull ^ k[0];
  std::uint64_t v3 = 0x7465646279746573ull ^ k[1];
  const auto round = [&] {
    v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
    v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
    v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
    v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
  };
  const auto absorb = [&](std::uint64_t m) {
    v3 ^= m;
    round();
    v0 ^= m;
  };
  const std::size_t whole = n - n % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    std::uint64_t m;
    std::memcpy(&m, p + i, 8);
    absorb(m);
  }
  std::uint64_t last = std::uint64_t{n} << 56;
  for (std::size_t i = whole; i < n; ++i) {
    last |= std::uint64_t{p[i]} << (8 * (i - whole));
  }
  absorb(last);
  v2 ^= 0xff;
  round();
  round();
  round();
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace lru_detail

/// A pool slot's payload. Links are pool slots; kNil ends the list.
template <class Value>
struct FlatEntry {
  using value_type = Value;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  [[no_unique_address]] Value value{};
  std::uint64_t stamp = 0;
  std::uint32_t older = kNil;  // toward the next victim
  std::uint32_t newer = kNil;
};

/// One pool slot: the key, its hash (in the padding after a 28-byte
/// nonce), the entry.
template <class Key, class Value>
struct FlatSlot {
  Key first{};
  std::uint32_t hash = 0;
  FlatEntry<Value> second;
};

template <class Key, class Value>
class FlatIndex {
  static_assert(std::has_unique_object_representations_v<Key>,
                "the flat index hashes a key's bytes");

 public:
  using key_type = Key;
  using Entry = FlatEntry<Value>;
  using Parsed = std::map<Key, Entry>;
  using Slot = FlatSlot<Key, Value>;
  using iterator = typename std::vector<Slot>::iterator;
  using const_iterator = typename std::vector<Slot>::const_iterator;
  using Handle = std::uint32_t;
  static constexpr bool kOrdered = false;
  static constexpr Handle kNil = Entry::kNil;

  [[nodiscard]] std::size_t size() const { return pool_.size(); }
  iterator begin() { return pool_.begin(); }
  iterator end() { return pool_.end(); }
  const_iterator begin() const { return pool_.begin(); }
  const_iterator end() const { return pool_.end(); }
  iterator find(const Key& key) { return at_or_end(locate(key, hash(key))); }
  const_iterator find(const Key& key) const {
    const Handle h = locate(key, hash(key));
    return h == kNil ? pool_.end() : pool_.begin() + h;
  }

  Entry& entry(Handle h) { return pool_[h].second; }
  const Entry& entry(Handle h) const { return pool_[h].second; }
  const Key& key(Handle h) const { return pool_[h].first; }
  Handle handle(iterator it) {
    return static_cast<Handle>(it - pool_.begin());
  }
  iterator at(Handle h) { return pool_.begin() + h; }
  /// A copy keeps every slot where it was.
  static Handle counterpart(const FlatIndex& /*other*/, Handle h) { return h; }

  std::pair<iterator, bool> try_emplace(const Key& key) {
    const std::uint32_t h = hash(key);
    if (const Handle found = locate(key, h); found != kNil) {
      return {at(found), false};
    }
    if (pool_.size() >= kNil) throw std::length_error("FlatIndex: full");
    if (2 * (pool_.size() + 1) > buckets_.size()) {
      rehash(std::max<std::size_t>(kMinBuckets, 2 * buckets_.size()));
    }
    const auto slot = static_cast<Handle>(pool_.size());
    pool_.push_back(Slot{key, h, {}});
    buckets_[empty_bucket_for(slot)] = slot;
    return {at(slot), true};
  }

  /// Drop `it`'s slot, move the last entry into it, and report that move
  /// as relocate(hole) once the entry sits there. Returns the
  /// iterator at the hole: an erase-while-iterating loop visits the moved
  /// entry next.
  template <class Relocate>
  iterator erase(iterator it, Relocate&& relocate) {
    const Handle hole = handle(it);
    unindex(bucket_of(hole));
    const auto last = static_cast<Handle>(pool_.size() - 1);
    if (hole != last) {
      pool_[hole] = std::move(pool_[last]);
      buckets_[bucket_of(last, pool_[hole].hash)] = hole;
      relocate(hole);
    }
    pool_.pop_back();
    return at(hole);
  }
  void clear() {
    pool_ = std::vector<Slot>();
    buckets_ = std::vector<Handle>();
  }
  /// Insert in key order, so pool order is key order.
  void load(Parsed entries) {
    for (auto& [key, e] : entries) {
      Entry& slot = try_emplace(key).first->second;
      slot.value = std::move(e.value);
      slot.stamp = e.stamp;
    }
  }

  /// Bytes of storage held: pool and index capacity.
  [[nodiscard]] std::size_t storage_bytes() const {
    return pool_.capacity() * sizeof(Slot) +
           buckets_.capacity() * sizeof(Handle);
  }

 private:
  static constexpr std::size_t kMinBuckets = 4;

  static std::uint32_t hash(const Key& key) {
    return static_cast<std::uint32_t>(lru_detail::siphash13(
        lru_detail::hash_secret(),
        reinterpret_cast<const unsigned char*>(&key), sizeof(Key)));
  }
  [[nodiscard]] std::size_t mask() const { return buckets_.size() - 1; }

  iterator at_or_end(Handle h) { return h == kNil ? pool_.end() : at(h); }

  [[nodiscard]] Handle locate(const Key& key, std::uint32_t h) const {
    if (buckets_.empty()) return kNil;
    for (std::size_t b = h & mask();; b = (b + 1) & mask()) {
      const Handle s = buckets_[b];
      if (s == kNil || (pool_[s].hash == h && pool_[s].first == key)) {
        return s;
      }
    }
  }
  /// The first empty bucket on `slot`'s probe path (for an insert).
  [[nodiscard]] std::size_t empty_bucket_for(Handle slot) const {
    std::size_t b = pool_[slot].hash & mask();
    while (buckets_[b] != kNil) b = (b + 1) & mask();
    return b;
  }
  /// The bucket that holds `slot`, whose key hashes to `h`.
  [[nodiscard]] std::size_t bucket_of(Handle slot, std::uint32_t h) const {
    std::size_t b = h & mask();
    while (buckets_[b] != slot) b = (b + 1) & mask();
    return b;
  }
  [[nodiscard]] std::size_t bucket_of(Handle slot) const {
    return bucket_of(slot, pool_[slot].hash);
  }
  /// Empty bucket `hole`, shifting later members of its run back so that
  /// every probe path stays unbroken.
  void unindex(std::size_t hole) {
    for (std::size_t b = (hole + 1) & mask(); buckets_[b] != kNil;
         b = (b + 1) & mask()) {
      const std::size_t home = pool_[buckets_[b]].hash & mask();
      // The entry at b may move to the hole if the hole lies on its
      // probe path, home to b.
      if (((b - home) & mask()) >= ((b - hole) & mask())) {
        buckets_[hole] = buckets_[b];
        hole = b;
      }
    }
    buckets_[hole] = kNil;
  }
  void rehash(std::size_t n) {
    buckets_.assign(n, kNil);
    for (Handle s = 0; s < pool_.size(); ++s) {
      buckets_[empty_bucket_for(s)] = s;
    }
  }

  std::vector<Slot> pool_;
  std::vector<Handle> buckets_;  // pool slots; kNil is empty
};

// ---------------------------------------------------------------------------
// The table: the link code, over either index kind.

template <class IndexKind>
class LruTable {
 public:
  using Index = IndexKind;
  using key_type = typename Index::key_type;
  using Entry = typename Index::Entry;
  using Value = typename Entry::value_type;
  /// What assign() takes: entries by key, values and stamps set.
  using Parsed = typename Index::Parsed;
  using iterator = typename Index::iterator;
  using const_iterator = typename Index::const_iterator;
  static constexpr bool kOrdered = Index::kOrdered;

  LruTable() = default;
  LruTable(const LruTable& other) : index_(other.index_) { relink(other); }
  LruTable& operator=(const LruTable& other) {
    if (this != &other) {
      index_ = other.index_;
      relink(other);
    }
    return *this;
  }
  // Moving either index keeps its handles valid, so the links move along.
  LruTable(LruTable&& other) noexcept
      : index_(std::move(other.index_)),
        oldest_(std::exchange(other.oldest_, kNil)),
        newest_(std::exchange(other.newest_, kNil)) {
    other.index_.clear();
  }
  LruTable& operator=(LruTable&& other) noexcept {
    if (this != &other) {
      index_ = std::move(other.index_);
      oldest_ = std::exchange(other.oldest_, kNil);
      newest_ = std::exchange(other.newest_, kNil);
      other.index_.clear();
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.size() == 0; }
  /// Index order (key order or pool order), not eviction order.
  iterator begin() { return index_.begin(); }
  iterator end() { return index_.end(); }
  const_iterator begin() const { return index_.begin(); }
  const_iterator end() const { return index_.end(); }
  iterator find(const key_type& key) { return index_.find(key); }
  const_iterator find(const key_type& key) const { return index_.find(key); }
  [[nodiscard]] bool contains(const key_type& key) const {
    return index_.find(key) != index_.end();
  }

  /// Look `key` up, inserting a default value if absent, and stamp it.
  /// Every stamp exceeds the ones the table already holds.
  std::pair<iterator, bool> try_emplace(const key_type& key,
                                        std::uint64_t stamp) {
    const auto [it, fresh] = index_.try_emplace(key);
    const Handle h = index_.handle(it);
    if (!fresh) unlink(h);
    restamp(h, stamp);
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
    const Handle h = index_.handle(it);
    unlink(h);
    restamp(h, stamp);
  }

  /// The iterator past `it` in index order (a flat index refills the
  /// hole, so erase-while-iterating visits every entry once).
  iterator erase(iterator it) {
    unlink(index_.handle(it));
    return index_.erase(it, [this](Handle to) { relocate(to); });
  }
  std::size_t erase(const key_type& key) {
    const iterator it = index_.find(key);
    if (it == index_.end()) return 0;
    erase(it);
    return 1;
  }
  /// The next victim: the smallest stamp, first in key order among
  /// equals. The table must not be empty.
  [[nodiscard]] const key_type& oldest() const { return index_.key(oldest_); }
  void evict_oldest() { erase(index_.at(oldest_)); }
  /// Evict oldest-first until at most `bound` entries remain; returns how
  /// many went.
  std::size_t trim(std::size_t bound) {
    std::size_t evicted = 0;
    for (; index_.size() > bound; ++evicted) evict_oldest();
    return evicted;
  }
  void clear() {
    index_.clear();
    oldest_ = newest_ = kNil;
  }

  /// Take `entries`, values and stamps set, links ignored (e.g. parsed
  /// from a snapshot), and order them by stamp, then key.
  void assign(Parsed entries) {
    clear();
    index_.load(std::move(entries));
    // Both kinds now iterate in key order.
    std::vector<Handle> order;
    order.reserve(index_.size());
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      order.push_back(index_.handle(it));
    }
    std::stable_sort(order.begin(), order.end(), [this](Handle a, Handle b) {
      return index_.entry(a).stamp < index_.entry(b).stamp;
    });
    for (const Handle h : order) append(h);
  }

  /// The index itself, for what only one kind offers (storage_bytes).
  [[nodiscard]] const Index& index() const { return index_; }

 private:
  using Handle = typename Index::Handle;
  static constexpr Handle kNil = Index::kNil;

  void restamp(Handle h, std::uint64_t stamp) {
    index_.entry(h).stamp = stamp;
    append(h);
  }

  void append(Handle h) {
    Entry& e = index_.entry(h);
    e.older = newest_;
    e.newer = kNil;
    (newest_ != kNil ? index_.entry(newest_).newer : oldest_) = h;
    newest_ = h;
  }

  void unlink(Handle h) {
    Entry& e = index_.entry(h);
    (e.older != kNil ? index_.entry(e.older).newer : oldest_) = e.newer;
    (e.newer != kNil ? index_.entry(e.newer).older : newest_) = e.older;
    e.older = e.newer = kNil;
  }

  /// A linked entry moved to `to`: repoint its neighbours.
  void relocate(Handle to) {
    const Entry& e = index_.entry(to);
    (e.older != kNil ? index_.entry(e.older).newer : oldest_) = to;
    (e.newer != kNil ? index_.entry(e.newer).older : newest_) = to;
  }

  /// Thread this table's entries in `other`'s eviction order.
  void relink(const LruTable& other) {
    oldest_ = newest_ = kNil;
    for (Handle h = other.oldest_; h != kNil;
         h = other.index_.entry(h).newer) {
      append(index_.counterpart(other.index_, h));
    }
  }

  Index index_;
  Handle oldest_ = kNil;
  Handle newest_ = kNil;
};

template <class Key, class Value>
using LruMap = LruTable<OrderedIndex<Key, Value>>;
template <class Key, class Value>
using LruFlatMap = LruTable<FlatIndex<Key, Value>>;

}  // namespace argus
