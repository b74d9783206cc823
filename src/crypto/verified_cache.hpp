// Verified-credential cache: an LRU set of admin-signature checks that
// passed.
//
// Certificates and profiles are static bytes the admin signed once, yet
// every re-discovery presents them again, and each ECDSA verify is the
// most expensive operation of a handshake. An engine keeps one of these
// and asks it before re-running a check it has already seen succeed.
//
// The key is SHA-256 over the signer's encoded public key, the exact
// signed bytes and the signature bytes, each length-prefixed. Every
// input of the verdict is in the key, so a hit can only ever stand for
// the verdict ecdsa_verify would return: a changed body, a mutated
// signature or another admin key is a different key and misses. Only
// successful checks are stored; a failure is never remembered and so is
// re-checked in full on every presentation. Anything that is not a pure
// function of those bytes (validity windows, revocation, identity
// binding) stays with the caller and runs on every use.
//
// Not thread-safe: each engine owns its instance. An engine that never
// verifies pays one pointer and two counters: the table is allocated on
// the first insert and never exceeds kCapacity entries.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <variant>

#include "common/lru_table.hpp"
#include "crypto/ec.hpp"

namespace argus::crypto {

class VerifiedCache {
 public:
  /// Fixed bound on remembered checks. An engine sees two admin-signed
  /// credentials per peer, so this covers a 2048-peer working set.
  static constexpr std::size_t kCapacity = 4096;

  using Key = std::array<std::uint8_t, 32>;

  /// Cache key of one signature check by `signer` over `signed_bytes`.
  [[nodiscard]] static Key key(const EcGroup& group, const EcPoint& signer,
                               ByteSpan signed_bytes, ByteSpan signature);

  /// True if `key` passed before; the entry becomes the most recent.
  /// Counts one hit or one miss.
  bool contains(const Key& key);
  /// Remember a check that passed, evicting the least recently used
  /// entry beyond kCapacity.
  void insert(const Key& key);

  /// `verify()` runs only on a miss; a passing check is remembered.
  template <class Verify>
  bool check(const Key& key, Verify&& verify) {
    if (contains(key)) return true;
    if (!verify()) return false;
    insert(key);
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    return table_ ? table_->size() : 0;
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h;  // the key is a digest: any slice is uniform
      std::memcpy(&h, k.data(), sizeof(h));
      return h;
    }
  };

  using Table = LruHashMap<Key, std::monostate, KeyHash>;

  std::unique_ptr<Table> table_;
  std::uint64_t clock_ = 0;  // recency stamps
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace argus::crypto
