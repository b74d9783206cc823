// Per-key precomputed tables for the verification hot path.
//
//   - EcPrecomp: a per-point comb table of 4-bit windows in
//     affine-Montgomery form at the curve's field width, for public keys
//     that are verified against repeatedly (the admin key on every
//     cert/profile, an object's static key on every handshake). One block
//     (1P..15P) is the plain window table; kPromotedBlocks blocks cut the
//     doubling chain of a multiply by that factor.
//   - EcPrecompCache: a process-wide LRU of EcPrecomp tables keyed by
//     (group, point), so ecdsa_verify hits it with zero call-site churn. A
//     first-seen key gets one block; a key that comes back is promoted.
//   - shamir_verify_x: fused u1*G + u2*Q with one shared doubling chain
//     (the comb covers u1*G) and the ECDSA x-coordinate check done
//     projectively (no field inversion).
//
// The arithmetic lives in EcGroupT (ec_typed.hpp); everything here is a
// bit-for-bit drop-in for the reference algorithms in ec.cpp (affine
// results are unique, so any correct algorithm yields identical bytes).
// Which routes mask their table reads is listed in ec_typed.hpp: per-key
// tables read through the masked ct_select, although the scalars that
// reach them (verification's u2) are public.
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <variant>
#include <vector>

#include "common/lru_table.hpp"
#include "crypto/ec.hpp"
#include "crypto/ec_typed.hpp"

namespace argus::crypto {

/// k * G via the comb table; bit-identical to scalar_mul(G, k).
[[nodiscard]] EcPoint fixed_base_mul(const EcGroup& g, const UInt& k);

/// Comb blocks in a promoted per-key table. At P-256 four blocks take a
/// verify's u2 * Q from 252 doublings to 60, which about halves
/// shamir_verify_x (108-156 -> 60-82 us on a shared 2.0 GHz Xeon VM) for
/// 60 entries, 3840 bytes per key; eight blocks would save 32 more
/// doublings (4-21 us) for twice the bytes and ~1.5x the build.
inline constexpr std::size_t kPromotedBlocks = 4;

/// Per-point comb table: blocks() blocks of 15 multiples each, in
/// affine-Montgomery form, stored at the curve's field width.
/// Precondition: p is on the curve (or the identity, which yields empty
/// tables and identity results).
class EcPrecomp {
 public:
  static constexpr std::size_t kTableSize = kWindowTableSize;

  EcPrecomp(const EcGroup& g, const EcPoint& p, std::size_t blocks = 1);

  [[nodiscard]] const EcGroup& group() const { return *g_; }
  [[nodiscard]] const EcPoint& point() const { return p_; }
  [[nodiscard]] bool is_identity_point() const { return p_.infinity; }
  [[nodiscard]] std::size_t blocks() const { return blocks_; }

  /// Every block at width N (the group's field width), in
  /// EcGroupT::key_table's layout, as EcGroupT::key_mul reads it through
  /// the masked ct_select; empty for the identity.
  template <std::size_t N>
  [[nodiscard]] std::span<const AffMT<N>> comb() const {
    return std::get<std::vector<AffMT<N>>>(tab_);
  }

  /// k * P, bit-identical to g.scalar_mul(P, k).
  [[nodiscard]] EcPoint mul(const UInt& k) const;

 private:
  const EcGroup* g_;
  EcPoint p_;
  std::size_t blocks_;
  std::variant<std::vector<AffMT<4>>, std::vector<AffMT<6>>,
               std::vector<AffMT<9>>>
      tab_;
};

/// Process-wide LRU cache of per-point tables, keyed by (group, x, y).
/// A miss inserts a one-block table; the kPromoteOnHit-th hit on an entry
/// swaps in a kPromotedBlocks table. Promotion never changes a hit, miss
/// or eviction. Thread-safe; entries are shared_ptr so an eviction or a
/// promotion never invalidates a table another thread is still
/// multiplying against. Tables are built outside the mutex: the slot is
/// claimed under it, built without it, and the table swapped in under it
/// again, so a P-521 promotion (0.7-1.6 ms) stalls no other key's
/// verifier. A thread that hits a slot whose first table is still being
/// built waits for that build; a hit during a promotion uses the
/// one-block table. No key is built twice per residency.
class EcPrecompCache {
 public:
  /// A promotion costs about two promoted verifies' savings at P-256
  /// (build 100-150 us, saving 50-75 us per verify), so it waits for a
  /// key's second hit: a key seen three times is a repeat signer, and a
  /// key that a scan over more keys than the cache holds evicts between
  /// uses never pays for a build it cannot earn back.
  static constexpr std::uint32_t kPromoteOnHit = 2;

  explicit EcPrecompCache(std::size_t capacity = 256);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t promotions = 0;
  };

  [[nodiscard]] std::shared_ptr<const EcPrecomp> get(const EcGroup& g,
                                                     const EcPoint& p);
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// The instance ecdsa_verify consults when the precomp_cache fast path
  /// is enabled.
  static EcPrecompCache& global();

 private:
  using Coord = std::array<std::uint64_t, kMaxWords>;
  using Key = std::tuple<const EcGroup*, Coord, Coord>;

  using Table = std::shared_ptr<const EcPrecomp>;

  struct Slot {
    Table tab;                        // null until the first build lands
    std::shared_future<Table> first;  // that build, until a table lands
    std::uint32_t hits = 0;           // counted up to kPromoteOnHit
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  Stats stats_;
  LruMap<Key, Slot> map_;
  std::uint64_t clock_ = 0;  // recency stamps
};

/// Shamir's trick + projective x-check: does x(u1*G + u2*Q) reduce to r
/// mod n? Exactly the reference ECDSA epilogue — including the
/// sum-at-infinity reject and both x candidates {r, r+n} — but with one
/// shared doubling chain and no field inversion. Scalars are reduced
/// internally.
[[nodiscard]] bool shamir_verify_x(const EcGroup& g, const EcPrecomp& qtab,
                                   const UInt& u1, const UInt& u2,
                                   const UInt& r);

}  // namespace argus::crypto
