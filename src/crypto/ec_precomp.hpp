// Per-key precomputed tables for the verification hot path.
//
//   - EcPrecomp: a per-point 4-bit window table (1P..15P) in
//     affine-Montgomery form at the curve's field width, for public keys
//     that are verified against repeatedly (the admin key on every
//     cert/profile, an object's static key on every handshake).
//   - EcPrecompCache: a process-wide LRU of EcPrecomp tables keyed by
//     (group, point), so ecdsa_verify hits it with zero call-site churn.
//   - shamir_verify_x: fused u1*G + u2*Q with one shared doubling chain
//     (the comb covers u1*G) and the ECDSA x-coordinate check done
//     projectively (no field inversion).
//
// The arithmetic lives in EcGroupT (ec_typed.hpp); everything here is a
// bit-for-bit drop-in for the reference algorithms in ec.cpp (affine
// results are unique, so any correct algorithm yields identical bytes).
// Which routes mask their table reads is listed in ec_typed.hpp: window
// tables read through the masked ct_select, although the scalars that
// reach them (verification's u2) are public.
#pragma once

#include <array>
#include <cstdint>
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

/// Per-point window table: multiples 1P..15P in affine-Montgomery form,
/// stored at the curve's field width. Precondition: p is on the curve (or
/// the identity, which yields an empty table and identity results).
class EcPrecomp {
 public:
  static constexpr std::size_t kTableSize = kWindowTableSize;

  EcPrecomp(const EcGroup& g, const EcPoint& p);

  [[nodiscard]] const EcGroup& group() const { return *g_; }
  [[nodiscard]] const EcPoint& point() const { return p_; }
  [[nodiscard]] bool is_identity_point() const { return p_.infinity; }

  /// The table at width N (the group's field width); empty for the
  /// identity. Entry v - 1 holds vP. EcGroupT::window_mul reads it
  /// through the masked ct_select.
  template <std::size_t N>
  [[nodiscard]] std::span<const AffMT<N>> table() const {
    return std::get<std::vector<AffMT<N>>>(tab_);
  }

  /// k * P, bit-identical to g.scalar_mul(P, k).
  [[nodiscard]] EcPoint mul(const UInt& k) const;

 private:
  const EcGroup* g_;
  EcPoint p_;
  std::variant<std::vector<AffMT<4>>, std::vector<AffMT<6>>,
               std::vector<AffMT<9>>>
      tab_;
};

/// Process-wide LRU cache of per-point tables, keyed by (group, x, y).
/// Thread-safe; entries are shared_ptr so an eviction never invalidates a
/// table another thread is still multiplying against.
class EcPrecompCache {
 public:
  explicit EcPrecompCache(std::size_t capacity = 256);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
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

  mutable std::mutex mu_;
  std::size_t capacity_;
  Stats stats_;
  LruMap<Key, std::shared_ptr<const EcPrecomp>> map_;
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
