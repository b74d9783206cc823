// Precomputed-table scalar multiplication for the handshake hot path.
//
// Four building blocks, all bit-for-bit drop-ins for the reference
// algorithms in ec.cpp (affine results are unique, so any correct
// algorithm yields identical bytes):
//
//   - EcFixedBaseTable: an 8-bit comb table for the generator. Every
//     scalar_mul_base collapses to <= ceil(bits/8) mixed additions and
//     zero doublings.
//   - EcPrecomp: a per-point 4-bit window table in affine-Montgomery
//     form, for public keys that are verified against repeatedly (the
//     admin key on every cert/profile, an object's static key on every
//     handshake).
//   - EcPrecompCache: a process-wide LRU of EcPrecomp tables keyed by
//     (group, point), so ecdsa_verify hits it with zero call-site churn.
//   - shamir_verify_x / msm: fused double-scalar (and multi-scalar)
//     multiplication with one shared doubling chain, plus the ECDSA
//     x-coordinate check done projectively (no field inversion).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/lru_table.hpp"
#include "crypto/ec.hpp"

namespace argus::crypto {

/// Comb table for the generator: entry (j, v) holds v * 2^(8j) * G in
/// affine-Montgomery form, for j in [0, windows) and v in [1, 255].
/// Entries are never the identity: n is an odd prime far larger than 255,
/// so n can never divide v * 2^(8j).
struct EcFixedBaseTable {
  static constexpr std::size_t kWindowBits = 8;
  static constexpr std::size_t kEntriesPerWindow = 255;

  std::size_t windows = 0;
  std::vector<EcGroup::AffM> entries;  // windows * 255, row-major

  [[nodiscard]] const EcGroup::AffM& entry(std::size_t window,
                                           std::size_t v) const {
    return entries[window * kEntriesPerWindow + (v - 1)];
  }
  [[nodiscard]] std::size_t bytes() const {
    return entries.size() * sizeof(EcGroup::AffM);
  }
};

/// Build the comb table for `g`'s generator (one-time, per group; EcGroup
/// caches the result behind fixed_base_table()).
[[nodiscard]] EcFixedBaseTable build_fixed_base_table(const EcGroup& g);

/// k * G via the comb table; bit-identical to scalar_mul(G, k).
[[nodiscard]] EcPoint fixed_base_mul(const EcGroup& g, const UInt& k);
/// Jacobian-accumulator variant for callers folding the result into a
/// larger sum. `kr` must already be reduced below n.
[[nodiscard]] EcGroup::Jacobian fixed_base_mul_jac(const EcGroup& g,
                                                   const UInt& kr);
/// Fold kr * G into an existing accumulator via pure mixed additions.
void fold_fixed_base(const EcGroup& g, EcGroup::Jacobian& acc, const UInt& kr);

/// Per-point window table: multiples 1P..15P in affine-Montgomery form.
/// Precondition: p is on the curve (or the identity, which yields an
/// empty table and identity results).
class EcPrecomp {
 public:
  static constexpr std::size_t kWindowBits = 4;
  static constexpr std::size_t kTableSize = 15;

  EcPrecomp(const EcGroup& g, const EcPoint& p);

  [[nodiscard]] const EcGroup& group() const { return *g_; }
  [[nodiscard]] const EcPoint& point() const { return p_; }
  [[nodiscard]] bool is_identity_point() const { return p_.infinity; }
  [[nodiscard]] const EcGroup::AffM& entry(std::size_t v) const {
    return tab_[v - 1];
  }
  /// Constant-time variant of entry(): reads the active field words of
  /// every table slot, in the same order, and keeps `v`'s under a
  /// branch-free mask, so the memory access pattern depends on the curve
  /// (public) but not on `v`. mul_jac() uses it because its window
  /// nibbles can come from secret scalars (ECDH, signing nonces); that
  /// includes shamir_verify_x, which runs its u2*Q term through mul_jac
  /// even though verification scalars are public. Only msm keeps the
  /// direct lookup.
  [[nodiscard]] EcGroup::AffM entry_ct(std::size_t v) const;

  /// k * P, bit-identical to g.scalar_mul(P, k).
  [[nodiscard]] EcPoint mul(const UInt& k) const;
  /// Jacobian-accumulator variant; `kr` must be reduced below n.
  [[nodiscard]] EcGroup::Jacobian mul_jac(const UInt& kr) const;

 private:
  const EcGroup* g_;
  EcPoint p_;
  std::vector<EcGroup::AffM> tab_;  // empty iff p_ is the identity
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

/// One term of a multi-scalar multiplication: k * (tab's point), with k
/// already reduced below n.
struct MsmTerm {
  const EcPrecomp* tab = nullptr;
  UInt k;
};

/// Straus interleaving: sum of k_i * P_i with one shared doubling chain.
[[nodiscard]] EcGroup::Jacobian msm(const EcGroup& g,
                                    const std::vector<MsmTerm>& terms);

/// Single-shot k * P in Jacobian form (no table worth caching, no affine
/// normalisation) — for the short batch-verification coefficients.
[[nodiscard]] EcGroup::Jacobian scalar_mul_jac(const EcGroup& g,
                                               const EcPoint& p,
                                               const UInt& kr);

}  // namespace argus::crypto
