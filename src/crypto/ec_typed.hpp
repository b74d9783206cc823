// Width-typed point arithmetic: EcGroupT<F> is the curve code every
// public EcGroup call dispatches to, templated over its field type F
// (field.hpp). Coordinates are Fe<F::kWords> in Montgomery form, so every
// field operation inlines into the point formulas and every stored table
// entry is the size of its field: a P-256 AffMT is 64 bytes.
//
// Points are Jacobian (JacT, z == 0 is the identity) or affine-Montgomery
// (AffMT, never the identity; the storage format of every precomputed
// table, because mixed addition skips all Z2 work).
//
// Which routes touch secret-indexed memory:
//
//   - scalar_mul_ct (ECDH's private scalar, EcGroup::scalar_mul): a
//     signed odd-digit 5-bit window. Every digit is nonzero, so the
//     add/double sequence depends only on the curve, and each table read
//     is a masked sweep of all 16 entries (ct_select).
//   - key_mul (per-key comb tables, EcPrecomp): masked table reads, but
//     a zero nibble skips its addition. It serves verification, whose
//     scalars (u2 = r/s mod n) are public.
//   - the comb (fixed-base, signing nonces and keygen through
//     EcGroup::scalar_mul_base): direct-indexed entry(j, v) reads and a
//     skip on zero bytes. It is not masked.
//
// The point formulas keep their exceptional-case branches (an operand at
// infinity, P + P, P + (-P)); scalar_mul_ct reaches them only for the
// handful of scalars within 62 of 0 or n.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "crypto/ec.hpp"
#include "crypto/field.hpp"
#include "obs/prof.hpp"

namespace argus::crypto {

template <std::size_t N>
struct JacT {
  Fe<N> x, y, z;
};

template <std::size_t N>
struct AffMT {
  Fe<N> x, y;
};

/// A per-key table is `blocks` comb blocks of 4-bit windows: block j
/// holds v * 2^(s*j) * P for v in [1, 15], where s is the block span
/// (EcGroupT::key_block_nibbles). One block is the plain window table.
inline constexpr std::size_t kWindowTableSize = 15;

/// Comb table for the generator: entry (j, v) holds v * 2^(8j) * G in
/// affine-Montgomery form, for j in [0, windows) and v in [1, 255].
/// Entries are never the identity: n is an odd prime far larger than 255,
/// so n can never divide v * 2^(8j).
template <std::size_t N>
struct CombTable {
  static constexpr std::size_t kEntriesPerWindow = 255;

  std::size_t windows = 0;
  std::vector<AffMT<N>> entries;  // windows * 255, row-major

  [[nodiscard]] const AffMT<N>& entry(std::size_t window,
                                      std::size_t v) const {
    return entries[window * kEntriesPerWindow + (v - 1)];
  }
  [[nodiscard]] std::size_t bytes() const {
    return entries.size() * sizeof(AffMT<N>);
  }
};

/// tab[idx] by a masked sweep: every entry's words are read, in the same
/// order, and idx's are kept under a branch-free all-ones mask, so the
/// memory access pattern depends on the table size but not on idx.
template <class T>
T ct_select(std::span<const T> tab, std::size_t idx) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  constexpr std::size_t kWords = sizeof(T) / 8;
  std::uint64_t out[kWords] = {};
  const std::uint64_t target = idx;
  for (std::size_t e = 0; e < tab.size(); ++e) {
    const std::uint64_t diff = static_cast<std::uint64_t>(e) ^ target;
    std::uint64_t mask = ((diff | (0 - diff)) >> 63) - 1;  // e == idx
    // Hide the mask's provenance so the compiler cannot turn the sweep
    // back into a branch on idx.
    __asm__("" : "+r"(mask));
    std::uint64_t words[kWords];
    std::memcpy(words, &tab[e], sizeof(T));
    for (std::size_t i = 0; i < kWords; ++i) out[i] |= words[i] & mask;
  }
  T r;
  std::memcpy(&r, out, sizeof(T));
  return r;
}

template <class F>
class EcGroupT {
 public:
  static constexpr std::size_t N = F::kWords;
  using Elem = Fe<N>;
  using Jac = JacT<N>;
  using Aff = AffMT<N>;

  explicit EcGroupT(const CurveParams& cp)
      : cp_(cp),
        fp_(cp.p),
        a_m_(fp_.to_mont(cp.a)),
        b_m_(fp_.to_mont(cp.b)),
        a_is_minus3_(cp.a == crypto::sub(cp.p, UInt::from_u64(3))) {}
  EcGroupT(const EcGroupT&) = delete;
  EcGroupT& operator=(const EcGroupT&) = delete;

  [[nodiscard]] const CurveParams& params() const { return cp_; }
  [[nodiscard]] const F& field() const { return fp_; }

  [[nodiscard]] Jac identity() const {
    return Jac{fp_.one(), fp_.one(), Elem{}};
  }
  [[nodiscard]] static bool is_identity(const Jac& p) {
    return fe::is_zero(p.z);
  }
  [[nodiscard]] Jac to_jac(const EcPoint& pt) const {
    if (pt.infinity) return identity();
    return Jac{fp_.to_mont(pt.x), fp_.to_mont(pt.y), fp_.one()};
  }
  [[nodiscard]] EcPoint to_affine(const Jac& p) const;
  [[nodiscard]] bool on_curve(const EcPoint& pt) const;

  /// Doubling: the a = -3 formula when enabled (it yields the same
  /// Jacobian representative as the general one, so bit-identical).
  [[nodiscard]] Jac jdbl(const Jac& p) const;
  /// The general-a dbl-2007-bl formula.
  [[nodiscard]] Jac jdbl_generic(const Jac& p) const;
  [[nodiscard]] Jac jadd(const Jac& p, const Jac& q) const;
  /// Mixed addition P + Q with Q affine (madd, Z2 = 1): the same Jacobian
  /// representative as jadd on the Z2 = 1 operand, about 40% cheaper.
  [[nodiscard]] Jac jadd_mixed(const Jac& p, const Aff& q) const;
  /// Non-identity points to affine-Montgomery with one field inversion.
  [[nodiscard]] std::vector<Aff> normalize(const std::vector<Jac>& pts) const;

  /// kr * P for 0 < kr < n and P not the identity, by the masked signed
  /// odd-digit ladder (see the header comment).
  [[nodiscard]] Jac scalar_mul_ct(const EcPoint& p, const UInt& kr) const;

  /// The generator's comb table, built once on first use (thread-safe).
  [[nodiscard]] const CombTable<N>& comb() const;
  /// acc += kr * G by pure comb mixed additions; kr reduced below n.
  void fold_comb(Jac& acc, const UInt& kr) const;

  /// Nibbles each of `blocks` per-key comb blocks spans:
  /// ceil(bits(n) / (4 * blocks)), so the blocks cover every scalar below n.
  [[nodiscard]] std::size_t key_block_nibbles(std::size_t blocks) const {
    return (cp_.n.bit_length() + 4 * blocks - 1) / (4 * blocks);
  }
  /// P's per-key table of `blocks` comb blocks, block-major, entry
  /// j * 15 + (v - 1) holding v * 2^(s*j) * P; empty for the identity.
  [[nodiscard]] std::vector<Aff> key_table(const EcPoint& p,
                                           std::size_t blocks) const;
  /// kr * P from P's per-key table (any block count); kr reduced below n.
  [[nodiscard]] Jac key_mul(std::span<const Aff> tab, const UInt& kr) const;

  /// Shamir's trick + projective x-check: does x(u1*G + u2*Q) reduce to r
  /// mod n? Both candidates {r, r+n} are tried, the identity is rejected,
  /// and no field inversion runs. u1, u2 reduced below n.
  [[nodiscard]] bool shamir_verify_x(std::span<const Aff> qtab, const UInt& u1,
                                     const UInt& u2, const UInt& r) const;

 private:
  const CurveParams& cp_;
  F fp_;
  Elem a_m_;  // curve a in Montgomery form
  Elem b_m_;
  bool a_is_minus3_;
  mutable std::once_flag comb_once_;
  mutable std::unique_ptr<CombTable<N>> comb_;
};

namespace ec_detail {

// Byte `j` of a reduced scalar (8-bit comb windows never straddle words).
inline std::size_t scalar_byte(const UInt& k, std::size_t j) {
  return (k.w[j / 8] >> ((j % 8) * 8)) & 0xff;
}

// Nibble `i` of a scalar.
inline std::size_t scalar_nibble(const UInt& k, std::size_t i) {
  return (k.w[i / 16] >> ((i % 16) * 4)) & 0xf;
}

// Bits [pos, pos + 6) of k.
inline std::uint64_t scalar_bits6(const UInt& k, std::size_t pos) {
  const std::size_t q = pos / 64;
  const std::size_t r = pos % 64;
  std::uint64_t v = k.w[q] >> r;
  if (r > 58 && q + 1 < kMaxWords) v |= k.w[q + 1] << (64 - r);
  return v & 0x3f;
}

}  // namespace ec_detail

template <class F>
EcPoint EcGroupT<F>::to_affine(const Jac& p) const {
  if (is_identity(p)) return EcPoint::identity();
  const Elem zinv = fp_.inv(p.z);
  const Elem zinv2 = fp_.sqr(zinv);
  const Elem zinv3 = fp_.mul(zinv2, zinv);
  return EcPoint{fp_.from_mont(fp_.mul(p.x, zinv2)),
                 fp_.from_mont(fp_.mul(p.y, zinv3)), false};
}

template <class F>
bool EcGroupT<F>::on_curve(const EcPoint& pt) const {
  if (pt.infinity) return true;
  if (cmp(pt.x, cp_.p) >= 0 || cmp(pt.y, cp_.p) >= 0) return false;
  const Elem x = fp_.to_mont(pt.x);
  const Elem y = fp_.to_mont(pt.y);
  Elem rhs = fp_.mul(fp_.sqr(x), x);
  rhs = fp_.add(rhs, fp_.mul(a_m_, x));
  rhs = fp_.add(rhs, b_m_);
  return fp_.sqr(y) == rhs;
}

// The a = -3 specialisation (dbl-2001-b) computes the *same Jacobian
// representative* as the general formula — S = 4XY^2 = 4B,
// M = 3X^2 + aZ^4 = 3(X - Z^2)(X + Z^2) = alpha, and Z3 is the identical
// expression — so switching it on cannot perturb any downstream bytes.
template <class F>
auto EcGroupT<F>::jdbl(const Jac& p) const -> Jac {
  if (!a_is_minus3_ || !ec_fast_paths().fast_double) return jdbl_generic(p);
  if (is_identity(p) || fe::is_zero(p.y)) return identity();
  const Elem delta = fp_.sqr(p.z);
  const Elem gamma = fp_.sqr(p.y);
  const Elem beta = fp_.mul(p.x, gamma);
  // alpha = 3*(X - delta)*(X + delta)
  Elem alpha = fp_.mul(fp_.sub(p.x, delta), fp_.add(p.x, delta));
  alpha = fp_.add(fp_.add(alpha, alpha), alpha);
  const Elem b4 = fp_.add(fp_.add(beta, beta), fp_.add(beta, beta));
  Jac r;
  // X3 = alpha^2 - 8*beta
  r.x = fp_.sub(fp_.sqr(alpha), fp_.add(b4, b4));
  // Z3 = (Y + Z)^2 - gamma - delta
  r.z = fp_.sub(fp_.sub(fp_.sqr(fp_.add(p.y, p.z)), gamma), delta);
  // Y3 = alpha*(4*beta - X3) - 8*gamma^2
  Elem g8 = fp_.sqr(gamma);
  g8 = fp_.add(g8, g8);
  g8 = fp_.add(g8, g8);
  g8 = fp_.add(g8, g8);
  r.y = fp_.sub(fp_.mul(alpha, fp_.sub(b4, r.x)), g8);
  return r;
}

// dbl-2007-bl (general a).
template <class F>
auto EcGroupT<F>::jdbl_generic(const Jac& p) const -> Jac {
  if (is_identity(p) || fe::is_zero(p.y)) return identity();
  const Elem xx = fp_.sqr(p.x);
  const Elem yy = fp_.sqr(p.y);
  const Elem yyyy = fp_.sqr(yy);
  const Elem zz = fp_.sqr(p.z);
  // S = 2*((X+YY)^2 - XX - YYYY)
  Elem s = fp_.sub(fp_.sub(fp_.sqr(fp_.add(p.x, yy)), xx), yyyy);
  s = fp_.add(s, s);
  // M = 3*XX + a*ZZ^2
  Elem m = fp_.add(fp_.add(xx, xx), xx);
  m = fp_.add(m, fp_.mul(a_m_, fp_.sqr(zz)));
  // T = M^2 - 2*S
  const Elem t = fp_.sub(fp_.sub(fp_.sqr(m), s), s);
  Jac r;
  r.x = t;
  // Y3 = M*(S - T) - 8*YYYY
  Elem y8 = fp_.add(yyyy, yyyy);
  y8 = fp_.add(y8, y8);
  y8 = fp_.add(y8, y8);
  r.y = fp_.sub(fp_.mul(m, fp_.sub(s, t)), y8);
  // Z3 = (Y+Z)^2 - YY - ZZ
  r.z = fp_.sub(fp_.sub(fp_.sqr(fp_.add(p.y, p.z)), yy), zz);
  return r;
}

// add-2007-bl.
template <class F>
auto EcGroupT<F>::jadd(const Jac& p, const Jac& q) const -> Jac {
  if (is_identity(p)) return q;
  if (is_identity(q)) return p;
  const Elem z1z1 = fp_.sqr(p.z);
  const Elem z2z2 = fp_.sqr(q.z);
  const Elem u1 = fp_.mul(p.x, z2z2);
  const Elem u2 = fp_.mul(q.x, z1z1);
  const Elem s1 = fp_.mul(p.y, fp_.mul(q.z, z2z2));
  const Elem s2 = fp_.mul(q.y, fp_.mul(p.z, z1z1));
  if (u1 == u2) {
    if (s1 == s2) return jdbl(p);
    return identity();  // P + (-P)
  }
  const Elem h = fp_.sub(u2, u1);
  const Elem i = fp_.sqr(fp_.add(h, h));
  const Elem j = fp_.mul(h, i);
  Elem r0 = fp_.sub(s2, s1);
  r0 = fp_.add(r0, r0);
  const Elem v = fp_.mul(u1, i);
  Jac r;
  // X3 = r^2 - J - 2*V
  r.x = fp_.sub(fp_.sub(fp_.sqr(r0), j), fp_.add(v, v));
  // Y3 = r*(V - X3) - 2*S1*J
  Elem s1j = fp_.mul(s1, j);
  s1j = fp_.add(s1j, s1j);
  r.y = fp_.sub(fp_.mul(r0, fp_.sub(v, r.x)), s1j);
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
  const Elem z3 = fp_.sub(fp_.sub(fp_.sqr(fp_.add(p.z, q.z)), z1z1), z2z2);
  r.z = fp_.mul(z3, h);
  return r;
}

// madd (add-2007-bl with Z2 = 1). With Z2 = 1 the general formula's
// Z3 = ((Z1+Z2)^2 - Z1^2 - 1)*H collapses to 2*Z1*H — the same field
// element — and every other intermediate is unchanged, so this produces
// the bit-identical representative jadd would.
template <class F>
auto EcGroupT<F>::jadd_mixed(const Jac& p, const Aff& q) const -> Jac {
  if (is_identity(p)) return Jac{q.x, q.y, fp_.one()};
  const Elem z1z1 = fp_.sqr(p.z);
  const Elem u2 = fp_.mul(q.x, z1z1);
  const Elem s2 = fp_.mul(q.y, fp_.mul(p.z, z1z1));
  if (p.x == u2) {
    if (p.y == s2) return jdbl(p);
    return identity();  // P + (-P)
  }
  const Elem h = fp_.sub(u2, p.x);
  const Elem i = fp_.sqr(fp_.add(h, h));
  const Elem j = fp_.mul(h, i);
  Elem r0 = fp_.sub(s2, p.y);
  r0 = fp_.add(r0, r0);
  const Elem v = fp_.mul(p.x, i);
  Jac r;
  r.x = fp_.sub(fp_.sub(fp_.sqr(r0), j), fp_.add(v, v));
  Elem s1j = fp_.mul(p.y, j);
  s1j = fp_.add(s1j, s1j);
  r.y = fp_.sub(fp_.mul(r0, fp_.sub(v, r.x)), s1j);
  const Elem z3 = fp_.mul(p.z, h);
  r.z = fp_.add(z3, z3);
  return r;
}

// Montgomery's trick on the Z's: prefix products, one inversion, then
// unwind.
template <class F>
auto EcGroupT<F>::normalize(
    const std::vector<Jac>& pts) const -> std::vector<Aff> {
  std::vector<Aff> out(pts.size());
  if (pts.empty()) return out;
  std::vector<Elem> pfx(pts.size());
  pfx[0] = pts[0].z;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    pfx[i] = fp_.mul(pfx[i - 1], pts[i].z);
  }
  Elem acc = fp_.inv(pfx.back());
  for (std::size_t i = pts.size(); i-- > 0;) {
    const Elem zinv = i == 0 ? acc : fp_.mul(acc, pfx[i - 1]);
    if (i != 0) acc = fp_.mul(acc, pts[i].z);
    const Elem zi2 = fp_.sqr(zinv);
    out[i] = Aff{fp_.mul(pts[i].x, zi2), fp_.mul(pts[i].y, fp_.mul(zi2, zinv))};
  }
  return out;
}

// Signed odd-digit 5-bit window (Joye–Tunstall regular recoding). An odd
// k is k = sum d_i 32^i with every d_i odd in [-31, 31]: for k_0 = k and
// k_{i+1} = (k_i - d_i) / 32, the digit d_i = (k_i mod 64) - 32 makes
// k_{i+1} = (k >> 5(i+1)) | 1, so d_i = ((bits [5i, 5i+6) of k) | 1) - 32
// and the top digit is (k >> 5(D-1)) | 1, positive. An even kr becomes
// kr + n (odd, same point), so D = ceil((bits(n) + 1) / 5) digits cover
// every scalar and the loop is the same for all of them: 5(D-1)
// doublings and D-1 additions of a masked, conditionally negated entry
// of the table 1P, 3P, ..., 31P.
template <class F>
auto EcGroupT<F>::scalar_mul_ct(const EcPoint& p,
                                           const UInt& kr) const -> Jac {
  constexpr std::size_t kTable = 16;
  Jac tab[kTable];
  tab[0] = to_jac(p);
  const Jac p2 = jdbl(tab[0]);
  for (std::size_t i = 1; i < kTable; ++i) tab[i] = jadd(tab[i - 1], p2);
  const std::span<const Jac> table(tab, kTable);

  const UInt& n = cp_.n;
  const std::uint64_t even = (kr.w[0] & 1) - 1;  // all-ones when kr is even
  UInt n_masked;
  for (std::size_t j = 0; j < kMaxWords; ++j) n_masked.w[j] = n.w[j] & even;
  const UInt k = crypto::add(kr, n_masked);
  const std::size_t digits = (n.bit_length() + 1 + 4) / 5;

  const std::uint64_t top = ec_detail::scalar_bits6(k, 5 * (digits - 1)) | 1;
  Jac acc = ct_select(table, (top - 1) / 2);
  for (std::size_t i = digits - 1; i-- > 0;) {
    for (int d = 0; d < 5; ++d) acc = jdbl(acc);
    const std::uint64_t w = ec_detail::scalar_bits6(k, 5 * i) | 1;
    const std::uint64_t neg = 0 - (((w >> 5) & 1) ^ 1);  // digit < 0
    const std::uint64_t mag = ((w - 32) ^ neg) - neg;    // |digit|
    Jac t = ct_select(table, (mag - 1) / 2);
    t.y = fe::select<N>(neg, fp_.neg(t.y), t.y);
    acc = jadd(acc, t);
  }
  return acc;
}

template <class F>
auto EcGroupT<F>::comb() const -> const CombTable<N>& {
  std::call_once(comb_once_, [this] {
    ARGUS_PROF_SCOPE("crypto.ec.fixed_base_init");
    auto t = std::make_unique<CombTable<N>>();
    t->windows = (cp_.n.bit_length() + 7) / 8;
    std::vector<Jac> jac;
    jac.reserve(t->windows * CombTable<N>::kEntriesPerWindow);
    Jac base = to_jac(EcPoint{cp_.gx, cp_.gy, false});
    for (std::size_t w = 0; w < t->windows; ++w) {
      Jac cur = base;
      jac.push_back(cur);
      for (std::size_t v = 2; v <= CombTable<N>::kEntriesPerWindow; ++v) {
        cur = jadd(cur, base);
        jac.push_back(cur);
      }
      if (w + 1 < t->windows) {
        for (int d = 0; d < 8; ++d) base = jdbl(base);
      }
    }
    t->entries = normalize(jac);
    comb_ = std::move(t);
  });
  return *comb_;
}

template <class F>
void EcGroupT<F>::fold_comb(Jac& acc, const UInt& kr) const {
  const CombTable<N>& t = comb();
  for (std::size_t j = 0; j < t.windows; ++j) {
    const std::size_t v = ec_detail::scalar_byte(kr, j);
    if (v != 0) acc = jadd_mixed(acc, t.entry(j, v));
  }
}

// Block 0 is 1P..15P; block j repeats it on B_j = 2^(s*j) * P, s more
// doublings of B_{j-1}. P has prime order n, far above 15 and 2^s, so
// every entry is a distinct non-identity point and no chain degenerates.
// One normalize (one inversion) covers every block.
template <class F>
auto EcGroupT<F>::key_table(const EcPoint& p,
                            std::size_t blocks) const -> std::vector<Aff> {
  if (p.infinity) return {};
  const std::size_t span_bits = 4 * key_block_nibbles(blocks);
  std::vector<Jac> jac;
  jac.reserve(blocks * kWindowTableSize);
  Jac base = to_jac(p);
  for (std::size_t j = 0; j < blocks; ++j) {
    if (j != 0) {
      for (std::size_t d = 0; d < span_bits; ++d) base = jdbl(base);
    }
    jac.push_back(base);
    for (std::size_t v = 2; v <= kWindowTableSize; ++v) {
      jac.push_back(jadd(jac.back(), base));
    }
  }
  return normalize(jac);
}

// The comb splits kr into `blocks` chunks of w nibbles, chunk j weighted
// 2^(4wj), and walks all chunks' nibbles top down in one shared doubling
// chain: 4 doublings per step, then one masked read and mixed addition
// per block for that step's nibble of each chunk. The walk starts at the
// highest step any chunk uses, so one block is the plain 4-bit window
// method and a full-size scalar costs 4(w - 1) doublings.
template <class F>
auto EcGroupT<F>::key_mul(std::span<const Aff> tab,
                          const UInt& kr) const -> Jac {
  Jac acc = identity();
  if (kr.is_zero() || tab.empty()) return acc;
  const std::size_t blocks = tab.size() / kWindowTableSize;
  const std::size_t w = key_block_nibbles(blocks);
  const std::size_t steps = std::min(w, (kr.bit_length() + 3) / 4);
  for (std::size_t i = steps; i-- > 0;) {
    if (i != steps - 1) {
      for (int d = 0; d < 4; ++d) acc = jdbl(acc);
    }
    for (std::size_t j = 0; j < blocks; ++j) {
      const std::size_t nib = ec_detail::scalar_nibble(kr, j * w + i);
      if (nib != 0) {
        acc = jadd_mixed(acc, ct_select(tab.subspan(j * kWindowTableSize,
                                                    kWindowTableSize),
                                        nib - 1));
      }
    }
  }
  return acc;
}

template <class F>
bool EcGroupT<F>::shamir_verify_x(std::span<const Aff> qtab, const UInt& u1,
                                  const UInt& u2, const UInt& r) const {
  // u2*Q carries the (only) doubling chain; u1*G folds in as comb
  // additions with no doublings of its own.
  Jac acc = key_mul(qtab, u2);
  fold_comb(acc, u1);
  if (is_identity(acc)) return false;
  // x(acc) = X/Z^2; check candidates x in {r, r+n} (r+2n >= 2n > p by
  // Hasse, so two candidates always suffice) without inverting Z.
  const Elem zz = fp_.sqr(acc.z);
  UInt cand = r;
  for (int t = 0; t < 2; ++t) {
    if (fp_.mul(fp_.to_mont(cand), zz) == acc.x) return true;
    cand = crypto::add(cand, cp_.n);
    if (cmp(cand, cp_.p) >= 0) break;
  }
  return false;
}

// The four curves' groups are compiled once, in ec_typed.cpp.
extern template class EcGroupT<FieldP224>;
extern template class EcGroupT<FieldP256>;
#if defined(ARGUS_FIELD_ADX)
extern template class EcGroupT<FieldP224Adx>;
extern template class EcGroupT<FieldP256Adx>;
#endif
extern template class EcGroupT<FieldP384>;
extern template class EcGroupT<FieldP521>;

}  // namespace argus::crypto
