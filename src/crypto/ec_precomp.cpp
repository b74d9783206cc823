#include "crypto/ec_precomp.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/prof.hpp"

namespace argus::crypto {

namespace {

using Jac = EcGroup::Jacobian;
using AffM = EcGroup::AffM;

// Normalise a vector of non-identity Jacobian points to affine-Montgomery
// form with a single field inversion (Montgomery's trick on the Z's).
std::vector<AffM> normalize_batch(const EcGroup& g,
                                  const std::vector<Jac>& pts) {
  const MontCtx& fp = g.field();
  std::vector<UInt> zs;
  zs.reserve(pts.size());
  for (const Jac& p : pts) zs.push_back(p.z);
  fp.batch_inv(zs);
  std::vector<AffM> out;
  out.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const UInt zi2 = fp.sqr(zs[i]);
    const UInt zi3 = fp.mul(zi2, zs[i]);
    out.push_back(AffM{fp.mul(pts[i].x, zi2), fp.mul(pts[i].y, zi3)});
  }
  return out;
}

// Byte `j` of a reduced scalar (8-bit comb windows never straddle words).
std::size_t scalar_byte(const UInt& k, std::size_t j) {
  return (k.w[j / 8] >> ((j % 8) * 8)) & 0xff;
}

// Nibble `i` of a scalar, reading at most `bits` bits.
std::size_t scalar_nibble(const UInt& k, std::size_t i, std::size_t bits) {
  std::size_t nib = 0;
  for (std::size_t b = 0; b < 4; ++b) {
    const std::size_t idx = i * 4 + b;
    if (idx < bits && k.bit(idx)) nib |= 1u << b;
  }
  return nib;
}

}  // namespace

EcFixedBaseTable build_fixed_base_table(const EcGroup& g) {
  ARGUS_PROF_SCOPE("crypto.ec.fixed_base_init");
  const std::size_t bits = g.params().n.bit_length();
  EcFixedBaseTable t;
  t.windows = (bits + 7) / 8;

  std::vector<Jac> jac;
  jac.reserve(t.windows * EcFixedBaseTable::kEntriesPerWindow);
  Jac base = g.to_jacobian(g.generator());
  for (std::size_t w = 0; w < t.windows; ++w) {
    Jac cur = base;
    jac.push_back(cur);
    for (std::size_t v = 2; v <= EcFixedBaseTable::kEntriesPerWindow; ++v) {
      cur = g.jadd(cur, base);
      jac.push_back(cur);
    }
    if (w + 1 < t.windows) {
      for (int d = 0; d < 8; ++d) base = g.jdbl(base);
    }
  }
  t.entries = normalize_batch(g, jac);
  return t;
}

Jac fixed_base_mul_jac(const EcGroup& g, const UInt& kr) {
  Jac acc = g.jac_identity();
  fold_fixed_base(g, acc, kr);
  return acc;
}

void fold_fixed_base(const EcGroup& g, Jac& acc, const UInt& kr) {
  const EcFixedBaseTable& t = g.fixed_base_table();
  for (std::size_t j = 0; j < t.windows; ++j) {
    const std::size_t v = scalar_byte(kr, j);
    if (v != 0) acc = g.jadd_mixed(acc, t.entry(j, v));
  }
}

EcPoint fixed_base_mul(const EcGroup& g, const UInt& k) {
  const UInt kr = mod(k, g.params().n);
  if (kr.is_zero()) return EcPoint::identity();
  return g.to_affine(fixed_base_mul_jac(g, kr));
}

EcPrecomp::EcPrecomp(const EcGroup& g, const EcPoint& p) : g_(&g), p_(p) {
  if (p_.infinity) return;
  // 1P..15P: all distinct and non-identity (the group order is prime and
  // far above 15), so the Jacobian chain never degenerates.
  std::vector<Jac> jac;
  jac.reserve(kTableSize);
  const Jac base = g.to_jacobian(p_);
  jac.push_back(base);
  for (std::size_t v = 2; v <= kTableSize; ++v) {
    jac.push_back(g.jadd(jac.back(), base));
  }
  tab_ = normalize_batch(g, jac);
}

EcGroup::AffM EcPrecomp::entry_ct(std::size_t v) const {
  // Branch-free select: sweep the whole table and OR in the matching
  // entry under an all-ones/all-zeros mask. Every call touches the same
  // words of all 15 entries in the same order regardless of v, so a
  // cache-timing observer learns nothing about the window nibble. Only
  // the field's active words are swept: every coordinate is < p, so the
  // words above nwords() are zero in all entries, and the width is public.
  AffM out{};
  const std::size_t nw = g_->field().nwords();
  const std::uint64_t target = static_cast<std::uint64_t>(v - 1);
  for (std::size_t e = 0; e < tab_.size(); ++e) {
    const std::uint64_t diff = static_cast<std::uint64_t>(e) ^ target;
    const std::uint64_t nonzero = (diff | (0 - diff)) >> 63;
    const std::uint64_t mask = nonzero - 1;  // all-ones iff e == v-1
    for (std::size_t i = 0; i < nw; ++i) {
      out.x.w[i] |= tab_[e].x.w[i] & mask;
      out.y.w[i] |= tab_[e].y.w[i] & mask;
    }
  }
  return out;
}

Jac EcPrecomp::mul_jac(const UInt& kr) const {
  Jac acc = g_->jac_identity();
  if (kr.is_zero() || p_.infinity) return acc;
  const std::size_t bits = kr.bit_length();
  const std::size_t nibbles = (bits + 3) / 4;
  for (std::size_t i = nibbles; i-- > 0;) {
    if (i != nibbles - 1) {
      acc = g_->jdbl(acc);
      acc = g_->jdbl(acc);
      acc = g_->jdbl(acc);
      acc = g_->jdbl(acc);
    }
    const std::size_t nib = scalar_nibble(kr, i, bits);
    // The nib != 0 skip stays (identical add/double sequence keeps the
    // output bit-identical to the reference algorithm); only the table
    // lookup itself is hardened — the secret-dependent *index* no longer
    // selects which cache lines are touched.
    if (nib != 0) {
      const AffM e = entry_ct(nib);
      acc = g_->jadd_mixed(acc, e);
    }
  }
  return acc;
}

EcPoint EcPrecomp::mul(const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.precomp_mul");
  const UInt kr = mod(k, g_->params().n);
  if (kr.is_zero() || p_.infinity) return EcPoint::identity();
  return g_->to_affine(mul_jac(kr));
}

EcPrecompCache::EcPrecompCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const EcPrecomp> EcPrecompCache::get(const EcGroup& g,
                                                     const EcPoint& p) {
  Coord cx{}, cy{};
  for (std::size_t i = 0; i < kMaxWords; ++i) {
    cx[i] = p.x.w[i];
    cy[i] = p.y.w[i];
  }
  const Key key{&g, cx, cy};

  std::lock_guard<std::mutex> lk(mu_);
  if (const auto it = map_.find(key); it != map_.end()) {
    map_.touch(it, clock_++);
    ++stats_.hits;
    return it->second.value;
  }
  ++stats_.misses;
  // Built under the lock: a table is ~15 additions plus one inversion,
  // cheap enough that avoiding duplicate concurrent builds wins.
  auto tab = std::make_shared<const EcPrecomp>(g, p);
  stats_.evictions += map_.trim(capacity_ - 1);
  map_.put(key, tab, clock_++);
  return tab;
}

EcPrecompCache::Stats EcPrecompCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t EcPrecompCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void EcPrecompCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  stats_ = Stats{};
}

EcPrecompCache& EcPrecompCache::global() {
  static EcPrecompCache cache(256);
  return cache;
}

bool shamir_verify_x(const EcGroup& g, const EcPrecomp& qtab, const UInt& u1,
                     const UInt& u2, const UInt& r) {
  ARGUS_PROF_SCOPE("crypto.ec.shamir_verify");
  const UInt& n = g.params().n;
  const UInt& p = g.params().p;
  const MontCtx& fp = g.field();

  // u2*Q carries the (only) doubling chain; u1*G folds in as comb
  // additions with no doublings of its own.
  Jac acc = qtab.mul_jac(mod(u2, n));
  fold_fixed_base(g, acc, mod(u1, n));

  if (acc.z.is_zero()) return false;  // sum is the identity
  // x(acc) = X/Z^2; check candidates x in {r, r+n} (r+2n >= 2n > p by
  // Hasse, so two candidates always suffice) without inverting Z.
  const UInt zz = fp.sqr(acc.z);
  UInt cand = r;
  for (int t = 0; t < 2; ++t) {
    if (fp.mul(fp.to_mont(cand), zz) == acc.x) return true;
    cand = crypto::add(cand, n);
    if (cmp(cand, p) >= 0) break;
  }
  return false;
}

Jac msm(const EcGroup& g, const std::vector<MsmTerm>& terms) {
  std::size_t maxbits = 0;
  for (const MsmTerm& t : terms) {
    maxbits = std::max(maxbits, t.k.bit_length());
  }
  Jac acc = g.jac_identity();
  if (maxbits == 0) return acc;
  const std::size_t nibbles = (maxbits + 3) / 4;
  for (std::size_t i = nibbles; i-- > 0;) {
    if (i != nibbles - 1) {
      acc = g.jdbl(acc);
      acc = g.jdbl(acc);
      acc = g.jdbl(acc);
      acc = g.jdbl(acc);
    }
    for (const MsmTerm& t : terms) {
      if (t.tab->is_identity_point()) continue;
      const std::size_t nib = scalar_nibble(t.k, i, maxbits);
      if (nib != 0) acc = g.jadd_mixed(acc, t.tab->entry(nib));
    }
  }
  return acc;
}

Jac scalar_mul_jac(const EcGroup& g, const EcPoint& p, const UInt& kr) {
  Jac acc = g.jac_identity();
  if (kr.is_zero() || p.infinity) return acc;
  const Jac base = g.to_jacobian(p);
  for (std::size_t i = kr.bit_length(); i-- > 0;) {
    acc = g.jdbl(acc);
    if (kr.bit(i)) acc = g.jadd(acc, base);
  }
  return acc;
}

}  // namespace argus::crypto
