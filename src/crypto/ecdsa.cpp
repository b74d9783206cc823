#include "crypto/ecdsa.hpp"

#include <algorithm>
#include <memory>

#include "crypto/ec_precomp.hpp"
#include "crypto/hmac.hpp"
#include "obs/prof.hpp"
#include "crypto/sha256.hpp"

namespace argus::crypto {

EcKeyPair ec_generate(const EcGroup& group, HmacDrbg& rng) {
  EcKeyPair kp;
  kp.priv = group.random_scalar(rng);
  kp.pub = group.scalar_mul_base(kp.priv);
  return kp;
}

namespace {

// RFC 6979 bits2int: interpret the leftmost qlen bits as an integer.
UInt bits2int(ByteSpan bits, std::size_t qlen) {
  // Keep only the leading ceil(qlen/8) bytes, then drop surplus low bits.
  const std::size_t max_bytes = (qlen + 7) / 8;
  const std::size_t take = std::min(bits.size(), max_bytes);
  UInt v = UInt::from_bytes_be(bits.first(take));
  std::size_t blen = take * 8;
  while (blen > qlen) {
    v = shr1(v);
    --blen;
  }
  return v;
}

}  // namespace

Bytes EcdsaSignature::to_bytes(const EcGroup& group) const {
  const std::size_t len = (group.params().n.bit_length() + 7) / 8;
  return concat({r.to_bytes_be(len), s.to_bytes_be(len)});
}

std::optional<EcdsaSignature> EcdsaSignature::from_bytes(const EcGroup& group,
                                                         ByteSpan data) {
  const std::size_t len = (group.params().n.bit_length() + 7) / 8;
  if (data.size() != 2 * len) return std::nullopt;
  EcdsaSignature sig;
  sig.r = UInt::from_bytes_be(data.first(len));
  sig.s = UInt::from_bytes_be(data.subspan(len));
  return sig;
}

EcdsaSignature ecdsa_sign(const EcGroup& group, const UInt& priv,
                          ByteSpan message) {
  ARGUS_PROF_SCOPE("crypto.ecdsa.sign");
  const UInt& n = group.params().n;
  const std::size_t qlen = n.bit_length();
  const std::size_t qbytes = (qlen + 7) / 8;
  const MontCtx& fn = group.order();

  const Bytes h1 = Sha256::hash(message);
  const UInt z = mod(bits2int(h1, qlen), n);

  // RFC 6979 nonce generator: HMAC-DRBG seeded with int2octets(x) ||
  // bits2octets(h1).
  const Bytes seed =
      concat({priv.to_bytes_be(qbytes), z.to_bytes_be(qbytes)});
  HmacDrbg nonce_rng{seed};

  for (;;) {
    const Bytes t = nonce_rng.generate(qbytes);
    const UInt k = bits2int(t, qlen);
    if (k.is_zero() || cmp(k, n) >= 0) continue;

    const EcPoint kg = group.scalar_mul_base(k);
    const UInt r = mod(kg.x, n);
    if (r.is_zero()) continue;

    // s = k^{-1} (z + r * priv) mod n
    const UInt k_m = fn.to_mont(k);
    const UInt kinv_m = fn.inv(k_m);
    const UInt rd_m = fn.mul(fn.to_mont(r), fn.to_mont(priv));
    const UInt sum_m = fn.add(rd_m, fn.to_mont(z));
    const UInt s = fn.from_mont(fn.mul(kinv_m, sum_m));
    if (s.is_zero()) continue;
    return EcdsaSignature{r, s};
  }
}

bool ecdsa_verify(const EcGroup& group, const EcPoint& pub, ByteSpan message,
                  const EcdsaSignature& sig) {
  ARGUS_PROF_SCOPE("crypto.ecdsa.verify");
  const UInt& n = group.params().n;
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;
  if (pub.infinity || !group.on_curve(pub)) return false;

  const std::size_t qlen = n.bit_length();
  const MontCtx& fn = group.order();

  const Bytes h1 = Sha256::hash(message);
  const UInt z = mod(bits2int(h1, qlen), n);

  const UInt sinv_m = fn.inv(fn.to_mont(sig.s));
  const UInt u1 = fn.from_mont(fn.mul(fn.to_mont(z), sinv_m));
  const UInt u2 = fn.from_mont(fn.mul(fn.to_mont(sig.r), sinv_m));

  const EcFastPaths& fast = ec_fast_paths();
  if (fast.shamir_verify) {
    if (fast.precomp_cache) {
      const auto tab = EcPrecompCache::global().get(group, pub);
      return shamir_verify_x(group, *tab, u1, u2, sig.r);
    }
    const EcPrecomp tab(group, pub);
    return shamir_verify_x(group, tab, u1, u2, sig.r);
  }

  const EcPoint p1 = group.scalar_mul_base(u1);
  const EcPoint p2 = group.scalar_mul(pub, u2);
  const EcPoint sum = group.add(p1, p2);
  if (sum.infinity) return false;
  return mod(sum.x, n) == sig.r;
}

namespace {

// One batchable signature after pre-screening: reduced scalars plus the
// recovered R point (y parity unknown — the batch equation tries both).
struct BatchCand {
  std::size_t idx = 0;
  UInt u1, u2;
  EcPoint r_pt;
  std::shared_ptr<const EcPrecomp> qtab_owned;
  const EcPrecomp* qtab = nullptr;
};

constexpr std::size_t kSubBatch = 4;

// Evaluate the batch equation for cands[first, first+count):
//   sum_i a_i * (u1_i*G + u2_i*Q_i - eps_i*R_i) == O  for some sign
// pattern eps. a_1 = 1 and the rest are nonzero 64-bit coefficients from
// `coeff_rng`, so a forged member only survives with probability ~2^-64
// per pattern. Returns true iff some pattern vanishes.
template <class G>
bool verify_subbatch(const G& g, const MontCtx& fn,
                     const std::vector<BatchCand>& cands, std::size_t first,
                     std::size_t count, HmacDrbg& rng) {
  using Jac = typename G::Jac;
  const UInt& n = g.params().n;

  // Coefficients and per-item C_i = a_i * R_i.
  std::vector<UInt> coeff(count);
  std::vector<Jac> c_pts(count);
  UInt u1_sum{};  // sum a_i * u1_i mod n
  std::vector<typename G::MsmTerm> q_terms;
  q_terms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const BatchCand& c = cands[first + i];
    if (i == 0) {
      coeff[i] = UInt::one();
      c_pts[i] = g.to_jac(c.r_pt);
    } else {
      Bytes raw = rng.generate(8);
      raw[7] |= 1;  // nonzero
      coeff[i] = UInt::from_bytes_be(raw);
      c_pts[i] = g.scalar_mul_jac(c.r_pt, coeff[i]);
    }
    u1_sum = fn.reduce(
        crypto::add(u1_sum, mod(mul_full(coeff[i], c.u1), n)));
    q_terms.push_back({c.qtab->template table<G::N>(),
                       mod(mul_full(coeff[i], c.u2), n)});
  }

  // T = sum a_i*u1_i * G + sum (a_i*u2_i) * Q_i.
  Jac t = g.msm(q_terms);
  g.fold_comb(t, u1_sum);

  // Start at the all-(+1) pattern: E = T - sum C_i.
  Jac e = t;
  for (std::size_t i = 0; i < count; ++i) e = g.jadd(e, g.jneg(c_pts[i]));
  if (G::is_identity(e)) return true;

  // Gray-code walk over the remaining sign patterns; flipping eps_i
  // adds or removes 2*C_i.
  std::vector<Jac> d_pts(count), d_neg(count);
  for (std::size_t i = 0; i < count; ++i) {
    d_pts[i] = g.jdbl(c_pts[i]);
    d_neg[i] = g.jneg(d_pts[i]);
  }
  std::uint32_t pattern = 0;  // bit set => eps_i == -1
  const std::uint32_t total = 1u << count;
  for (std::uint32_t step = 1; step < total; ++step) {
    std::uint32_t bit = 0;
    while (!((step >> bit) & 1u)) ++bit;
    pattern ^= 1u << bit;
    e = g.jadd(e, (pattern & (1u << bit)) ? d_pts[bit] : d_neg[bit]);
    if (G::is_identity(e)) return true;
  }
  return false;
}

}  // namespace

std::vector<bool> ecdsa_verify_batch(const EcGroup& group,
                                     const std::vector<EcdsaBatchItem>& items,
                                     EcdsaBatchStats* stats) {
  ARGUS_PROF_SCOPE("crypto.ecdsa.verify_batch");
  std::vector<bool> out(items.size(), false);
  EcdsaBatchStats local;
  const UInt& n = group.params().n;
  const UInt& p = group.params().p;
  const MontCtx& fn = group.order();
  const std::size_t qlen = n.bit_length();
  const std::size_t qbytes = (qlen + 7) / 8;
  const bool use_cache = ec_fast_paths().precomp_cache;

  std::vector<BatchCand> cands;
  std::vector<std::size_t> singles;
  std::vector<UInt> s_minv;  // Montgomery-domain s values, batch inverted
  Sha256 seed_hash;          // Fiat–Shamir seed over the batch content

  for (std::size_t i = 0; i < items.size(); ++i) {
    const EcdsaBatchItem& it = items[i];
    // Pre-screen: byte-identical to the single-verify rejects.
    if (it.sig.r.is_zero() || it.sig.s.is_zero() ||
        cmp(it.sig.r, n) >= 0 || cmp(it.sig.s, n) >= 0 ||
        it.pub.infinity || !group.on_curve(it.pub)) {
      continue;  // definitively invalid
    }
    // The batch equation needs R itself. r is only x mod n: when
    // r + n < p there are two x candidates, and when x^3+ax+b is a
    // non-residue there is no point at all — both rare; shunt to the
    // single-verify path which handles them exactly.
    const auto r_pt = group.lift_x(it.sig.r);
    if (!r_pt || cmp(crypto::add(it.sig.r, n), p) < 0) {
      singles.push_back(i);
      continue;
    }
    BatchCand c;
    c.idx = i;
    c.r_pt = *r_pt;
    const Bytes h1 = Sha256::hash(it.message);
    const UInt z = mod(bits2int(h1, qlen), n);
    // Stash z in u1 and r in u2 until the batched s-inversion lands.
    c.u1 = z;
    c.u2 = it.sig.r;
    if (use_cache) {
      c.qtab_owned = EcPrecompCache::global().get(group, it.pub);
    } else {
      c.qtab_owned = std::make_shared<const EcPrecomp>(group, it.pub);
    }
    c.qtab = c.qtab_owned.get();
    cands.push_back(std::move(c));
    s_minv.push_back(fn.to_mont(it.sig.s));

    seed_hash.update(group.encode_point(it.pub));
    seed_hash.update(it.sig.r.to_bytes_be(qbytes));
    seed_hash.update(it.sig.s.to_bytes_be(qbytes));
    seed_hash.update(h1);
  }

  if (!s_minv.empty()) fn.batch_inv(s_minv);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    cands[i].u1 = fn.from_mont(fn.mul(fn.to_mont(cands[i].u1), s_minv[i]));
    cands[i].u2 = fn.from_mont(fn.mul(fn.to_mont(cands[i].u2), s_minv[i]));
  }

  HmacDrbg coeff_rng(cands.empty() ? Bytes(32, 0) : seed_hash.finish());
  for (std::size_t first = 0; first < cands.size(); first += kSubBatch) {
    const std::size_t count = std::min(kSubBatch, cands.size() - first);
    ++local.batch_rounds;
    const bool ok = group.visit([&](const auto& g) {
      return verify_subbatch(g, fn, cands, first, count, coeff_rng);
    });
    if (ok) {
      for (std::size_t i = 0; i < count; ++i) out[cands[first + i].idx] = true;
      local.batched += count;
    } else {
      ++local.batch_failures;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t idx = cands[first + i].idx;
        out[idx] = ecdsa_verify(group, items[idx].pub, items[idx].message,
                                items[idx].sig);
        ++local.fallback_single;
      }
    }
  }
  for (const std::size_t idx : singles) {
    out[idx] = ecdsa_verify(group, items[idx].pub, items[idx].message,
                            items[idx].sig);
    ++local.fallback_single;
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace argus::crypto
