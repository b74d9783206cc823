#include "crypto/ecdsa.hpp"

#include <algorithm>

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

}  // namespace argus::crypto
