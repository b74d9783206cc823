// Differential tests for the precomputed-table hot paths: every fast
// scalar-multiplication route (comb fixed-base, one- and four-block
// per-key tables, Shamir's trick, a = -3 doubling) is byte-compared
// against the frozen reference implementation across seeded random
// scalars and the classic edge cases (0, 1, n-1, n, k >= n), and
// ecdsa_verify must reach the same verdict through every table route.
#include "crypto/ec_precomp.hpp"

#include <gtest/gtest.h>

#include <span>
#include <type_traits>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/ec.hpp"
#include "crypto/ec_typed.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/mont.hpp"

namespace argus::crypto {
namespace {

/// Scoped fast-path override; restores the previous configuration so test
/// order cannot leak one case's toggles into another.
class FastPathGuard {
 public:
  explicit FastPathGuard(const EcFastPaths& paths) : saved_(ec_fast_paths()) {
    set_ec_fast_paths(paths);
  }
  ~FastPathGuard() { set_ec_fast_paths(saved_); }

 private:
  EcFastPaths saved_;
};

std::vector<UInt> fuzz_scalars(const EcGroup& g, std::string_view seed,
                               int count) {
  const UInt& n = g.params().n;
  std::vector<UInt> out;
  // Edge scalars first: 0, 1, n-1, n, n+1, 2n-1, and a far-above-n value
  // (the reference path reduces mod n, so the fast paths must too).
  out.push_back(UInt{});
  out.push_back(UInt::from_u64(1));
  out.push_back(sub(n, UInt::from_u64(1)));
  out.push_back(n);
  out.push_back(add(n, UInt::from_u64(1)));
  out.push_back(sub(add(n, n), UInt::from_u64(1)));
  out.push_back(add(add(n, n), UInt::from_u64(12345)));
  HmacDrbg rng(str_bytes(seed));
  for (int i = 0; i < count; ++i) out.push_back(g.random_scalar(rng));
  return out;
}

class EcPrecompTest : public ::testing::TestWithParam<Strength> {
 protected:
  const EcGroup& g() const { return group_for(GetParam()); }
};

TEST_P(EcPrecompTest, FixedBaseMatchesReference) {
  for (const UInt& k : fuzz_scalars(g(), "fixed-base-fuzz", 24)) {
    const EcPoint want = g().scalar_mul_reference(g().generator(), k);
    EXPECT_EQ(fixed_base_mul(g(), k), want);
    EXPECT_EQ(g().scalar_mul_base(k), want);  // dispatch path
  }
}

TEST_P(EcPrecompTest, ScalarMulFastDoubleMatchesReference) {
  // scalar_mul uses the a = -3 specialised doubling when enabled; the
  // reference path uses the general formula. Results must be identical.
  HmacDrbg rng(str_bytes("fast-double-pt"));
  const EcPoint p = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  for (const UInt& k : fuzz_scalars(g(), "fast-double-fuzz", 16)) {
    EXPECT_EQ(g().scalar_mul(p, k), g().scalar_mul_reference(p, k));
  }
}

TEST_P(EcPrecompTest, PerKeyTableMatchesReference) {
  HmacDrbg rng(str_bytes("precomp-pt"));
  const EcPoint p = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const EcPrecomp tab(g(), p);
  for (const UInt& k : fuzz_scalars(g(), "precomp-fuzz", 16)) {
    EXPECT_EQ(tab.mul(k), g().scalar_mul_reference(p, k));
  }
}

TEST_P(EcPrecompTest, ConstantTimeSelectMatchesDirectLookup) {
  // ct_select is the masked lookup behind key_mul and the ECDH
  // ladder: a sweep of the whole table must hand back exactly the slot
  // the direct (index-dependent) lookup would have — for the per-key
  // affine table and for a Jacobian table like the ladder's.
  HmacDrbg rng(str_bytes("ct-select-pt"));
  const EcPoint p = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const EcPrecomp tab(g(), p);
  g().visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    const std::span<const AffMT<N>> entries = tab.comb<N>();
    ASSERT_EQ(entries.size(), EcPrecomp::kTableSize);
    std::vector<JacT<N>> jac;
    for (std::size_t v = 1; v <= EcPrecomp::kTableSize; ++v) {
      const AffMT<N> swept = ct_select(entries, v - 1);
      EXPECT_EQ(swept.x, entries[v - 1].x) << "v=" << v;
      EXPECT_EQ(swept.y, entries[v - 1].y) << "v=" << v;
      jac.push_back(tg.jdbl(tg.to_jac(g().scalar_mul_reference(
          p, UInt::from_u64(v)))));
    }
    for (std::size_t i = 0; i < jac.size(); ++i) {
      const JacT<N> swept = ct_select(std::span<const JacT<N>>(jac), i);
      EXPECT_EQ(swept.x, jac[i].x) << "i=" << i;
      EXPECT_EQ(swept.y, jac[i].y) << "i=" << i;
      EXPECT_EQ(swept.z, jac[i].z) << "i=" << i;
    }
  });
}

TEST_P(EcPrecompTest, ConstantTimeMulHitsEveryWindowValue) {
  // Scalars whose nibbles sweep every window value (0x111..., 0x222...,
  // ..., 0xFFF...) drive each table slot through the constant-time path;
  // the result must stay bit-identical to the reference algorithm.
  HmacDrbg rng(str_bytes("ct-mul-pt"));
  const EcPoint p = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const EcPrecomp tab(g(), p);
  for (std::uint64_t nib = 1; nib <= 15; ++nib) {
    UInt k;
    for (std::size_t w = 0; w < 3; ++w) {
      k.w[w] = nib * 0x1111111111111111ull;
    }
    EXPECT_EQ(tab.mul(k), g().scalar_mul_reference(p, k)) << "nibble " << nib;
  }
}

// Bits [lo, hi) of k set to `ones`.
UInt with_bits(UInt k, std::size_t lo, std::size_t hi, bool ones) {
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint64_t m = std::uint64_t{1} << (i % 64);
    k.w[i / 64] = ones ? (k.w[i / 64] | m) : (k.w[i / 64] & ~m);
  }
  return k;
}

// The bit span of each promoted block, s = 4 * ceil(bits(n) / 16).
std::size_t promoted_span_bits(const EcGroup& g) {
  return 4 * ((g.params().n.bit_length() + 15) / 16);
}

TEST_P(EcPrecompTest, PromotedTableShape) {
  static_assert(kPromotedBlocks == 4);
  const std::size_t s = promoted_span_bits(g());
  const std::size_t want_s[] = {56, 64, 96, 132};
  EXPECT_EQ(s, want_s[static_cast<std::size_t>(GetParam())]);
  HmacDrbg rng(str_bytes("promoted-shape-pt"));
  const EcPoint p = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const EcPrecomp plain(g(), p);
  const EcPrecomp promoted(g(), p, kPromotedBlocks);
  EXPECT_EQ(plain.blocks(), 1u);
  EXPECT_EQ(promoted.blocks(), kPromotedBlocks);
  g().visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    EXPECT_EQ(tg.key_block_nibbles(kPromotedBlocks) * 4, s);
    const std::span<const AffMT<N>> all = promoted.comb<N>();
    ASSERT_EQ(all.size(), kPromotedBlocks * EcPrecomp::kTableSize);
    ASSERT_EQ(plain.comb<N>().size(), EcPrecomp::kTableSize);
    // Block 0 is the plain table.
    for (std::size_t i = 0; i < EcPrecomp::kTableSize; ++i) {
      EXPECT_EQ(all[i].x, plain.comb<N>()[i].x);
      EXPECT_EQ(all[i].y, plain.comb<N>()[i].y);
    }
    // Entry (j, v) is v * 2^(s*j) * P.
    for (std::size_t j = 0; j < kPromotedBlocks; ++j) {
      for (std::uint64_t v : {1, 7, 15}) {
        UInt shifted = UInt::from_u64(v);
        for (std::size_t b = 0; b < s * j; ++b) shifted = shl1(shifted);
        const JacT<N> want = tg.to_jac(g().scalar_mul_reference(
            p, mod(shifted, g().params().n)));
        const AffMT<N>& e = all[j * EcPrecomp::kTableSize + (v - 1)];
        EXPECT_EQ(e.x, want.x) << "block " << j << " v " << v;
        EXPECT_EQ(e.y, want.y) << "block " << j << " v " << v;
      }
    }
  });
}

TEST_P(EcPrecompTest, PromotedTableMatchesReference) {
  const UInt& n = g().params().n;
  const std::size_t s = promoted_span_bits(g());
  const std::size_t bits = n.bit_length();
  const std::size_t top = (kPromotedBlocks - 1) * s;
  HmacDrbg rng(str_bytes("promoted-pt"));
  const EcPoint p = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const EcPrecomp tab(g(), p, kPromotedBlocks);

  std::vector<UInt> ks = fuzz_scalars(g(), "promoted-fuzz", 8);
  // u2 < 2^s: only block 0 carries nonzero nibbles.
  ks.push_back(with_bits(g().random_scalar(rng), s, bits, false));
  // One all-zero block, each block in turn.
  for (std::size_t j = 0; j < kPromotedBlocks; ++j) {
    ks.push_back(with_bits(g().random_scalar(rng), j * s, (j + 1) * s, false));
  }
  // Only the top block (partial at P-521: bits(n) - 3s = 125 of its 132).
  ks.push_back(with_bits(mod(g().random_scalar(rng), n), 0, top, false));
  // The top block as full as n allows and every lower nibble 0xF:
  // ((n >> 3s) << 3s) - 1.
  ks.push_back(sub(with_bits(n, 0, top, false), UInt::from_u64(1)));
  // Every bit below bits(n) set, reduced by mul: 2^bits(n) - 1 - n.
  ks.push_back(with_bits(UInt{}, 0, bits, true));
  // Every window value in every block.
  for (std::uint64_t nib = 1; nib <= 15; ++nib) {
    UInt k;
    for (std::size_t w = 0; w < kMaxWords; ++w) {
      k.w[w] = nib * 0x1111111111111111ull;
    }
    ks.push_back(with_bits(k, bits - 1, kMaxWords * 64, false));
  }
  for (const UInt& k : ks) {
    EXPECT_EQ(tab.mul(k), g().scalar_mul_reference(p, k)) << k.to_hex();
  }
}

TEST_P(EcPrecompTest, EcdsaVerifyAgreesOnEveryRoute) {
  // Each case gets its own fresh key, so in the global cache its first
  // two verifies use the one-block entry (a miss, then the first hit)
  // and its third promotes the entry and uses the promoted table. The
  // cache-off route builds a one-block table per call; the Shamir-off
  // route is the reference equation u1*G + u2*Q.
  EcPrecompCache& cache = EcPrecompCache::global();
  cache.clear();
  HmacDrbg rng(str_bytes("verify-routes"));
  const UInt& n = g().params().n;
  struct Case {
    const char* name;
    EcPoint pub;
    Bytes msg;
    EcdsaSignature sig;
    bool want;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 3; ++i) {
    const EcKeyPair kp = ec_generate(g(), rng);
    const Bytes msg = rng.generate(24);
    const EcdsaSignature sig = ecdsa_sign(g(), kp.priv, msg);
    const EcKeyPair other = ec_generate(g(), rng);
    cases.push_back({"valid", kp.pub, msg, sig, true});
    const EcKeyPair k2 = ec_generate(g(), rng);
    const EcdsaSignature sig2 = ecdsa_sign(g(), k2.priv, msg);
    cases.push_back({"r+1", k2.pub, msg,
                     {addmod(sig2.r, UInt::from_u64(1), n), sig2.s}, false});
    const EcKeyPair k3 = ec_generate(g(), rng);
    const EcdsaSignature sig3 = ecdsa_sign(g(), k3.priv, msg);
    cases.push_back({"s+1", k3.pub, msg,
                     {sig3.r, addmod(sig3.s, UInt::from_u64(1), n)}, false});
    const EcKeyPair k4 = ec_generate(g(), rng);
    Bytes msg4 = msg;
    msg4[static_cast<std::size_t>(i)] ^= 0x01;
    cases.push_back({"message", k4.pub, msg4, ecdsa_sign(g(), k4.priv, msg),
                     false});
    cases.push_back({"key", other.pub, msg, sig, false});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const EcPrecompCache::Stats before = cache.stats();
    EXPECT_EQ(ecdsa_verify(g(), c.pub, c.msg, c.sig), c.want) << "miss";
    EXPECT_EQ(ecdsa_verify(g(), c.pub, c.msg, c.sig), c.want) << "plain hit";
    EXPECT_EQ(cache.stats().promotions, before.promotions);
    EXPECT_EQ(ecdsa_verify(g(), c.pub, c.msg, c.sig), c.want) << "promoting";
    EXPECT_EQ(ecdsa_verify(g(), c.pub, c.msg, c.sig), c.want) << "promoted";
    EXPECT_EQ(cache.stats().misses, before.misses + 1);
    EXPECT_EQ(cache.stats().hits, before.hits + 3);
    EXPECT_EQ(cache.stats().promotions, before.promotions + 1);
    {
      FastPathGuard guard(EcFastPaths{true, true, true, false});
      EXPECT_EQ(ecdsa_verify(g(), c.pub, c.msg, c.sig), c.want) << "no cache";
    }
    {
      FastPathGuard guard(EcFastPaths{true, true, false, true});
      EXPECT_EQ(ecdsa_verify(g(), c.pub, c.msg, c.sig), c.want) << "no shamir";
    }
  }
}

TEST_P(EcPrecompTest, PrecompOfIdentityIsIdentity) {
  for (std::size_t blocks : {std::size_t{1}, kPromotedBlocks}) {
    const EcPrecomp tab(g(), EcPoint::identity(), blocks);
    EXPECT_TRUE(tab.is_identity_point());
    EXPECT_TRUE(tab.mul(UInt::from_u64(7)).infinity);
  }
}

TEST_P(EcPrecompTest, CacheReturnsWorkingTables) {
  HmacDrbg rng(str_bytes("cache-pt"));
  EcPrecompCache cache(2);
  const EcPoint a = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const EcPoint b = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const EcPoint c = g().scalar_mul_reference(g().generator(),
                                             g().random_scalar(rng));
  const UInt k = g().random_scalar(rng);
  EXPECT_EQ(cache.get(g(), a)->mul(k), g().scalar_mul_reference(a, k));
  EXPECT_EQ(cache.get(g(), a)->mul(k), g().scalar_mul_reference(a, k));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Capacity 2: a third point evicts, but the handed-out table (shared
  // ownership) keeps working.
  const auto tab_a = cache.get(g(), a);
  (void)cache.get(g(), b);
  (void)cache.get(g(), c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(tab_a->mul(k), g().scalar_mul_reference(a, k));
}

TEST_P(EcPrecompTest, ShamirVerifyMatchesReferenceEquation) {
  HmacDrbg rng(str_bytes("shamir-fuzz"));
  const UInt& n = g().params().n;
  const MontCtx fn(n);
  for (int i = 0; i < 12; ++i) {
    const UInt u1 = g().random_scalar(rng);
    const UInt u2 = g().random_scalar(rng);
    const EcPoint q = g().scalar_mul_reference(g().generator(),
                                               g().random_scalar(rng));
    const EcPrecomp qtab(g(), q);
    const EcPoint sum = g().add(g().scalar_mul_reference(g().generator(), u1),
                                g().scalar_mul_reference(q, u2));
    ASSERT_FALSE(sum.infinity);
    const UInt r = fn.reduce(sum.x);
    EXPECT_TRUE(shamir_verify_x(g(), qtab, u1, u2, r));
    // Any other r must fail.
    const UInt bad = addmod(r, UInt::from_u64(1), n);
    EXPECT_FALSE(shamir_verify_x(g(), qtab, u1, u2, bad));
  }
}

TEST_P(EcPrecompTest, ShamirVerifyRejectsSumAtInfinity) {
  // u1*G + u2*Q with Q = -G and u1 == u2 sums to the identity; the
  // reference epilogue rejects that, so the fused check must too.
  const EcPoint q = g().negate(g().generator());
  const EcPrecomp qtab(g(), q);
  const UInt u = UInt::from_u64(42);
  EXPECT_FALSE(shamir_verify_x(g(), qtab, u, u, UInt::from_u64(1)));
}

TEST_P(EcPrecompTest, DisabledFastPathsStillMatch) {
  // With every toggle off, the dispatchers must collapse to the frozen
  // reference algorithms — and produce the same bytes they do when on.
  HmacDrbg rng(str_bytes("toggle-fuzz"));
  const UInt k = g().random_scalar(rng);
  const EcPoint fast = g().scalar_mul_base(k);
  FastPathGuard guard(EcFastPaths{false, false, false, false});
  EXPECT_EQ(g().scalar_mul_base(k), fast);
  EXPECT_EQ(g().scalar_mul_base(k),
            g().scalar_mul_reference(g().generator(), k));
}

TEST_P(EcPrecompTest, FixedBaseTableShape) {
  g().visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    const CombTable<N>& tab = tg.comb();
    const std::size_t bits = g().params().n.bit_length();
    EXPECT_EQ(tab.windows, (bits + 7) / 8);
    EXPECT_EQ(tab.entries.size(),
              tab.windows * CombTable<N>::kEntriesPerWindow);
    // Entries are stored at field width: N words per coordinate.
    EXPECT_EQ(tab.bytes(), tab.entries.size() * 2 * N * sizeof(std::uint64_t));
    // Spot-check one entry: (window 1, v 3) is 3 * 2^8 * G in
    // affine-Montgomery form — exactly to_jac(want)'s x and y, since
    // to_jac of an affine point uses z = 1.
    const AffMT<N>& e = tab.entry(1, 3);
    const JacT<N> want = tg.to_jac(
        g().scalar_mul_reference(g().generator(), UInt::from_u64(3 * 256)));
    EXPECT_EQ(e.x, want.x);
    EXPECT_EQ(e.y, want.y);
  });
}

INSTANTIATE_TEST_SUITE_P(AllStrengths, EcPrecompTest,
                         ::testing::Values(Strength::b112, Strength::b128,
                                           Strength::b192, Strength::b256));

}  // namespace
}  // namespace argus::crypto
