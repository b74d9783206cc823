#include "crypto/ecdsa.hpp"

#include <gtest/gtest.h>

#include "crypto/ecdh.hpp"

namespace argus::crypto {
namespace {

class EcdsaTest : public ::testing::TestWithParam<Strength> {
 protected:
  const EcGroup& g() const { return group_for(GetParam()); }
};

TEST_P(EcdsaTest, SignVerifyRoundTrip) {
  HmacDrbg rng(str_bytes("ecdsa"));
  const EcKeyPair kp = ec_generate(g(), rng);
  const Bytes msg = str_bytes("QUE2 transcript");
  const EcdsaSignature sig = ecdsa_sign(g(), kp.priv, msg);
  EXPECT_TRUE(ecdsa_verify(g(), kp.pub, msg, sig));
}

TEST_P(EcdsaTest, RejectsTamperedMessage) {
  HmacDrbg rng(str_bytes("ecdsa2"));
  const EcKeyPair kp = ec_generate(g(), rng);
  const EcdsaSignature sig = ecdsa_sign(g(), kp.priv, str_bytes("hello"));
  EXPECT_FALSE(ecdsa_verify(g(), kp.pub, str_bytes("hellp"), sig));
}

TEST_P(EcdsaTest, RejectsWrongKey) {
  HmacDrbg rng(str_bytes("ecdsa3"));
  const EcKeyPair kp1 = ec_generate(g(), rng);
  const EcKeyPair kp2 = ec_generate(g(), rng);
  const Bytes msg = str_bytes("msg");
  const EcdsaSignature sig = ecdsa_sign(g(), kp1.priv, msg);
  EXPECT_FALSE(ecdsa_verify(g(), kp2.pub, msg, sig));
}

TEST_P(EcdsaTest, RejectsTamperedSignature) {
  HmacDrbg rng(str_bytes("ecdsa4"));
  const EcKeyPair kp = ec_generate(g(), rng);
  const Bytes msg = str_bytes("msg");
  EcdsaSignature sig = ecdsa_sign(g(), kp.priv, msg);
  sig.r = addmod(sig.r, UInt::one(), g().params().n);
  EXPECT_FALSE(ecdsa_verify(g(), kp.pub, msg, sig));
}

TEST_P(EcdsaTest, RejectsZeroComponents) {
  HmacDrbg rng(str_bytes("ecdsa5"));
  const EcKeyPair kp = ec_generate(g(), rng);
  EXPECT_FALSE(ecdsa_verify(g(), kp.pub, str_bytes("m"),
                            EcdsaSignature{UInt::zero(), UInt::one()}));
  EXPECT_FALSE(ecdsa_verify(g(), kp.pub, str_bytes("m"),
                            EcdsaSignature{UInt::one(), UInt::zero()}));
  EXPECT_FALSE(ecdsa_verify(g(), kp.pub, str_bytes("m"),
                            EcdsaSignature{g().params().n, UInt::one()}));
}

// Wycheproof-style malformed inputs, each applied to an otherwise valid
// signature: out-of-range or wrong scalars, degenerate public keys, and an
// s >= n that survives the fixed-width wire codec. Every one must reject.
TEST_P(EcdsaTest, RejectsMalformedScalarsAndKeys) {
  HmacDrbg rng(str_bytes("ecdsa-malformed"));
  const EcKeyPair kp = ec_generate(g(), rng);
  const Bytes msg = rng.generate(40);
  const EcdsaSignature good = ecdsa_sign(g(), kp.priv, msg);
  ASSERT_TRUE(ecdsa_verify(g(), kp.pub, msg, good));
  const UInt& n = g().params().n;

  const struct {
    const char* label;
    UInt r, s;
  } kScalars[] = {
      {"s=n", good.r, n},
      {"s>n", good.r, add(n, UInt::from_u64(5))},
      {"r=n-1", sub(n, UInt::one()), good.s},
  };
  for (const auto& c : kScalars) {
    EXPECT_FALSE(ecdsa_verify(g(), kp.pub, msg, EcdsaSignature{c.r, c.s}))
        << c.label;
  }

  EXPECT_FALSE(ecdsa_verify(g(), EcPoint::identity(), msg, good));
  EcPoint off_curve = kp.pub;
  off_curve.y = addmod(off_curve.y, UInt::one(), g().params().p);
  ASSERT_FALSE(g().on_curve(off_curve));
  EXPECT_FALSE(ecdsa_verify(g(), off_curve, msg, good));

  // The wire form is fixed-width, not range-checked: s = n + 1 decodes
  // back unchanged, and verification is what rejects it.
  const EcdsaSignature high{good.r, add(n, UInt::one())};
  const auto decoded = EcdsaSignature::from_bytes(g(), high.to_bytes(g()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->s, high.s);
  EXPECT_FALSE(ecdsa_verify(g(), kp.pub, msg, *decoded));
}

TEST_P(EcdsaTest, DeterministicNonces) {
  // RFC 6979: the same key and message always produce the same signature.
  HmacDrbg rng(str_bytes("ecdsa6"));
  const EcKeyPair kp = ec_generate(g(), rng);
  const Bytes msg = str_bytes("deterministic");
  const EcdsaSignature s1 = ecdsa_sign(g(), kp.priv, msg);
  const EcdsaSignature s2 = ecdsa_sign(g(), kp.priv, msg);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
  // ... and different messages produce different nonces (r differs).
  const EcdsaSignature s3 = ecdsa_sign(g(), kp.priv, str_bytes("other"));
  EXPECT_NE(s1.r, s3.r);
}

TEST_P(EcdsaTest, SignatureCodec) {
  HmacDrbg rng(str_bytes("ecdsa7"));
  const EcKeyPair kp = ec_generate(g(), rng);
  const Bytes msg = str_bytes("codec");
  const EcdsaSignature sig = ecdsa_sign(g(), kp.priv, msg);
  const Bytes wire = sig.to_bytes(g());
  const std::size_t order_bytes = (g().params().n.bit_length() + 7) / 8;
  EXPECT_EQ(wire.size(), 2 * order_bytes);
  const auto parsed = EcdsaSignature::from_bytes(g(), wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(ecdsa_verify(g(), kp.pub, msg, *parsed));
  EXPECT_FALSE(
      EcdsaSignature::from_bytes(g(), ByteSpan(wire).first(5)).has_value());
}

TEST_P(EcdsaTest, EcdhAgreement) {
  HmacDrbg rng(str_bytes("ecdh"));
  const EcKeyPair alice = ecdh_generate(g(), rng);
  const EcKeyPair bob = ecdh_generate(g(), rng);
  const Bytes s1 = ecdh_shared_secret(g(), alice.priv, bob.pub);
  const Bytes s2 = ecdh_shared_secret(g(), bob.priv, alice.pub);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), g().params().field_bytes);
}

TEST_P(EcdsaTest, EcdhDistinctPairsDistinctSecrets) {
  HmacDrbg rng(str_bytes("ecdh2"));
  const EcKeyPair a = ecdh_generate(g(), rng);
  const EcKeyPair b = ecdh_generate(g(), rng);
  const EcKeyPair c = ecdh_generate(g(), rng);
  EXPECT_NE(ecdh_shared_secret(g(), a.priv, b.pub),
            ecdh_shared_secret(g(), a.priv, c.pub));
}

TEST_P(EcdsaTest, EcdhRejectsInvalidPeer) {
  HmacDrbg rng(str_bytes("ecdh3"));
  const EcKeyPair a = ecdh_generate(g(), rng);
  EXPECT_THROW(ecdh_shared_secret(g(), a.priv, EcPoint::identity()),
               std::invalid_argument);
  EcPoint bogus = a.pub;
  bogus.y = addmod(bogus.y, UInt::one(), g().params().p);
  EXPECT_THROW(ecdh_shared_secret(g(), a.priv, bogus), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllStrengths, EcdsaTest,
                         ::testing::Values(Strength::b112, Strength::b128,
                                           Strength::b192, Strength::b256),
                         [](const auto& info) {
                           return std::string("S") +
                                  std::to_string(strength_bits(info.param));
                         });

// RFC 6979 A.2.5: P-256 with SHA-256. The deterministic nonce comes from
// HMAC-DRBG, so these vectors pin the DRBG and HMAC byte streams too.
TEST(EcdsaRfc6979Test, P256Sha256Vectors) {
  const EcGroup& g = group_for(Strength::b128);
  const UInt x = UInt::from_bytes_be(from_hex(
      "C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721"));
  const EcdsaSignature sample = ecdsa_sign(g, x, str_bytes("sample"));
  EXPECT_EQ(to_hex(sample.r.to_bytes_be(32)),
            "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  EXPECT_EQ(to_hex(sample.s.to_bytes_be(32)),
            "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
  const EcdsaSignature test = ecdsa_sign(g, x, str_bytes("test"));
  EXPECT_EQ(to_hex(test.r.to_bytes_be(32)),
            "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
  EXPECT_EQ(to_hex(test.s.to_bytes_be(32)),
            "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
  const EcPoint pub = g.scalar_mul_base(x);
  EXPECT_TRUE(ecdsa_verify(g, pub, str_bytes("sample"), sample));
  EXPECT_TRUE(ecdsa_verify(g, pub, str_bytes("test"), test));
}

TEST(EcdsaSizeTest, Paper128BitSizes) {
  // §IX-A: at 128-bit strength KEXM and SIG are 64 B.
  const EcGroup& g = group_for(Strength::b128);
  HmacDrbg rng(str_bytes("sizes"));
  const EcKeyPair kp = ec_generate(g, rng);
  EXPECT_EQ(ecdsa_sign(g, kp.priv, str_bytes("m")).to_bytes(g).size(), 64u);
}

}  // namespace
}  // namespace argus::crypto
