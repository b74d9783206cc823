#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

namespace argus::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA-256.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, str_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(str_bytes("Jefe"),
                               str_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4CompositeKey) {
  // 25-byte incrementing key over 50 bytes of 0xcd.
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);
  }
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case5TruncatedTag) {
  // RFC 4231 case 5 publishes only the leading 128 bits of the MAC — the
  // truncated-tag form Argus uses for short authenticators. The truncation
  // must be the prefix of the full MAC, not a recomputation.
  const Bytes key(20, 0x0c);
  const Bytes mac = hmac_sha256(key, str_bytes("Test With Truncation"));
  ASSERT_EQ(mac.size(), 32u);
  EXPECT_EQ(to_hex(ByteSpan(mac).first(16)),
            "a3b6167473100ee06e0c796c2955552b");
}

TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  // 131-byte key (hashed first) over >1 block of data.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key,
                str_bytes("This is a test using a larger than block-size key "
                          "and a larger than block-size data. The key needs "
                          "to be hashed before being used by the HMAC "
                          "algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, TruncatedTagsStayDistinct) {
  // Truncating to 16 bytes must not collide the label-separated PRF
  // outputs we rely on for session/finished keys.
  const Bytes secret = str_bytes("secret");
  const Bytes a = prf(secret, "session key", str_bytes("seed"));
  const Bytes b = prf(secret, "subject finished", str_bytes("seed"));
  EXPECT_NE(Bytes(a.begin(), a.begin() + 16), Bytes(b.begin(), b.begin() + 16));
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, str_bytes("Test Using Larger Than Block-Size Key - "
                               "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentMacs) {
  const Bytes msg = str_bytes("message");
  EXPECT_NE(hmac_sha256(str_bytes("k1"), msg),
            hmac_sha256(str_bytes("k2"), msg));
}

TEST(HmacTest, PrfIsLabelSeparated) {
  const Bytes secret = str_bytes("secret");
  const Bytes seed = str_bytes("seed");
  EXPECT_NE(prf(secret, "session key", seed),
            prf(secret, "subject finished", seed));
}

TEST(HmacTest, PrfMatchesManualConcat) {
  const Bytes secret = str_bytes("s");
  const Bytes seed = {1, 2, 3};
  EXPECT_EQ(prf(secret, "lbl", seed),
            hmac_sha256(secret, concat({str_bytes("lbl"), seed})));
}

// A keyed HmacKey reused across messages (and fed in several spans)
// equals one-shot hmac_sha256 for keys shorter than, equal to and longer
// than the 64-byte block.
TEST(HmacTest, ReusedKeyMatchesOneShot) {
  for (const std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 131u}) {
    Bytes key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<std::uint8_t>(3 * i + 1);
    }
    const HmacKey keyed(key);
    for (const std::size_t msg_len : {0u, 1u, 55u, 56u, 64u, 100u, 200u}) {
      Bytes msg(msg_len);
      for (std::size_t i = 0; i < msg_len; ++i) {
        msg[i] = static_cast<std::uint8_t>(i ^ key_len);
      }
      const Bytes want = hmac_sha256(key, msg);
      EXPECT_EQ(keyed.mac({msg}), want) << key_len << "/" << msg_len;
      const ByteSpan view(msg);
      const std::size_t cut = msg_len / 3;
      EXPECT_EQ(keyed.mac({view.first(cut), {}, view.subspan(cut)}), want)
          << key_len << "/" << msg_len;
    }
  }
}

TEST(HmacTest, MacIntoMayOverwriteItsInput) {
  const HmacKey key(str_bytes("key"));
  Bytes v(32, 0x01);
  const Bytes want = key.mac({v});
  key.mac_into({v}, v.data());
  EXPECT_EQ(v, want);
}

TEST(HmacTest, PrfExpandLengths) {
  const Bytes secret = str_bytes("secret");
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 48u, 64u, 100u}) {
    EXPECT_EQ(prf_expand(secret, "x", {}, n).size(), n);
  }
}

TEST(HmacTest, PrfExpandPrefixConsistency) {
  // Counter-mode expansion: longer output extends shorter output.
  const Bytes secret = str_bytes("secret");
  const Bytes seed = str_bytes("seed");
  Bytes a = prf_expand(secret, "x", seed, 16);
  Bytes b = prf_expand(secret, "x", seed, 48);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

}  // namespace
}  // namespace argus::crypto
