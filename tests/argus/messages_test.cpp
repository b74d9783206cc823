#include "argus/messages.hpp"

#include <gtest/gtest.h>

#include "argus/session.hpp"
#include "crypto/drbg.hpp"

namespace argus::core {
namespace {

Bytes nonce(std::uint8_t fill) { return Bytes(kNonceSize, fill); }
Bytes mac(std::uint8_t fill) { return Bytes(kMacSize, fill); }

TEST(MessagesTest, Que1RoundTrip) {
  const Message msg = Que1{nonce(1)};
  const auto back = decode(encode(msg));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Que1>(*back).r_s, nonce(1));
}

TEST(MessagesTest, Res1Level1RoundTrip) {
  const Message msg = Res1Level1{Bytes(200, 7)};
  const auto back = decode(encode(msg));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Res1Level1>(*back).prof.size(), 200u);
}

TEST(MessagesTest, Res1RoundTrip) {
  const Message msg =
      Res1{nonce(1), nonce(2), Bytes(552, 3), Bytes(65, 4), Bytes(64, 5)};
  const auto back = decode(encode(msg));
  ASSERT_TRUE(back.has_value());
  const auto& m = std::get<Res1>(*back);
  EXPECT_EQ(m.r_o, nonce(2));
  EXPECT_EQ(m.cert.size(), 552u);
  EXPECT_EQ(m.sig.size(), 64u);
}

TEST(MessagesTest, Que2RoundTripWithAndWithoutMac3) {
  Que2 q{nonce(1), Bytes(200, 2), Bytes(552, 3), Bytes(65, 4),
         Bytes(64, 5),  mac(6),       mac(7)};
  auto back = decode(encode(Message{q}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Que2>(*back).mac_s3, mac(7));

  q.mac_s3.clear();  // v1.0 / v2.0-Level-2 form
  back = decode(encode(Message{q}));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::get<Que2>(*back).mac_s3.empty());
}

TEST(MessagesTest, Res2RoundTrip) {
  const Message msg = Res2{nonce(9), Bytes(256, 1), mac(2)};
  const auto back = decode(encode(msg));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Res2>(*back).sealed_prof.size(), 256u);
}

TEST(MessagesTest, RejectsWrongNonceOrMacSizes) {
  EXPECT_FALSE(decode(encode(Message{Que1{Bytes(27, 0)}})).has_value());
  EXPECT_FALSE(
      decode(encode(Message{Res2{nonce(1), Bytes(16, 0), Bytes(31, 0)}}))
          .has_value());
  Que2 q{nonce(1), {}, {}, {}, {}, Bytes(31, 0), {}};
  EXPECT_FALSE(decode(encode(Message{q})).has_value());
}

TEST(MessagesTest, RejectsGarbage) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode(Bytes{0x00}).has_value());
  EXPECT_FALSE(decode(Bytes{0x63, 0x01, 0x02}).has_value());
  // Truncated QUE1.
  Bytes que1 = encode(Message{Que1{nonce(1)}});
  que1.resize(que1.size() - 3);
  EXPECT_FALSE(decode(que1).has_value());
  // Trailing bytes.
  Bytes extra = encode(Message{Que1{nonce(1)}});
  extra.push_back(0);
  EXPECT_FALSE(decode(extra).has_value());
}

// Seeded fuzz: random well-formed messages must round-trip exactly, and
// random corruptions (truncation, extension, byte flips) must either fail
// to decode or decode to something that re-encodes consistently — never
// crash, never mis-frame.
TEST(MessagesTest, FuzzRoundTripAndCorruption) {
  crypto::HmacDrbg rng = crypto::make_rng(2024, "messages fuzz");
  const auto blob = [&rng](std::size_t max) {
    return rng.generate(rng.uniform(max + 1));
  };
  for (int iter = 0; iter < 300; ++iter) {
    Message msg;
    switch (rng.uniform(5)) {
      case 0:
        msg = Que1{rng.generate(kNonceSize)};
        break;
      case 1:
        msg = Res1Level1{blob(512)};
        break;
      case 2:
        msg = Res1{rng.generate(kNonceSize), rng.generate(kNonceSize),
                   blob(1024), blob(128), blob(128)};
        break;
      case 3: {
        Que2 q{rng.generate(kNonceSize),
               blob(512),
               blob(1024),
               blob(128),
               blob(128),
               rng.generate(kMacSize),
               {}};
        if (rng.uniform(2)) q.mac_s3 = rng.generate(kMacSize);
        msg = q;
        break;
      }
      default:
        msg = Res2{rng.generate(kNonceSize), blob(1024),
                   rng.generate(kMacSize)};
        break;
    }

    const Bytes wire = encode(msg);
    const auto back = decode(wire);
    ASSERT_TRUE(back.has_value()) << "iter " << iter;
    EXPECT_EQ(back->index(), msg.index()) << "iter " << iter;
    EXPECT_EQ(encode(*back), wire) << "iter " << iter;  // exact round-trip

    // Truncation at a random point must never decode to the full message.
    if (!wire.empty()) {
      Bytes cut = wire;
      cut.resize(rng.uniform(wire.size()));
      if (const auto m = decode(cut); m.has_value()) {
        EXPECT_NE(encode(*m), wire) << "iter " << iter;
      }
    }
    // Trailing garbage is rejected outright (strict framing).
    Bytes extended = wire;
    extended.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    EXPECT_FALSE(decode(extended).has_value()) << "iter " << iter;

    // A random byte flip: decode may fail (size/type fields) or succeed
    // (payload bytes carry no structure), but a success must re-encode to
    // exactly the mutated wire — the codec adds no hidden normalization.
    Bytes flipped = wire;
    const std::size_t pos = rng.uniform(flipped.size());
    flipped[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    if (const auto m = decode(flipped); m.has_value()) {
      EXPECT_EQ(encode(*m), flipped) << "iter " << iter << " pos " << pos;
    }
  }
}

// Pure-noise inputs: decode must reject or parse cleanly, never read out
// of bounds (the asan/ubsan lanes give this test its teeth).
TEST(MessagesTest, FuzzRandomNoiseNeverCrashes) {
  crypto::HmacDrbg rng = crypto::make_rng(7, "messages noise");
  for (int iter = 0; iter < 500; ++iter) {
    Bytes noise = rng.generate(rng.uniform(160));
    if (!noise.empty() && rng.uniform(2)) {
      // Bias the first byte into the valid MsgType range so the parser
      // exercises per-type field framing, not just the type check.
      noise[0] = static_cast<std::uint8_t>(1 + rng.uniform(5));
    }
    if (const auto m = decode(noise); m.has_value()) {
      EXPECT_EQ(encode(*m), noise) << "iter " << iter;
    }
  }
}

TEST(MessagesTest, TypeNames) {
  EXPECT_STREQ(msg_type_name(MsgType::kQue1), "QUE1");
  EXPECT_STREQ(msg_type_name(MsgType::kRes1Level1), "RES1-L1");
  EXPECT_STREQ(msg_type_name(MsgType::kRes1), "RES1");
  EXPECT_STREQ(msg_type_name(MsgType::kQue2), "QUE2");
  EXPECT_STREQ(msg_type_name(MsgType::kRes2), "RES2");
  EXPECT_STREQ(msg_type_name(MsgType{}), "?");
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(0x7f)), "?");
}

TEST(SessionTest, KeyDerivationSeparatesInputs) {
  const Bytes pre_k = str_bytes("premaster");
  const Bytes rs = nonce(1), ro = nonce(2);
  const Bytes k2 = derive_k2(pre_k, rs, ro);
  EXPECT_EQ(k2.size(), 32u);
  EXPECT_NE(k2, derive_k2(pre_k, ro, rs));                // order matters
  EXPECT_NE(k2, derive_k2(str_bytes("other"), rs, ro));   // secret matters
  const Bytes grp = Bytes(32, 9);
  const Bytes k3 = derive_k3(k2, grp, rs, ro);
  EXPECT_NE(k3, k2);
  EXPECT_NE(k3, derive_k3(k2, Bytes(32, 8), rs, ro));     // group key matters
}

TEST(SessionTest, MacLabelsSeparateRoles) {
  const Bytes key(32, 1);
  const Bytes digest(32, 2);
  EXPECT_NE(subject_mac(key, digest), object_mac(key, digest));
}

TEST(SessionTest, TranscriptIncremental) {
  Transcript t1, t2;
  t1.absorb(str_bytes("ab"));
  t1.absorb(str_bytes("cd"));
  t2.absorb(str_bytes("abcd"));
  EXPECT_EQ(t1.digest(), t2.digest());
  // digest() is non-destructive.
  EXPECT_EQ(t1.digest(), t1.digest());
  t1.absorb(str_bytes("e"));
  EXPECT_NE(t1.digest(), t2.digest());
}

TEST(MessagesTest, WireSizesNearPaperTable) {
  // §IX-A: QUE1 28 B, Level-2 RES1 772 B, QUE2 1008 B, RES2 280 B at
  // 128-bit strength. Our framing differs by a few length prefixes; check
  // the same order of magnitude and relative ordering.
  const std::size_t que1 = encode(Message{Que1{nonce(0)}}).size();
  const Message res1 =
      Res1{nonce(0), nonce(0), Bytes(552, 0), Bytes(65, 0), Bytes(64, 0)};
  const Message que2 = Que2{nonce(0),      Bytes(200, 0), Bytes(552, 0),
                            Bytes(65, 0),  Bytes(64, 0),  mac(0),
                            mac(0)};
  const Message res2 = Res2{nonce(0), Bytes(256, 0), mac(0)};
  EXPECT_LT(que1, 40u);                       // ~28 B + framing
  EXPECT_NEAR(encode(res1).size(), 772, 40);
  EXPECT_NEAR(encode(que2).size(), 1008, 60);
  // Ours adds the 28-byte R_O correlator plus length framing.
  EXPECT_NEAR(encode(res2).size(), 280, 60);
}

}  // namespace
}  // namespace argus::core
