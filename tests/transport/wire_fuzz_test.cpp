// Transport header codec: round-trips plus seeded truncation / mutation
// fuzz. decode_packet and the mux/control codecs are total functions —
// any byte string maps to a packet or a distinct WireError, never a
// throw — and these tests hammer that contract the same way
// messages_test hammers the Argus message codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/drbg.hpp"
#include "transport/mux.hpp"
#include "transport/wire.hpp"

namespace argus::transport {
namespace {

Packet sample_packet(PacketType type, std::size_t payload_len) {
  Packet p;
  p.type = type;
  p.conn = 0xDEADBEEF;
  p.seq = 41;
  p.ack = 40;
  p.sack = 0b1011;
  for (std::size_t i = 0; i < payload_len; ++i) {
    p.payload.push_back(static_cast<std::uint8_t>(i * 37 + 1));
  }
  return p;
}

TEST(WireCodec, HeaderSizeMatchesEncoding) {
  const Bytes wire = encode_packet(sample_packet(PacketType::kAck, 0));
  EXPECT_EQ(wire.size(), kHeaderSize);
  const Bytes with_payload = encode_packet(sample_packet(PacketType::kData, 7));
  EXPECT_EQ(with_payload.size(), kHeaderSize + 7);
}

TEST(WireCodec, RoundTripAllTypes) {
  for (std::uint8_t t = 1; t <= 7; ++t) {
    const Packet p = sample_packet(static_cast<PacketType>(t),
                                   t == 3 ? 300 : 0);
    WireError err = WireError::kBadMagic;
    const auto back = decode_packet(encode_packet(p), &err);
    ASSERT_TRUE(back.has_value()) << "type " << int(t);
    EXPECT_EQ(err, WireError::kOk);
    EXPECT_EQ(back->type, p.type);
    EXPECT_EQ(back->conn, p.conn);
    EXPECT_EQ(back->seq, p.seq);
    EXPECT_EQ(back->ack, p.ack);
    EXPECT_EQ(back->sack, p.sack);
    EXPECT_EQ(back->payload, p.payload);
  }
}

TEST(WireCodec, TruncationSweepNeverThrows) {
  // Every proper prefix of a valid packet must decode to an error (the
  // header prefixes to kTruncated; past the magic+version+type bytes the
  // payload-length check can also trip) — and never throw.
  const Bytes wire = encode_packet(sample_packet(PacketType::kData, 96));
  for (std::size_t n = 0; n < wire.size(); ++n) {
    WireError err = WireError::kOk;
    const auto p = decode_packet(ByteSpan(wire.data(), n), &err);
    EXPECT_FALSE(p.has_value()) << "prefix " << n;
    EXPECT_NE(err, WireError::kOk) << "prefix " << n;
    if (n < kHeaderSize) {
      EXPECT_EQ(err, WireError::kTruncated);
    }
  }
}

TEST(WireCodec, DistinctErrorsPerDefect) {
  const Bytes good = encode_packet(sample_packet(PacketType::kData, 4));
  WireError err = WireError::kOk;

  Bytes bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(decode_packet(bad, &err).has_value());
  EXPECT_EQ(err, WireError::kBadMagic);

  bad = good;
  bad[2] = kWireVersion + 1;
  EXPECT_FALSE(decode_packet(bad, &err).has_value());
  EXPECT_EQ(err, WireError::kBadVersion);

  bad = good;
  bad[3] = 0;  // below kSyn
  EXPECT_FALSE(decode_packet(bad, &err).has_value());
  EXPECT_EQ(err, WireError::kBadType);
  bad[3] = 8;  // above kFin
  EXPECT_FALSE(decode_packet(bad, &err).has_value());
  EXPECT_EQ(err, WireError::kBadType);

  bad = good;
  bad.push_back(0x42);  // trailing garbage after the declared payload
  EXPECT_FALSE(decode_packet(bad, &err).has_value());
  EXPECT_EQ(err, WireError::kLengthMismatch);

  // Declared length above kMaxPayload (u16 can express up to 65535).
  bad = good;
  bad[kHeaderSize - 2] = 0xFF;
  bad[kHeaderSize - 1] = 0xFF;
  EXPECT_FALSE(decode_packet(bad, &err).has_value());
  EXPECT_EQ(err, WireError::kOversized);

  // Declared length longer than the bytes actually present.
  bad = good;
  bad[kHeaderSize - 1] = 5;  // claims 5, carries 4
  EXPECT_FALSE(decode_packet(bad, &err).has_value());
  EXPECT_EQ(err, WireError::kTruncated);
}

TEST(WireCodec, SeededMutationFuzz) {
  // Flip 1-4 random bytes of a valid packet 20k times: decode must stay
  // total, and an accepted packet must re-encode to exactly the mutated
  // bytes (the codec has no don't-care bits).
  auto rng = crypto::make_rng(0xF12D, "wire-fuzz");
  const Bytes base = encode_packet(sample_packet(PacketType::kData, 48));
  std::uint64_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    Bytes wire = base;
    const std::uint64_t flips = 1 + rng.uniform(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at = static_cast<std::size_t>(rng.uniform(wire.size()));
      wire[at] = static_cast<std::uint8_t>(rng.uniform(256));
    }
    WireError err = WireError::kOk;
    const auto p = decode_packet(wire, &err);
    if (p.has_value()) {
      EXPECT_EQ(err, WireError::kOk);
      EXPECT_EQ(encode_packet(*p), wire);
      accepted++;
    } else {
      EXPECT_NE(err, WireError::kOk);
      rejected++;
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(WireCodec, RandomGarbageNeverDecodes) {
  auto rng = crypto::make_rng(0xF12E, "wire-garbage");
  for (int iter = 0; iter < 5000; ++iter) {
    Bytes wire(static_cast<std::size_t>(rng.uniform(64)), 0);
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.uniform(256));
    WireError err = WireError::kOk;
    const auto p = decode_packet(wire, &err);
    // Random bytes essentially never form a packet (magic + version +
    // type + exact length all have to line up); decode just must not
    // throw and must report a reason when it refuses.
    if (!p.has_value()) {
      EXPECT_NE(err, WireError::kOk);
    }
  }
}

TEST(MuxCodec, RoundTripAndChannels) {
  const Bytes payload{1, 2, 3, 4, 5};
  for (std::uint32_t ch : {0u, 7u, kMuxControl, kMuxBroadcast}) {
    const auto f = decode_mux(encode_mux(ch, payload));
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->channel, ch);
    EXPECT_EQ(f->payload, payload);
  }
}

TEST(MuxCodec, TotalOnDamage) {
  const Bytes good = encode_mux(3, Bytes{9, 9, 9});
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(decode_mux(ByteSpan(good.data(), n)).has_value());
  }
  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(decode_mux(trailing).has_value());
}

TEST(CtlCodec, RoundTripAndRangeCheck) {
  const Bytes body{0xAA, 0xBB};
  for (CtlOp op : {CtlOp::kShutdown, CtlOp::kSnapshot}) {
    const auto back = decode_ctl(encode_ctl(op, body));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->first, op);
    EXPECT_EQ(back->second, body);
  }
  Bytes bad = encode_ctl(CtlOp::kShutdown);
  bad[0] = 0;  // below the op range
  EXPECT_FALSE(decode_ctl(bad).has_value());
  for (std::uint8_t op : {3, 4, 9}) {  // above the op range
    bad[0] = op;
    EXPECT_FALSE(decode_ctl(bad).has_value()) << int{op};
  }
  EXPECT_FALSE(decode_ctl(Bytes{}).has_value());
}

}  // namespace
}  // namespace argus::transport
