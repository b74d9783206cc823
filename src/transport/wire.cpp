#include "transport/wire.hpp"

#include "common/serde.hpp"

namespace argus::transport {

namespace {
constexpr std::uint8_t kMagic0 = 'A';
constexpr std::uint8_t kMagic1 = 'T';

bool valid_type(std::uint8_t v) {
  return v >= static_cast<std::uint8_t>(PacketType::kSyn) &&
         v <= static_cast<std::uint8_t>(PacketType::kFin);
}
}  // namespace

Bytes encode_packet(const Packet& p) {
  ByteWriter w;
  w.u8(kMagic0);
  w.u8(kMagic1);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(p.type));
  w.u32(p.conn);
  w.u32(p.seq);
  w.u32(p.ack);
  w.u32(p.sack);
  w.u16(static_cast<std::uint16_t>(p.payload.size()));
  w.raw(p.payload);
  return w.take();
}

std::optional<Packet> decode_packet(ByteSpan wire, WireError* err) {
  const auto fail = [&](WireError e) -> std::optional<Packet> {
    if (err != nullptr) *err = e;
    return std::nullopt;
  };
  if (wire.size() < kHeaderSize) return fail(WireError::kTruncated);
  if (wire[0] != kMagic0 || wire[1] != kMagic1) {
    return fail(WireError::kBadMagic);
  }
  ByteReader r(wire);
  Packet p;
  try {
    (void)r.u8();
    (void)r.u8();
    const std::uint8_t version = r.u8();
    if (version != kWireVersion) return fail(WireError::kBadVersion);
    const std::uint8_t type = r.u8();
    if (!valid_type(type)) return fail(WireError::kBadType);
    p.type = static_cast<PacketType>(type);
    p.conn = r.u32();
    p.seq = r.u32();
    p.ack = r.u32();
    p.sack = r.u32();
    const std::uint16_t len = r.u16();
    if (len > kMaxPayload) return fail(WireError::kOversized);
    if (r.remaining() < len) return fail(WireError::kTruncated);
    p.payload = r.raw(len);
    if (!r.done()) return fail(WireError::kLengthMismatch);
  } catch (const SerdeError&) {
    return fail(WireError::kTruncated);
  }
  if (err != nullptr) *err = WireError::kOk;
  return p;
}

}  // namespace argus::transport
