// Channel multiplexing for daemon frames.
//
// One argusd process hosts N ObjectEngines behind a single transport
// endpoint, so every application frame carries a u32 channel:
//
//   0 .. N-1         unicast to/from object engine i (QUE2/RES1/RES2)
//   kMuxBroadcast    subject -> every hosted engine (QUE1)
//   kMuxControl      daemon control plane (stats / snapshot / shutdown)
//
// The payload after the channel word is an ordinary Argus protocol
// message (argus/messages.hpp) — the mux layer never looks inside it.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/bytes.hpp"
#include "common/serde.hpp"

namespace argus::transport {

inline constexpr std::uint32_t kMuxBroadcast = 0xFFFFFFFF;
inline constexpr std::uint32_t kMuxControl = 0xFFFFFFFE;

struct MuxFrame {
  std::uint32_t channel = 0;
  Bytes payload;
};

inline Bytes encode_mux(std::uint32_t channel, ByteSpan payload) {
  ByteWriter w;
  w.u32(channel);
  w.bytes32(payload);
  return w.take();
}

/// Total decode; nullopt on truncation or trailing garbage.
inline std::optional<MuxFrame> decode_mux(ByteSpan wire) {
  try {
    ByteReader r(wire);
    MuxFrame f;
    f.channel = r.u32();
    f.payload = r.bytes32();
    r.expect_done();
    return f;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

/// Control-plane operations on kMuxControl.
enum class CtlOp : std::uint8_t {
  kShutdown = 1,   // write a final snapshot (if armed) and exit
  kSnapshot = 2,   // write a snapshot now
};

inline Bytes encode_ctl(CtlOp op, ByteSpan body = {}) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.bytes16(body);
  return w.take();
}

inline std::optional<std::pair<CtlOp, Bytes>> decode_ctl(ByteSpan payload) {
  try {
    ByteReader r(payload);
    const std::uint8_t op = r.u8();
    Bytes body = r.bytes16();
    r.expect_done();
    if (op < static_cast<std::uint8_t>(CtlOp::kShutdown) ||
        op > static_cast<std::uint8_t>(CtlOp::kSnapshot)) {
      return std::nullopt;
    }
    return std::make_pair(static_cast<CtlOp>(op), std::move(body));
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace argus::transport
