#include "argus/messages.hpp"

#include "common/serde.hpp"

namespace argus::core {

namespace {

void put_que1(ByteWriter& w, const Que1& m) { w.bytes16(m.r_s); }

void put_res1l1(ByteWriter& w, const Res1Level1& m) { w.bytes16(m.prof); }

void put_res1(ByteWriter& w, const Res1& m) {
  w.bytes16(m.r_s);
  w.bytes16(m.r_o);
  w.bytes16(m.cert);
  w.bytes16(m.kexm);
  w.bytes16(m.sig);
}

void put_que2(ByteWriter& w, const Que2& m) {
  w.bytes16(m.r_s);
  w.bytes16(m.prof);
  w.bytes16(m.cert);
  w.bytes16(m.kexm);
  w.bytes16(m.sig);
  w.bytes16(m.mac_s2);
  w.bytes16(m.mac_s3);
}

void put_res2(ByteWriter& w, const Res2& m) {
  w.bytes16(m.r_o);
  w.bytes16(m.sealed_prof);
  w.bytes16(m.mac_o);
}

}  // namespace

Bytes encode(const Message& msg) {
  ByteWriter w;
  if (const auto* m = std::get_if<Que1>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kQue1));
    put_que1(w, *m);
  } else if (const auto* m = std::get_if<Res1Level1>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kRes1Level1));
    put_res1l1(w, *m);
  } else if (const auto* m = std::get_if<Res1>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kRes1));
    put_res1(w, *m);
  } else if (const auto* m = std::get_if<Que2>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kQue2));
    put_que2(w, *m);
  } else if (const auto* m = std::get_if<Res2>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kRes2));
    put_res2(w, *m);
  }
  return w.take();
}

std::optional<Message> decode(ByteSpan wire) {
  try {
    ByteReader r(wire);
    const auto type = static_cast<MsgType>(r.u8());
    Message out;
    switch (type) {
      case MsgType::kQue1: {
        Que1 m;
        m.r_s = r.bytes16();
        if (m.r_s.size() != kNonceSize) return std::nullopt;
        out = std::move(m);
        break;
      }
      case MsgType::kRes1Level1: {
        Res1Level1 m;
        m.prof = r.bytes16();
        out = std::move(m);
        break;
      }
      case MsgType::kRes1: {
        Res1 m;
        m.r_s = r.bytes16();
        m.r_o = r.bytes16();
        m.cert = r.bytes16();
        m.kexm = r.bytes16();
        m.sig = r.bytes16();
        if (m.r_s.size() != kNonceSize || m.r_o.size() != kNonceSize) {
          return std::nullopt;
        }
        out = std::move(m);
        break;
      }
      case MsgType::kQue2: {
        Que2 m;
        m.r_s = r.bytes16();
        m.prof = r.bytes16();
        m.cert = r.bytes16();
        m.kexm = r.bytes16();
        m.sig = r.bytes16();
        m.mac_s2 = r.bytes16();
        m.mac_s3 = r.bytes16();
        if (m.r_s.size() != kNonceSize || m.mac_s2.size() != kMacSize) {
          return std::nullopt;
        }
        if (!m.mac_s3.empty() && m.mac_s3.size() != kMacSize) {
          return std::nullopt;
        }
        out = std::move(m);
        break;
      }
      case MsgType::kRes2: {
        Res2 m;
        m.r_o = r.bytes16();
        m.sealed_prof = r.bytes16();
        m.mac_o = r.bytes16();
        if (m.r_o.size() != kNonceSize || m.mac_o.size() != kMacSize) {
          return std::nullopt;
        }
        out = std::move(m);
        break;
      }
      default:
        return std::nullopt;
    }
    r.expect_done();
    return out;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kQue1: return "QUE1";
    case MsgType::kRes1Level1: return "RES1-L1";
    case MsgType::kRes1: return "RES1";
    case MsgType::kQue2: return "QUE2";
    case MsgType::kRes2: return "RES2";
  }
  return "?";
}

}  // namespace argus::core
