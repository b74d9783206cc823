// Wire messages of the Argus 3-in-1 discovery protocol (Figs 3-5).
//
//   QUE1  (broadcast)  : R_S
//   RES1  (Level 1)    : PROF_O  (admin-signed, plaintext)
//   RES1  (Level 2/3)  : R_O || CERT_O || KEXM_O || [R_S||R_O||KEXM_O]SIG_O
//   QUE2  (unicast)    : R_S || PROF_S || CERT_S || KEXM_S || [*]SIG_S
//                        || MAC_{S,2} || { MAC_{S,3} }
//   RES2               : R_O || [PROF_O]ENC_K || MAC_{O,X}
//
// R_S / R_O are 28-byte randoms (§IX-A); they double as session
// correlators. MAC_{S,3} presence depends on the protocol version: absent
// in v1.0, optional in v2.0 (only when the subject performs Level 3
// discovery), mandatory in v3.0 (indistinguishability).
#pragma once

#include <array>
#include <optional>
#include <variant>

#include "common/bytes.hpp"

namespace argus::core {

inline constexpr std::size_t kNonceSize = 28;
/// A nonce as a fixed-size key (decode enforces the length).
using Nonce = std::array<std::uint8_t, kNonceSize>;
inline constexpr std::size_t kMacSize = 32;

/// Protocol revisions as the paper develops them (Figs 3, 4, 5).
enum class ProtocolVersion : std::uint8_t {
  kV10 = 1,  // concurrent Level 1 + 2
  kV20 = 2,  // + Level 3 sensitive-attribute secrecy
  kV30 = 3,  // + indistinguishability (cover-up MACs, padding, timing)
};

enum class MsgType : std::uint8_t {
  kQue1 = 1,
  kRes1Level1 = 2,
  kRes1 = 3,
  kQue2 = 4,
  kRes2 = 5,
};

struct Que1 {
  Bytes r_s;  // kNonceSize
};

struct Res1Level1 {
  Bytes prof;  // serialized, admin-signed Profile
};

struct Res1 {
  Bytes r_s;   // echo, session correlator
  Bytes r_o;
  Bytes cert;  // serialized Certificate
  Bytes kexm;  // encoded ephemeral ECDH point
  Bytes sig;   // ECDSA over R_S || R_O || KEXM_O
};

struct Que2 {
  Bytes r_s;   // session correlator
  Bytes prof;  // serialized subject Profile
  Bytes cert;
  Bytes kexm;
  Bytes sig;         // ECDSA over Hash(transcript so far)
  Bytes mac_s2;      // HMAC(K2, "subject finished" || Hash(*))
  Bytes mac_s3;      // empty, or HMAC(K3, ...) — see ProtocolVersion
};

struct Res2 {
  Bytes r_o;         // session correlator
  Bytes sealed_prof; // SealedBox under K2 or K3
  Bytes mac_o;       // MAC_{O,2} or MAC_{O,3} — indistinguishable
};

using Message = std::variant<Que1, Res1Level1, Res1, Que2, Res2>;

/// Serialize any protocol message (type byte + fields).
Bytes encode(const Message& msg);
/// Parse; nullopt on malformed input (drop silently, §VII).
std::optional<Message> decode(ByteSpan wire);

/// Trace and traffic-tally name of a message type ("QUE1", "RES1-L1",
/// ...); "?" for a byte that names no type.
const char* msg_type_name(MsgType type);

}  // namespace argus::core
