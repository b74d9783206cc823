// HMAC-SHA256 (RFC 2104) and the paper's PRF conventions.
//
// Argus derives everything from HMAC:
//   preK  = ECDH shared secret
//   K2    = HMAC(preK,           "session key" || R_S || R_O)
//   K3    = HMAC(K2 || K_grp,    "session key" || R_S || R_O)
//   MAC_X = HMAC(K,  label || Hash(transcript))
// `prf(secret, label, seed)` implements HMAC(secret, label || seed).
#pragma once

#include <initializer_list>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace argus::crypto {

/// An HMAC-SHA256 key with its pads already absorbed: the inner and
/// outer chaining values after the ipad/opad block. Each mac() resumes
/// from those midstates, so one key MACs any number of messages with two
/// fewer compressions per message and no heap allocation.
class HmacKey {
 public:
  static constexpr std::size_t kMacSize = Sha256::kDigestSize;

  explicit HmacKey(ByteSpan key);

  /// HMAC of the concatenation of `parts`, written to `out` (kMacSize
  /// bytes). Every part is absorbed before `out` is written, so `out`
  /// may alias a part.
  void mac_into(std::initializer_list<ByteSpan> parts,
                std::uint8_t* out) const;
  [[nodiscard]] Bytes mac(std::initializer_list<ByteSpan> parts) const;

 private:
  Sha256::Chain inner_{};
  Sha256::Chain outer_{};
};

/// HMAC-SHA256 of `data` under `key` (any key length).
Bytes hmac_sha256(ByteSpan key, ByteSpan data);

/// The paper's pseudorandom function: HMAC(secret, label || seed).
Bytes prf(ByteSpan secret, std::string_view label, ByteSpan seed);

/// HKDF-Expand-style output of arbitrary length from HMAC-SHA256
/// (counter-mode expansion); used where more than 32 bytes are needed,
/// e.g. AES-256 key + MAC key from one session secret.
Bytes prf_expand(ByteSpan secret, std::string_view label, ByteSpan seed,
                 std::size_t out_len);

}  // namespace argus::crypto
