// ECDSA with RFC-6979 deterministic nonces.
//
// The paper fixes authentication at ECDSA (§V: "fixing ... authentication
// at ECDSA, which [is] significantly more efficient than other algorithms
// like RSA"). Signatures serialize as r||s with order-sized fixed-width
// integers — 64 bytes at 128-bit strength, matching §IX-A.
#pragma once

#include "crypto/drbg.hpp"
#include "crypto/ec.hpp"

namespace argus::crypto {

struct EcKeyPair {
  UInt priv;    // scalar in [1, n-1]
  EcPoint pub;  // priv * G
};

/// Generate a key pair from `rng`.
EcKeyPair ec_generate(const EcGroup& group, HmacDrbg& rng);

struct EcdsaSignature {
  UInt r, s;

  /// Fixed-width r||s, each order-sized.
  [[nodiscard]] Bytes to_bytes(const EcGroup& group) const;
  static std::optional<EcdsaSignature> from_bytes(const EcGroup& group,
                                                  ByteSpan data);
};

/// Sign SHA-256(message) with RFC-6979 nonce derivation.
EcdsaSignature ecdsa_sign(const EcGroup& group, const UInt& priv,
                          ByteSpan message);

/// Verify a signature over SHA-256(message).
bool ecdsa_verify(const EcGroup& group, const EcPoint& pub, ByteSpan message,
                  const EcdsaSignature& sig);

}  // namespace argus::crypto
