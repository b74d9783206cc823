// HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA256.
//
// All randomness in the repository flows through this generator so that
// simulations are reproducible: every node seeds its DRBG from a run seed
// plus its identity. RFC-6979 ECDSA nonces reuse the same update/generate
// core with the per-message instantiation the RFC prescribes.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace argus::crypto {

class HmacDrbg {
 public:
  /// Instantiate from entropy (+ optional personalization string).
  explicit HmacDrbg(ByteSpan entropy, ByteSpan nonce = {},
                    ByteSpan personalization = {});

  /// Generate `n` pseudorandom bytes.
  Bytes generate(std::size_t n);

  /// Mix additional entropy into the state.
  void reseed(ByteSpan entropy);

  /// Convenience: uniform integer in [0, bound) by rejection sampling.
  std::uint64_t uniform(std::uint64_t bound);

  /// Snapshot/restore of the generator state (SP 800-90A working state
  /// K, V). import_state resumes the byte stream exactly where
  /// export_state left it; it throws std::invalid_argument unless both
  /// halves are 32 bytes.
  struct State {
    Bytes k;
    Bytes v;
  };
  [[nodiscard]] State export_state() const {
    return {Bytes(k_.begin(), k_.end()), Bytes(v_.begin(), v_.end())};
  }
  void import_state(const State& s);

 private:
  void update(ByteSpan data1, ByteSpan data2 = {});
  /// Fill out[0, n) with generator output (generate() without the copy).
  void fill(std::uint8_t* out, std::size_t n);
  /// K := HMAC_K(V || sep || data1 || data2), then re-absorb the new K.
  void rekey(std::uint8_t sep, ByteSpan data1, ByteSpan data2);

  std::array<std::uint8_t, 32> k_{};
  std::array<std::uint8_t, 32> v_{};
  HmacKey key_;  // k_ with its pads absorbed
};

/// Deterministic per-entity RNG: DRBG seeded from (run_seed, name).
HmacDrbg make_rng(std::uint64_t run_seed, std::string_view name);

}  // namespace argus::crypto
