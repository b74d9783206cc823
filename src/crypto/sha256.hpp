// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for: transcript hashes (`Hash(*)` in the paper), HMAC, the
// HMAC-DRBG, RFC-6979 nonce derivation, and hash-to-field/curve in the
// pairing substrate.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace argus::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  using Chain = std::array<std::uint32_t, 8>;

  Sha256();
  /// Resume after `blocks` whole blocks that left the chaining value
  /// `chain` (an HMAC key's midstate; export_state covers partial ones).
  Sha256(const Chain& chain, std::uint64_t blocks);

  /// Absorb more input. May be called any number of times.
  void update(ByteSpan data);

  /// Finalize and return the 32-byte digest. The object must not be
  /// reused afterwards without calling reset().
  Bytes finish();
  /// finish() into caller storage: writes kDigestSize bytes to `out`.
  void finish_into(std::uint8_t* out);

  void reset();

  /// Mid-stream state capture for snapshot/restore: everything update()
  /// has folded in so far, including the partial block. import_state
  /// continues hashing exactly where export_state left off.
  struct State {
    std::array<std::uint32_t, 8> state{};
    std::array<std::uint8_t, kBlockSize> buf{};
    std::uint64_t buf_len = 0;
    std::uint64_t total_len = 0;
  };
  [[nodiscard]] State export_state() const;
  /// Throws std::invalid_argument on an inconsistent state (buf_len
  /// beyond a block, or total/buffer lengths that cannot coexist).
  void import_state(const State& s);

  /// One-shot convenience.
  static Bytes hash(ByteSpan data);

  /// The compression backend this process runs ("sha-ni" or "portable"),
  /// for the benches to print.
  static const char* backend();

 private:
  Chain state_{};
  std::array<std::uint8_t, kBlockSize> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace argus::crypto
