// Byzantine peer: a node whose replies are corrupted.
//
// ByzantineMutator rewrites reply bytes under a seeded DRBG (truncate /
// bit-flip / replay-previous, or a per-reply mix); unarmed it is the
// identity, so an honest node changes no bytes. The object core
// (argus/object_core.hpp) applies it *after* the honest engine ran — a
// Byzantine node does the work and then lies about it, which is the
// adversary the paper's MAC/signature checks must catch.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"
#include "fault/plan.hpp"

namespace argus::fault {

class ByzantineMutator {
 public:
  /// Start corrupting with `mode` using a DRBG stream keyed by `seed`.
  void arm(ByzantineMode mode, std::uint64_t seed);
  [[nodiscard]] bool armed() const { return mode_ != ByzantineMode::kNone; }

  /// Corrupt one reply. Identity when unarmed.
  Bytes mutate(Bytes wire);

  [[nodiscard]] std::uint64_t mutations() const { return mutations_; }

 private:
  Bytes truncate(Bytes wire);
  Bytes bit_flip(Bytes wire);
  Bytes replay(Bytes wire);

  ByzantineMode mode_ = ByzantineMode::kNone;
  std::optional<crypto::HmacDrbg> rng_;
  Bytes previous_;  // last honest reply, for kReplay
  std::uint64_t mutations_ = 0;
};

}  // namespace argus::fault
