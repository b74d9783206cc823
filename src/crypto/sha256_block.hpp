// SHA-256 compression backends (internal to the crypto library and its
// tests). Each function folds `nblocks` consecutive 64-byte blocks into
// the eight-word chaining state; every backend computes the same words.
//
// The portable backend runs everywhere. The SHA-NI backend uses the x86
// SHA extensions and exists only when the compiler can target them; the
// process picks it once, on first use, when the CPU reports SHA and
// SSE4.1. There is no switch to force either backend.
#pragma once

#include <cstddef>
#include <cstdint>

namespace argus::crypto::detail {

using Sha256BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                               std::size_t nblocks);

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks);

/// The SHA-NI backend, or nullptr when this build or this CPU lacks it.
[[nodiscard]] Sha256BlockFn sha256_blocks_shani();

/// The backend Sha256 uses: SHA-NI when available, else portable. Chosen
/// once per process; safe to call from any thread and during static
/// initialization.
[[nodiscard]] Sha256BlockFn sha256_blocks();

}  // namespace argus::crypto::detail
