// Which crypto kernels this process runs on, for a bench to print beside
// its timings: the P-256 and P-224 field kernels (MULX/ADX or portable,
// chosen per group from the CPU) and the SHA-256 backend (SHA-NI or
// portable). Timings from different hosts only compare when these match.
#pragma once

#include <string>

#include "crypto/ec.hpp"
#include "crypto/sha256.hpp"

namespace argus::bench {

inline std::string crypto_backends() {
  return std::string("P-256 field ") +
         crypto::group_for(crypto::Strength::b128).field_kernel() +
         ", P-224 field " +
         crypto::group_for(crypto::Strength::b112).field_kernel() +
         ", SHA-256 " + crypto::Sha256::backend();
}

}  // namespace argus::bench
