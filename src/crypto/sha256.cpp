#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/sha256_block.hpp"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define ARGUS_SHA256_SHANI 1
#include <immintrin.h>
#endif

namespace argus::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

#ifdef ARGUS_SHA256_SHANI
// The SHA extensions keep the state as two vectors, ABEF and CDGH, and
// run two rounds per sha256rnds2. Message words go in four at a time:
// W[g] for g >= 4 is msg2(msg1(W[g-4], W[g-3]) + W[g-2..g-1] shifted one
// word, W[g-1]), the FIPS 180-4 schedule four words per step.
__attribute__((target("sha,sse4.1"))) void blocks_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);              // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);      // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);           // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      } else {
        const __m128i prev = w[(g - 1) & 3];
        const __m128i shifted = _mm_alignr_epi8(prev, w[(g - 2) & 3], 4);
        cur = _mm_sha256msg1_epu32(cur, w[(g - 3) & 3]);
        cur = _mm_sha256msg2_epu32(_mm_add_epi32(cur, shifted), prev);
      }
      __m128i msg = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);               // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);              // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);           // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);              // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}
#endif

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256BlockFn sha256_blocks_shani() {
#ifdef ARGUS_SHA256_SHANI
  // cpu_init makes the feature bits valid even before static
  // constructors have run.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return blocks_shani;
  }
#endif
  return nullptr;
}

Sha256BlockFn sha256_blocks() {
  // A function-local static: initialized once, thread-safely, on first
  // use, whatever the static-initialization order.
  static const Sha256BlockFn fn = [] {
    const Sha256BlockFn shani = sha256_blocks_shani();
    return shani != nullptr ? shani : sha256_blocks_portable;
  }();
  return fn;
}

}  // namespace detail

Sha256::Sha256() { reset(); }

const char* Sha256::backend() {
  return detail::sha256_blocks() == detail::sha256_blocks_portable
             ? "portable"
             : "sha-ni";
}

Sha256::Sha256(const Chain& chain, std::uint64_t blocks)
    : state_(chain), total_len_(blocks * kBlockSize) {}

void Sha256::reset() {
  state_ = kInit;
  buf_len_ = 0;
  total_len_ = 0;
}

Sha256::State Sha256::export_state() const {
  State s;
  s.state = state_;
  s.buf = buf_;
  s.buf_len = buf_len_;
  s.total_len = total_len_;
  return s;
}

void Sha256::import_state(const State& s) {
  if (s.buf_len >= kBlockSize || s.total_len % kBlockSize != s.buf_len) {
    throw std::invalid_argument("Sha256::import_state: inconsistent state");
  }
  state_ = s.state;
  buf_ = s.buf;
  buf_len_ = static_cast<std::size_t>(s.buf_len);
  total_len_ = s.total_len;
}

void Sha256::update(ByteSpan data) {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const detail::Sha256BlockFn blocks = detail::sha256_blocks();
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, n);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < kBlockSize) return;
    blocks(state_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  if (n >= kBlockSize) {
    blocks(state_.data(), p, n / kBlockSize);
    p += n - n % kBlockSize;
    n %= kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buf_.data(), p, n);
    buf_len_ = n;
  }
}

void Sha256::finish_into(std::uint8_t* out) {
  const detail::Sha256BlockFn blocks = detail::sha256_blocks();
  const std::uint64_t bit_len = total_len_ * 8;
  // 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit length:
  // one block when the tail leaves room for the trailer, else two.
  buf_[buf_len_] = 0x80;
  std::memset(buf_.data() + buf_len_ + 1, 0, kBlockSize - buf_len_ - 1);
  if (buf_len_ >= 56) {
    blocks(state_.data(), buf_.data(), 1);
    std::memset(buf_.data(), 0, 56);
  }
  for (int i = 0; i < 8; ++i) {
    buf_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks(state_.data(), buf_.data(), 1);
  buf_len_ = 0;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

Bytes Sha256::finish() {
  Bytes out(kDigestSize);
  finish_into(out.data());
  return out;
}

Bytes Sha256::hash(ByteSpan data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace argus::crypto
