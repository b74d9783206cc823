// SHA-256 hot path against frozen references: the portable and SHA-NI
// block functions against each other, Sha256 (one-step padding, either
// backend) against the byte-at-a-time implementation it replaced, and
// digests at the padding boundaries from an independent implementation.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <latch>
#include <random>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/sha256_block.hpp"

namespace argus::crypto {
namespace {

// Frozen reference: the Sha256 that padded with one-byte update() calls
// and compressed one block at a time. Kept verbatim apart from the
// empty-span guard in update(), which the original lacked (memcpy from a
// null pointer is undefined even for zero bytes).
class ReferenceSha256 {
 public:
  void update(ByteSpan data) {
    if (data.empty()) return;
    total_len_ += data.size();
    std::size_t off = 0;
    if (buf_len_ > 0) {
      const std::size_t take = std::min(64 - buf_len_, data.size());
      std::memcpy(buf_.data() + buf_len_, data.data(), take);
      buf_len_ += take;
      off += take;
      if (buf_len_ == 64) {
        process_block(buf_.data());
        buf_len_ = 0;
      }
    }
    while (data.size() - off >= 64) {
      process_block(data.data() + off);
      off += 64;
    }
    if (off < data.size()) {
      std::memcpy(buf_.data(), data.data() + off, data.size() - off);
      buf_len_ = data.size() - off;
    }
  }

  Bytes finish() {
    const std::uint64_t bit_len = total_len_ * 8;
    const std::uint8_t pad_byte = 0x80;
    update(ByteSpan(&pad_byte, 1));
    const std::uint8_t zero = 0;
    while (buf_len_ != 56) update(ByteSpan(&zero, 1));
    for (int i = 0; i < 8; ++i) {
      buf_[56 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    process_block(buf_.data());
    Bytes out(32);
    for (int i = 0; i < 8; ++i) {
      out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
      out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
      out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
      out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
  }

 private:
  void process_block(const std::uint8_t* block) {
    static constexpr std::uint32_t kK[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
             static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + s0 + maj;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  std::array<std::uint32_t, 8> state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                         0xa54ff53a, 0x510e527f, 0x9b05688c,
                                         0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

Bytes counting_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i);
  return b;
}

TEST(Sha256BackendTest, ShaNiMatchesPortableOnRandomBlocks) {
  const detail::Sha256BlockFn shani = detail::sha256_blocks_shani();
  if (shani == nullptr) {
    GTEST_SKIP() << "no SHA-NI backend: this CPU or compiler lacks the x86 "
                    "SHA extensions";
  }
  std::mt19937_64 rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint32_t state[8];
    for (std::uint32_t& word : state) word = static_cast<std::uint32_t>(rng());
    const std::size_t nblocks = 1 + trial % 4;
    Bytes blocks(64 * nblocks);
    for (std::uint8_t& byte : blocks) byte = static_cast<std::uint8_t>(rng());
    std::uint32_t portable[8], fast[8];
    std::memcpy(portable, state, sizeof state);
    std::memcpy(fast, state, sizeof state);
    detail::sha256_blocks_portable(portable, blocks.data(), nblocks);
    shani(fast, blocks.data(), nblocks);
    ASSERT_EQ(0, std::memcmp(portable, fast, sizeof state))
        << "trial " << trial << ", " << nblocks << " block(s)";
  }
}

TEST(Sha256BackendTest, MatchesFrozenReferenceAtRandomSplits) {
  std::mt19937_64 rng(55);
  for (std::size_t len = 0; len <= 300; ++len) {
    Bytes msg(len);
    for (std::uint8_t& byte : msg) byte = static_cast<std::uint8_t>(rng());
    ReferenceSha256 ref;
    ref.update(msg);
    const Bytes want = ref.finish();
    for (int trial = 0; trial < 4; ++trial) {
      std::size_t a = len == 0 ? 0 : rng() % (len + 1);
      std::size_t b = len == 0 ? 0 : rng() % (len + 1);
      if (a > b) std::swap(a, b);
      Sha256 h;
      const ByteSpan view(msg);
      h.update(view.first(a));
      h.update(view.subspan(a, b - a));  // empty when a == b
      h.update(view.subspan(b));
      ASSERT_EQ(h.finish(), want) << "len " << len << " split " << a << "/"
                                  << b;
    }
    std::uint8_t out[Sha256::kDigestSize];
    Sha256 h;
    h.update(msg);
    h.finish_into(out);
    ASSERT_EQ(Bytes(out, out + sizeof out), want) << "len " << len;
  }
}

// Python hashlib.sha256(bytes(i % 256 for i in range(n))).hexdigest():
// the lengths where padding fits one block or spills into a second.
TEST(Sha256BackendTest, PaddingBoundaryKnownAnswers) {
  const std::pair<std::size_t, const char*> kVectors[] = {
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {119,
       "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
      {120,
       "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
      {128,
       "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
  };
  for (const auto& [len, hex] : kVectors) {
    EXPECT_EQ(to_hex(Sha256::hash(counting_bytes(len))), hex) << "len " << len;
  }
}

// Backend selection is a function-local static: four threads racing to
// the first hash of the process must all get the same backend and the
// same digest. Run on its own (as ctest does) to start cold.
TEST(Sha256BackendTest, ColdStartFromFourThreads) {
  constexpr int kThreads = 4;
  const Bytes msg = counting_bytes(128);
  std::latch start(kThreads);
  std::vector<Bytes> digests(kThreads);
  std::vector<detail::Sha256BlockFn> picked(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      digests[static_cast<std::size_t>(t)] = Sha256::hash(msg);
      picked[static_cast<std::size_t>(t)] = detail::sha256_blocks();
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(to_hex(digests[static_cast<std::size_t>(t)]),
              "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
    EXPECT_EQ(picked[static_cast<std::size_t>(t)], picked[0]);
  }
  const detail::Sha256BlockFn shani = detail::sha256_blocks_shani();
  EXPECT_EQ(picked[0],
            shani != nullptr ? shani : &detail::sha256_blocks_portable);
}

}  // namespace
}  // namespace argus::crypto
