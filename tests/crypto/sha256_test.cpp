#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

namespace argus::crypto {
namespace {

// FIPS 180-4 / NIST known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(str_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(str_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes msg = str_bytes("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  // Split at awkward boundaries.
  h.update(ByteSpan(msg).first(1));
  h.update(ByteSpan(msg).subspan(1, 7));
  h.update(ByteSpan(msg).subspan(8));
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(Sha256Test, ResetReuses) {
  Sha256 h;
  h.update(str_bytes("abc"));
  (void)h.finish();
  h.reset();
  h.update(str_bytes("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, BlockBoundaryLengths) {
  // Hash every length around the 64-byte block boundary; verify
  // incremental == one-shot for each (padding edge cases).
  for (std::size_t len = 55; len <= 130; ++len) {
    Bytes msg(len, 0x5a);
    Sha256 h;
    for (std::size_t i = 0; i < len; ++i) {
      h.update(ByteSpan(&msg[i], 1));
    }
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "len=" << len;
  }
}

// An empty span after a partial block used to reach memcpy with a null
// source pointer (undefined even for zero bytes; UBSan aborts on it).
TEST(Sha256Test, EmptyUpdateAfterPartialBlock) {
  Sha256 h;
  h.update(str_bytes("ab"));
  h.update({});
  h.update(ByteSpan{});
  h.update(str_bytes("c"));
  h.update({});
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash(str_bytes("a")), Sha256::hash(str_bytes("b")));
}

}  // namespace
}  // namespace argus::crypto
