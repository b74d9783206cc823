#include "crypto/drbg.hpp"

#include <gtest/gtest.h>

#include <set>

namespace argus::crypto {
namespace {

TEST(DrbgTest, DeterministicFromSeed) {
  HmacDrbg a(str_bytes("seed"));
  HmacDrbg b(str_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  HmacDrbg a(str_bytes("seed-a"));
  HmacDrbg b(str_bytes("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(DrbgTest, PersonalizationSeparates) {
  HmacDrbg a(str_bytes("seed"), {}, str_bytes("p1"));
  HmacDrbg b(str_bytes("seed"), {}, str_bytes("p2"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(DrbgTest, SequentialOutputsDiffer) {
  HmacDrbg a(str_bytes("seed"));
  EXPECT_NE(a.generate(32), a.generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  HmacDrbg a(str_bytes("seed"));
  HmacDrbg b(str_bytes("seed"));
  (void)a.generate(8);
  (void)b.generate(8);
  b.reseed(str_bytes("fresh entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(DrbgTest, GenerateZeroAndOddSizes) {
  HmacDrbg a(str_bytes("seed"));
  EXPECT_TRUE(a.generate(0).empty());
  EXPECT_EQ(a.generate(1).size(), 1u);
  EXPECT_EQ(a.generate(33).size(), 33u);
}

TEST(DrbgTest, UniformStaysBelowBound) {
  HmacDrbg a(str_bytes("seed"));
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(a.uniform(7), 7u);
  }
}

TEST(DrbgTest, UniformCoversRange) {
  HmacDrbg a(str_bytes("seed"));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(a.uniform(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(DrbgTest, UniformZeroBound) {
  HmacDrbg a(str_bytes("seed"));
  EXPECT_EQ(a.uniform(0), 0u);
  EXPECT_EQ(a.uniform(1), 0u);
}

// A generator exported mid-stream and imported into a fresh one
// continues the same byte stream.
TEST(DrbgTest, ExportImportContinuesStream) {
  HmacDrbg a(str_bytes("stream"), str_bytes("nonce"), str_bytes("pers"));
  (void)a.generate(45);
  (void)a.uniform(1000);
  const HmacDrbg::State mid = a.export_state();
  ASSERT_EQ(mid.k.size(), 32u);
  ASSERT_EQ(mid.v.size(), 32u);
  HmacDrbg b(str_bytes("unrelated"));
  b.import_state(mid);
  EXPECT_EQ(b.generate(77), a.generate(77));
  b.reseed(str_bytes("more"));
  a.reseed(str_bytes("more"));
  EXPECT_EQ(b.uniform(12345), a.uniform(12345));
  EXPECT_EQ(b.export_state().k, a.export_state().k);
  EXPECT_EQ(b.export_state().v, a.export_state().v);
}

TEST(DrbgTest, ImportRejectsBadSizes) {
  HmacDrbg a(str_bytes("x"));
  EXPECT_THROW(a.import_state({Bytes(31), Bytes(32)}), std::invalid_argument);
  EXPECT_THROW(a.import_state({Bytes(32), Bytes(33)}), std::invalid_argument);
}

TEST(DrbgTest, MakeRngSeparatesByName) {
  auto a = make_rng(7, "node-a");
  auto b = make_rng(7, "node-b");
  auto a2 = make_rng(7, "node-a");
  EXPECT_NE(a.generate(16), b.generate(16));
  EXPECT_EQ(make_rng(7, "node-a").generate(16), a2.generate(16));
}

}  // namespace
}  // namespace argus::crypto
