// Fig 6(a): computation time of ECDSA (sign/verify) and ECDH (parameter
// generation / secret computation) across security strengths 112/128/192/
// 256-bit — measured on this repository's real crypto. The paper's shape:
// cost grows with strength; verification/secret-computation is similar to
// or slightly above signing/generation.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_crypto_backends.hpp"
#include "bench_gbench_main.hpp"

#include "crypto/ecdh.hpp"
#include "crypto/hmac.hpp"

namespace {

using namespace argus;
using crypto::Strength;

const crypto::Strength kStrengths[] = {Strength::b112, Strength::b128,
                                       Strength::b192, Strength::b256};

// The kernels behind every row, in the context block printed above the
// table (google-benchmark's custom context).
const bool kBackendsNoted = [] {
  benchmark::AddCustomContext("crypto_backends", bench::crypto_backends());
  return true;
}();

void BM_EcdsaSign(benchmark::State& state) {
  const auto& g = crypto::group_for(kStrengths[state.range(0)]);
  auto rng = crypto::make_rng(1, "fig6a-sign");
  const auto kp = crypto::ec_generate(g, rng);
  const Bytes msg = str_bytes("QUE2 transcript digest");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_sign(g, kp.priv, msg));
  }
  state.SetLabel(g.params().name);
}
BENCHMARK(BM_EcdsaSign)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto& g = crypto::group_for(kStrengths[state.range(0)]);
  auto rng = crypto::make_rng(2, "fig6a-verify");
  const auto kp = crypto::ec_generate(g, rng);
  const Bytes msg = str_bytes("QUE2 transcript digest");
  const auto sig = crypto::ecdsa_sign(g, kp.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_verify(g, kp.pub, msg, sig));
  }
  state.SetLabel(g.params().name);
}
BENCHMARK(BM_EcdsaVerify)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// BM_EcdsaVerify reuses one key, so after its first iterations the
// precomp cache hands it a promoted (four-block) table. The paper's
// per-discovery verify meets a key for the first time: this row cycles
// through more keys than the 256-entry cache holds, so every verify
// misses, builds a one-block table and multiplies through it.
void BM_EcdsaVerifyFirstContact(benchmark::State& state) {
  constexpr std::size_t kKeys = 320;
  const auto& g = crypto::group_for(kStrengths[state.range(0)]);
  auto rng = crypto::make_rng(5, "fig6a-verify-first");
  const Bytes msg = str_bytes("QUE2 transcript digest");
  std::vector<crypto::EcPoint> pubs;
  std::vector<crypto::EcdsaSignature> sigs;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto kp = crypto::ec_generate(g, rng);
    pubs.push_back(kp.pub);
    sigs.push_back(crypto::ecdsa_sign(g, kp.priv, msg));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_verify(g, pubs[i], msg, sigs[i]));
    i = (i + 1) % kKeys;
  }
  state.SetLabel(g.params().name);
}
BENCHMARK(BM_EcdsaVerifyFirstContact)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_EcdhGenerate(benchmark::State& state) {
  const auto& g = crypto::group_for(kStrengths[state.range(0)]);
  auto rng = crypto::make_rng(3, "fig6a-gen");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdh_generate(g, rng));
  }
  state.SetLabel(g.params().name);
}
BENCHMARK(BM_EcdhGenerate)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_EcdhComputeSecret(benchmark::State& state) {
  const auto& g = crypto::group_for(kStrengths[state.range(0)]);
  auto rng = crypto::make_rng(4, "fig6a-secret");
  const auto a = crypto::ecdh_generate(g, rng);
  const auto b = crypto::ecdh_generate(g, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdh_shared_secret(g, a.priv, b.pub));
  }
  state.SetLabel(g.params().name);
}
BENCHMARK(BM_EcdhComputeSecret)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 1);
  const Bytes msg(64, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, msg));
  }
}
BENCHMARK(BM_HmacSha256)->Unit(benchmark::kMicrosecond);

}  // namespace

ARGUS_GBENCH_MAIN("fig6a")
