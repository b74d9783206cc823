// Timing-leak check in the style of dudect (Reparaz, Balasch, Verbauwhede,
// "Dude, is my code constant time?", DATE 2017): time an operation on a
// fixed secret and on fresh random secrets, interleaved in a random order,
// and compare the two timing distributions with Welch's t-test. |t| above
// about 4.5 means the two classes are distinguishable by timing, i.e. the
// operation's running time depends on the secret.
//
//   scalar_mul   ECDH's secret-scalar route, EcGroup::scalar_mul, on
//                P-256 with a fixed public point. The fixed scalar has a
//                long run of zero bits, which a zero-skipping window
//                would race through.
//   ecdsa_sign   P-256 signing of a fixed message under a fixed private
//                key versus random keys (the RFC 6979 nonce follows the
//                key, so the comb sees a fixed versus a random nonce).
//
// Each row reports t over all samples and over the fastest 90 % (dudect's
// cropping, which drops interrupt and migration outliers). This is a
// measurement, not a gate: on a shared VM the noise floor moves.
//
// Usage: bench_ct_dudect [--samples N]   (default 20000 per operation)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_crypto_backends.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ec.hpp"
#include "crypto/ecdsa.hpp"

using namespace argus;

namespace {

struct Welch {
  double n[2] = {0, 0};
  double mean[2] = {0, 0};
  double m2[2] = {0, 0};

  void add(int cls, double x) {
    n[cls] += 1;
    const double d = x - mean[cls];
    mean[cls] += d / n[cls];
    m2[cls] += d * (x - mean[cls]);
  }
  [[nodiscard]] double t() const {
    if (n[0] < 2 || n[1] < 2) return 0;
    const double v0 = m2[0] / (n[0] - 1);
    const double v1 = m2[1] / (n[1] - 1);
    return (mean[0] - mean[1]) / std::sqrt(v0 / n[0] + v1 / n[1]);
  }
};

struct Sample {
  int cls;
  double ns;
};

// Welch t over all samples and over those at or below the 90th
// percentile of the pooled timings.
void report(const char* name, const std::vector<Sample>& samples) {
  std::vector<double> sorted;
  sorted.reserve(samples.size());
  for (const Sample& s : samples) sorted.push_back(s.ns);
  std::sort(sorted.begin(), sorted.end());
  const double cut = sorted[sorted.size() * 9 / 10];
  Welch all, cropped;
  for (const Sample& s : samples) {
    all.add(s.cls, s.ns);
    if (s.ns <= cut) cropped.add(s.cls, s.ns);
  }
  const double t_all = all.t();
  const double t_crop = cropped.t();
  const bool leak = std::fabs(t_all) > 4.5 || std::fabs(t_crop) > 4.5;
  std::printf("%-12s n=%6.0f/%6.0f  fixed %9.1f us  random %9.1f us  "
              "t=%8.2f  t(p90)=%8.2f  %s\n",
              name, all.n[0], all.n[1], all.mean[0] / 1e3, all.mean[1] / 1e3,
              t_all, t_crop, leak ? "LEAK (|t| > 4.5)" : "no leak detected");
}

// Time op(secret) for `count` secrets: the class coin picks the fixed
// secret (class 0) or a fresh random one (class 1). Inputs are drawn
// before the timed loop, so only the operation itself is timed.
template <class Secret, class Op>
std::vector<Sample> measure(std::size_t count, crypto::HmacDrbg& coin,
                            const Secret& fixed,
                            const std::vector<Secret>& randoms, Op&& op) {
  std::vector<int> classes(count);
  for (int& c : classes) c = coin.generate(1)[0] & 1;
  std::vector<Sample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Secret& secret = classes[i] == 0 ? fixed : randoms[i];
    const auto t0 = std::chrono::steady_clock::now();
    op(secret);
    const auto t1 = std::chrono::steady_clock::now();
    out.push_back({classes[i],
                   std::chrono::duration<double, std::nano>(t1 - t0).count()});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t samples = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--samples N]\n", argv[0]);
      return 1;
    }
  }
  samples = std::max<std::size_t>(samples, 100);

  const crypto::EcGroup& g = crypto::group_for(crypto::Strength::b128);
  crypto::HmacDrbg coin(str_bytes("dudect-class-coin"));
  crypto::HmacDrbg secrets(str_bytes("dudect-secrets"));
  std::vector<crypto::UInt> randoms(samples);
  for (crypto::UInt& k : randoms) k = g.random_scalar(secrets);
  // 2^254 + 1: a valid scalar below n whose 4-bit windows are all zero
  // but the first and the last.
  crypto::UInt fixed;
  fixed.w[3] = std::uint64_t{1} << 62;
  fixed.w[0] = 1;

  const crypto::EcPoint peer = g.scalar_mul_base(g.random_scalar(secrets));
  const Bytes msg = str_bytes("QUE2 transcript digest");
  volatile std::uint64_t sink = 0;
  // Warm the lazy tables (comb, group statics) before timing.
  sink = sink + g.scalar_mul(peer, fixed).x.w[0];
  sink = sink + crypto::ecdsa_sign(g, fixed, msg).s.w[0];

  std::printf("dudect-style Welch t-test, P-256, fixed vs random secret\n"
              "%s\n",
              bench::crypto_backends().c_str());
  report("scalar_mul",
         measure(samples, coin, fixed, randoms, [&](const crypto::UInt& k) {
           sink = sink + g.scalar_mul(peer, k).x.w[0];
         }));
  report("ecdsa_sign",
         measure(samples, coin, fixed, randoms, [&](const crypto::UInt& d) {
           sink = sink + crypto::ecdsa_sign(g, d, msg).s.w[0];
         }));
  return 0;
}
