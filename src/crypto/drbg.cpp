#include "crypto/drbg.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/serde.hpp"

namespace argus::crypto {

namespace {

std::array<std::uint8_t, 32> filled(std::uint8_t byte) {
  std::array<std::uint8_t, 32> a{};
  a.fill(byte);
  return a;
}

}  // namespace

HmacDrbg::HmacDrbg(ByteSpan entropy, ByteSpan nonce, ByteSpan personalization)
    : k_(filled(0x00)), v_(filled(0x01)), key_(k_) {
  Bytes seed = concat({entropy, nonce, personalization});
  update(seed);
}

void HmacDrbg::rekey(std::uint8_t sep, ByteSpan data1, ByteSpan data2) {
  key_.mac_into({v_, ByteSpan(&sep, 1), data1, data2}, k_.data());
  key_ = HmacKey(k_);
}

void HmacDrbg::update(ByteSpan data1, ByteSpan data2) {
  rekey(0x00, data1, data2);
  key_.mac_into({v_}, v_.data());
  if (!data1.empty() || !data2.empty()) {
    rekey(0x01, data1, data2);
    key_.mac_into({v_}, v_.data());
  }
}

void HmacDrbg::fill(std::uint8_t* out, std::size_t n) {
  for (std::size_t done = 0; done < n;) {
    key_.mac_into({v_}, v_.data());
    const std::size_t take = std::min(v_.size(), n - done);
    std::copy_n(v_.begin(), take, out + done);
    done += take;
  }
  update({});
}

Bytes HmacDrbg::generate(std::size_t n) {
  Bytes out(n);
  fill(out.data(), n);
  return out;
}

void HmacDrbg::reseed(ByteSpan entropy) { update(entropy); }

void HmacDrbg::import_state(const State& s) {
  if (s.k.size() != 32 || s.v.size() != 32) {
    throw std::invalid_argument("HmacDrbg::import_state: bad state size");
  }
  std::copy(s.k.begin(), s.k.end(), k_.begin());
  std::copy(s.v.begin(), s.v.end(), v_.begin());
  key_ = HmacKey(k_);
}

std::uint64_t HmacDrbg::uniform(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling over the smallest power-of-two envelope.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  for (;;) {
    std::uint8_t b[8] = {};
    fill(b, sizeof b);
    std::uint64_t x = 0;
    for (const std::uint8_t byte : b) x = (x << 8) | byte;
    if (x < limit) return x % bound;
  }
}

HmacDrbg make_rng(std::uint64_t run_seed, std::string_view name) {
  ByteWriter w;
  w.u64(run_seed);
  w.str(name);
  return HmacDrbg(w.data(), {}, str_bytes("argus-rng"));
}

}  // namespace argus::crypto
