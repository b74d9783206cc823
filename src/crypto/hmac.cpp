#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

#include "obs/prof.hpp"

namespace argus::crypto {

namespace {

/// A label's bytes in place (str_bytes would copy them).
ByteSpan label_bytes(std::string_view label) {
  return {reinterpret_cast<const std::uint8_t*>(label.data()), label.size()};
}

}  // namespace

HmacKey::HmacKey(ByteSpan key) {
  constexpr std::size_t B = Sha256::kBlockSize;
  std::array<std::uint8_t, B> k0{};
  if (key.size() > B) {
    Sha256 kh;
    kh.update(key);
    kh.finish_into(k0.data());
  } else {
    std::copy(key.begin(), key.end(), k0.begin());
  }
  const auto midstate = [&k0](std::uint8_t fill) {
    std::array<std::uint8_t, B> pad{};
    for (std::size_t i = 0; i < B; ++i) pad[i] = k0[i] ^ fill;
    Sha256 h;
    h.update(pad);
    return h.export_state().state;
  };
  inner_ = midstate(0x36);
  outer_ = midstate(0x5c);
}

void HmacKey::mac_into(std::initializer_list<ByteSpan> parts,
                       std::uint8_t* out) const {
  ARGUS_PROF_SCOPE("crypto.hmac.sha256");
  std::array<std::uint8_t, Sha256::kDigestSize> inner_digest{};
  Sha256 inner(inner_, 1);
  for (const ByteSpan part : parts) inner.update(part);
  inner.finish_into(inner_digest.data());
  Sha256 outer(outer_, 1);
  outer.update(inner_digest);
  outer.finish_into(out);
}

Bytes HmacKey::mac(std::initializer_list<ByteSpan> parts) const {
  Bytes out(kMacSize);
  mac_into(parts, out.data());
  return out;
}

Bytes hmac_sha256(ByteSpan key, ByteSpan data) {
  return HmacKey(key).mac({data});
}

Bytes prf(ByteSpan secret, std::string_view label, ByteSpan seed) {
  return HmacKey(secret).mac({label_bytes(label), seed});
}

Bytes prf_expand(ByteSpan secret, std::string_view label, ByteSpan seed,
                 std::size_t out_len) {
  const HmacKey key(secret);
  Bytes out;
  out.reserve(out_len);
  std::array<std::uint8_t, HmacKey::kMacSize> block{};
  ByteSpan prev;  // T(0) = empty
  std::uint8_t counter = 1;
  while (out.size() < out_len) {
    key.mac_into({prev, label_bytes(label), seed, ByteSpan(&counter, 1)},
                 block.data());
    prev = block;
    const std::size_t take = std::min(block.size(), out_len - out.size());
    out.insert(out.end(), block.begin(),
               block.begin() + static_cast<std::ptrdiff_t>(take));
    ++counter;
  }
  return out;
}

}  // namespace argus::crypto
