#include "crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "obs/prof.hpp"

namespace argus::crypto {

namespace {

// GF(2^8) helpers. The S-box is computed at startup (multiplicative
// inverse followed by the affine map) rather than transcribed, removing a
// whole class of table-typo bugs.
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = a & 0x80;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1b;  // x^8 + x^4 + x^3 + x + 1
    b >>= 1;
  }
  return p;
}

struct Tables {
  std::uint8_t sbox[256];
  std::uint8_t inv_sbox[256];
  Tables() {
    // Multiplicative inverses via brute force (one-time cost).
    std::uint8_t inv[256] = {0};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (gf_mul(static_cast<std::uint8_t>(a),
                   static_cast<std::uint8_t>(b)) == 1) {
          inv[a] = static_cast<std::uint8_t>(b);
          break;
        }
      }
    }
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t x = inv[i];
      std::uint8_t y = x;
      std::uint8_t s = x;
      for (int r = 0; r < 4; ++r) {
        y = static_cast<std::uint8_t>((y << 1) | (y >> 7));
        s ^= y;
      }
      s ^= 0x63;
      sbox[i] = s;
      inv_sbox[s] = static_cast<std::uint8_t>(i);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& t = tables();
  return static_cast<std::uint32_t>(t.sbox[(w >> 24) & 0xff]) << 24 |
         static_cast<std::uint32_t>(t.sbox[(w >> 16) & 0xff]) << 16 |
         static_cast<std::uint32_t>(t.sbox[(w >> 8) & 0xff]) << 8 |
         static_cast<std::uint32_t>(t.sbox[w & 0xff]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

}  // namespace

Aes::Aes(ByteSpan key) {
  const std::size_t nk = key.size() / 4;
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    throw std::invalid_argument("Aes: key must be 16/24/32 bytes");
  }
  rounds_ = static_cast<int>(nk) + 6;
  const int nw = 4 * (rounds_ + 1);

  for (std::size_t i = 0; i < nk; ++i) {
    ek_[i] = static_cast<std::uint32_t>(key[4 * i]) << 24 |
             static_cast<std::uint32_t>(key[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(key[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(key[4 * i + 3]);
  }
  std::uint8_t rcon = 1;
  for (std::size_t i = nk; i < static_cast<std::size_t>(nw); ++i) {
    std::uint32_t temp = ek_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ (static_cast<std::uint32_t>(rcon) << 24);
      rcon = gf_mul(rcon, 2);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    ek_[i] = ek_[i - nk] ^ temp;
  }
  // Decryption keys: same schedule, used in reverse with InvMixColumns
  // applied inside decrypt_block (equivalent-inverse not needed for our
  // simple column-wise implementation).
  dk_ = ek_;
}

namespace {

void add_round_key(std::uint8_t st[16], const std::uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    st[4 * c] ^= static_cast<std::uint8_t>(rk[c] >> 24);
    st[4 * c + 1] ^= static_cast<std::uint8_t>(rk[c] >> 16);
    st[4 * c + 2] ^= static_cast<std::uint8_t>(rk[c] >> 8);
    st[4 * c + 3] ^= static_cast<std::uint8_t>(rk[c]);
  }
}

void sub_bytes(std::uint8_t st[16], const std::uint8_t* box) {
  for (int i = 0; i < 16; ++i) st[i] = box[st[i]];
}

// State layout: st[4*c + r] = byte at row r, column c (FIPS column-major).
void shift_rows(std::uint8_t st[16]) {
  std::uint8_t t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) {
      t[4 * c + r] = st[4 * ((c + r) % 4) + r];
    }
  }
  std::memcpy(st, t, 16);
}

void inv_shift_rows(std::uint8_t st[16]) {
  std::uint8_t t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) {
      t[4 * ((c + r) % 4) + r] = st[4 * c + r];
    }
  }
  std::memcpy(st, t, 16);
}

void mix_columns(std::uint8_t st[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = st + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3;
    col[1] = a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3;
    col[2] = a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3);
    col[3] = gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2);
  }
}

void inv_mix_columns(std::uint8_t st[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = st + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gf_mul(a0, 14) ^ gf_mul(a1, 11) ^ gf_mul(a2, 13) ^ gf_mul(a3, 9);
    col[1] = gf_mul(a0, 9) ^ gf_mul(a1, 14) ^ gf_mul(a2, 11) ^ gf_mul(a3, 13);
    col[2] = gf_mul(a0, 13) ^ gf_mul(a1, 9) ^ gf_mul(a2, 14) ^ gf_mul(a3, 11);
    col[3] = gf_mul(a0, 11) ^ gf_mul(a1, 13) ^ gf_mul(a2, 9) ^ gf_mul(a3, 14);
  }
}

}  // namespace

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  const auto& t = tables();
  std::uint8_t st[16];
  std::memcpy(st, in, 16);
  add_round_key(st, ek_.data());
  for (int r = 1; r < rounds_; ++r) {
    sub_bytes(st, t.sbox);
    shift_rows(st);
    mix_columns(st);
    add_round_key(st, ek_.data() + 4 * r);
  }
  sub_bytes(st, t.sbox);
  shift_rows(st);
  add_round_key(st, ek_.data() + 4 * rounds_);
  std::memcpy(out, st, 16);
}

void Aes::decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  const auto& t = tables();
  std::uint8_t st[16];
  std::memcpy(st, in, 16);
  add_round_key(st, dk_.data() + 4 * rounds_);
  for (int r = rounds_ - 1; r >= 1; --r) {
    inv_shift_rows(st);
    sub_bytes(st, t.inv_sbox);
    add_round_key(st, dk_.data() + 4 * r);
    inv_mix_columns(st);
  }
  inv_shift_rows(st);
  sub_bytes(st, t.inv_sbox);
  add_round_key(st, dk_.data());
  std::memcpy(out, st, 16);
}

Bytes aes_cbc_encrypt(ByteSpan key, ByteSpan iv, ByteSpan plaintext) {
  ARGUS_PROF_SCOPE("crypto.aes.cbc_encrypt");
  if (iv.size() != Aes::kBlockSize) {
    throw std::invalid_argument("aes_cbc_encrypt: IV must be 16 bytes");
  }
  const Aes aes(key);
  const std::size_t pad = Aes::kBlockSize - plaintext.size() % Aes::kBlockSize;
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));

  Bytes out(padded.size());
  std::uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (std::size_t off = 0; off < padded.size(); off += 16) {
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = padded[off + i] ^ chain[i];
    aes.encrypt_block(block, out.data() + off);
    std::memcpy(chain, out.data() + off, 16);
  }
  return out;
}

Bytes aes_cbc_decrypt(ByteSpan key, ByteSpan iv, ByteSpan ciphertext) {
  ARGUS_PROF_SCOPE("crypto.aes.cbc_decrypt");
  if (iv.size() != Aes::kBlockSize ||
      ciphertext.size() % Aes::kBlockSize != 0 || ciphertext.empty()) {
    throw std::invalid_argument("aes_cbc_decrypt: bad input size");
  }
  const Aes aes(key);
  Bytes out(ciphertext.size());
  std::uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (std::size_t off = 0; off < ciphertext.size(); off += 16) {
    std::uint8_t block[16];
    aes.decrypt_block(ciphertext.data() + off, block);
    for (int i = 0; i < 16; ++i) out[off + i] = block[i] ^ chain[i];
    std::memcpy(chain, ciphertext.data() + off, 16);
  }
  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > 16 || pad > out.size()) {
    throw std::invalid_argument("aes_cbc_decrypt: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) {
      throw std::invalid_argument("aes_cbc_decrypt: bad padding");
    }
  }
  out.resize(out.size() - pad);
  return out;
}

namespace {

struct BoxKeys {
  Bytes enc_key;   // AES-128
  HmacKey mac_key;  // HMAC-SHA256, pads absorbed
};

BoxKeys derive_box_keys(ByteSpan session_key) {
  const Bytes km = prf_expand(session_key, "sealed box", {}, 48);
  return BoxKeys{Bytes(km.begin(), km.begin() + 16),
                 HmacKey(ByteSpan(km).subspan(16))};
}

bool well_formed(ByteSpan box) {
  constexpr std::size_t kFrame = SealedBox::kIvSize + SealedBox::kTagSize;
  return box.size() >= kFrame + Aes::kBlockSize &&
         (box.size() - kFrame) % Aes::kBlockSize == 0;
}

bool tag_verifies(const BoxKeys& keys, ByteSpan box) {
  const ByteSpan body = box.first(box.size() - SealedBox::kTagSize);
  std::uint8_t expect[SealedBox::kTagSize] = {};
  keys.mac_key.mac_into({body}, expect);
  return ct_equal(expect, box.last(SealedBox::kTagSize));
}

}  // namespace

Bytes SealedBox::seal(ByteSpan session_key, ByteSpan iv, ByteSpan plaintext) {
  const BoxKeys keys = derive_box_keys(session_key);
  Bytes box = concat({iv, aes_cbc_encrypt(keys.enc_key, iv, plaintext)});
  const std::size_t body = box.size();
  box.resize(body + kTagSize);
  keys.mac_key.mac_into({ByteSpan(box).first(body)}, box.data() + body);
  return box;
}

Bytes SealedBox::open(ByteSpan session_key, ByteSpan box) {
  if (!well_formed(box)) {
    throw std::invalid_argument("SealedBox: authentication failed");
  }
  const BoxKeys keys = derive_box_keys(session_key);
  if (!tag_verifies(keys, box)) {
    throw std::invalid_argument("SealedBox: authentication failed");
  }
  ByteSpan iv = box.subspan(0, kIvSize);
  ByteSpan ct = box.subspan(kIvSize, box.size() - kIvSize - kTagSize);
  return aes_cbc_decrypt(keys.enc_key, iv, ct);
}

bool SealedBox::verifies(ByteSpan session_key, ByteSpan box) {
  return well_formed(box) && tag_verifies(derive_box_keys(session_key), box);
}

std::size_t SealedBox::sealed_size(std::size_t plaintext_len) {
  const std::size_t ct =
      (plaintext_len / Aes::kBlockSize + 1) * Aes::kBlockSize;
  return kIvSize + ct + kTagSize;
}

}  // namespace argus::crypto
