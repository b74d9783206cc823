#include "crypto/verified_cache.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace argus::crypto {

namespace {

void absorb_field(Sha256& h, ByteSpan data) {
  const auto n = static_cast<std::uint32_t>(data.size());
  const std::uint8_t len[4] = {
      static_cast<std::uint8_t>(n >> 24), static_cast<std::uint8_t>(n >> 16),
      static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)};
  h.update(len);
  h.update(data);
}

}  // namespace

VerifiedCache::Key VerifiedCache::key(const EcGroup& group,
                                      const EcPoint& signer,
                                      ByteSpan signed_bytes,
                                      ByteSpan signature) {
  Sha256 h;
  absorb_field(h, group.encode_point(signer));
  absorb_field(h, signed_bytes);
  absorb_field(h, signature);
  const Bytes digest = h.finish();
  Key out;
  std::copy(digest.begin(), digest.end(), out.begin());
  return out;
}

bool VerifiedCache::contains(const Key& key) {
  if (table_) {
    if (const auto it = table_->find(key); it != table_->end()) {
      ++hits_;
      table_->touch(it, clock_++);
      return true;
    }
  }
  ++misses_;
  return false;
}

void VerifiedCache::insert(const Key& key) {
  if (!table_) table_ = std::make_unique<Table>();
  table_->try_emplace(key, clock_++);
  table_->trim(kCapacity);
}

}  // namespace argus::crypto
