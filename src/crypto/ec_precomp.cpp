#include "crypto/ec_precomp.hpp"

#include <type_traits>

#include "obs/prof.hpp"

namespace argus::crypto {

EcPoint fixed_base_mul(const EcGroup& g, const UInt& k) {
  const UInt kr = mod(k, g.params().n);
  if (kr.is_zero()) return EcPoint::identity();
  return g.visit([&](const auto& tg) {
    auto acc = tg.identity();
    tg.fold_comb(acc, kr);
    return tg.to_affine(acc);
  });
}

EcPrecomp::EcPrecomp(const EcGroup& g, const EcPoint& p, std::size_t blocks)
    : g_(&g), p_(p), blocks_(blocks) {
  ARGUS_PROF_SCOPE("crypto.ec.precomp_build");
  g.visit([&](const auto& tg) { tab_ = tg.key_table(p_, blocks_); });
}

EcPoint EcPrecomp::mul(const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.precomp_mul");
  const UInt kr = mod(k, g_->params().n);
  if (kr.is_zero() || p_.infinity) return EcPoint::identity();
  return g_->visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    return tg.to_affine(tg.key_mul(comb<N>(), kr));
  });
}

EcPrecompCache::EcPrecompCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const EcPrecomp> EcPrecompCache::get(const EcGroup& g,
                                                     const EcPoint& p) {
  Coord cx{}, cy{};
  for (std::size_t i = 0; i < kMaxWords; ++i) {
    cx[i] = p.x.w[i];
    cy[i] = p.y.w[i];
  }
  const Key key{&g, cx, cy};

  std::lock_guard<std::mutex> lk(mu_);
  // Tables are built under the lock, so two threads never build one key
  // twice: a miss is ~15 additions plus one inversion, and a promotion
  // (100-150 us at P-256) happens at most once per key per residency.
  if (const auto it = map_.find(key); it != map_.end()) {
    map_.touch(it, clock_++);
    ++stats_.hits;
    Slot& slot = it->second.value;
    if (slot.hits < kPromoteOnHit && ++slot.hits == kPromoteOnHit) {
      slot.tab = std::make_shared<const EcPrecomp>(g, p, kPromotedBlocks);
      ++stats_.promotions;
    }
    return slot.tab;
  }
  ++stats_.misses;
  auto tab = std::make_shared<const EcPrecomp>(g, p);
  stats_.evictions += map_.trim(capacity_ - 1);
  map_.put(key, Slot{tab, 0}, clock_++);
  return tab;
}

EcPrecompCache::Stats EcPrecompCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t EcPrecompCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void EcPrecompCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  stats_ = Stats{};
}

EcPrecompCache& EcPrecompCache::global() {
  static EcPrecompCache cache(256);
  return cache;
}

bool shamir_verify_x(const EcGroup& g, const EcPrecomp& qtab, const UInt& u1,
                     const UInt& u2, const UInt& r) {
  ARGUS_PROF_SCOPE("crypto.ec.shamir_verify");
  const UInt& n = g.params().n;
  return g.visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    return tg.shamir_verify_x(qtab.comb<N>(), mod(u1, n), mod(u2, n), r);
  });
}

}  // namespace argus::crypto
