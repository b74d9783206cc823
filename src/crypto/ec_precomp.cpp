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

EcPrecomp::EcPrecomp(const EcGroup& g, const EcPoint& p) : g_(&g), p_(p) {
  g.visit([&](const auto& tg) { tab_ = tg.window_table(p_); });
}

EcPoint EcPrecomp::mul(const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.precomp_mul");
  const UInt kr = mod(k, g_->params().n);
  if (kr.is_zero() || p_.infinity) return EcPoint::identity();
  return g_->visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    return tg.to_affine(tg.window_mul(table<N>(), kr));
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
  if (const auto it = map_.find(key); it != map_.end()) {
    map_.touch(it, clock_++);
    ++stats_.hits;
    return it->second.value;
  }
  ++stats_.misses;
  // Built under the lock: a table is ~15 additions plus one inversion,
  // cheap enough that avoiding duplicate concurrent builds wins.
  auto tab = std::make_shared<const EcPrecomp>(g, p);
  stats_.evictions += map_.trim(capacity_ - 1);
  map_.put(key, tab, clock_++);
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
    return tg.shamir_verify_x(qtab.table<N>(), mod(u1, n), mod(u2, n), r);
  });
}

}  // namespace argus::crypto
