// Snapshot/restore for both protocol engines.
//
// Each engine's walk covers *every* field that influences future
// behaviour — open sessions (with their mid-stream transcript hashes),
// reply caches, the replay window, admission buckets, the revocation
// set, the DRBG working state, clocks, LRU stamps, and stats — so a
// restored engine with resumption disabled continues byte-for-byte where
// the snapshot was taken. The one walk both writes and parses the format
// (persist/codec.hpp); persist::Envelope makes the restore blank-or-exact.
//
// Security invariant (both engines): cached premaster secrets are parsed
// but never committed, and the object's resumption epoch is bumped past
// the snapshot's — a reboot must force fresh key agreement, so a stolen
// or stale snapshot cannot revive old resumption material.

#include <string>
#include <utility>
#include <vector>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "persist/codec.hpp"

namespace argus::core {

// ---------------------------------------------------------------------------
// ObjectEngine

template <class Self, class Io>
void ObjectEngine::walk(Self& self, Io& io) {
  io.identity(self.cfg_.creds.id, self.cfg_.strength, self.cfg_.version,
              self.cfg_.seed);

  io.u64(self.epoch_);
  // Epoch rotation: one past the snapshot's, semi-static key retired.
  if constexpr (Io::kLoading) ++self.epoch_;
  io.f64(self.epoch_born_ms_);
  io.f64(self.now_ms_);
  io.u64(self.lru_seq_);
  io.f64(self.consumed_ms_);
  io.u64(self.last_revocation_seq_);

  auto& st = self.stats_;
  io.u64(st.que1_handled);
  io.u64(st.que2_handled);
  io.u64(st.replies_sent);
  io.u64(st.drops);
  io.u64(st.rejects);
  io.u64(st.replays_detected);
  io.u64(st.retransmissions);
  io.u64(st.fellows_confirmed);
  io.u64(st.evictions);
  io.u64(st.shed_overload);
  io.u64(st.rate_limited);
  io.u64(st.resumption_hits);
  io.u64(st.resumption_misses);
  io.u64(st.resumption_dropped);
  io.u64(st.batch_verified_sigs);
  io.u64(st.batch_fallback_sigs);

  io.f64(self.global_bucket_.tokens);
  io.f64(self.global_bucket_.last_ms);
  std::uint64_t global_stamp = 0;  // the global bucket is never evicted
  io.u64(global_stamp);

  io.table(self.sessions_, self.lru_seq_, [&](auto& r_s, auto& sess) {
    io.bytes16(sess.r_s);  // the table key
    if constexpr (Io::kLoading) r_s = sess.r_s;
    io.bytes16(sess.r_o);
    io.keypair(self.group_, sess.eph);
    io.u64(sess.eph_epoch);
    io.sha256(sess.transcript);
    io.bytes32(sess.res1_wire);
    io.f64(sess.born_ms);
  });
  io.table(self.res2_cache_, self.lru_seq_, [&](auto& r_s, auto& cached) {
    io.bytes16(r_s);
    io.bytes32(cached.wire);
    io.f64(cached.born_ms);
  });
  io.dropped(self.resume_cache_, st.resumption_dropped,
             [&](auto& cert_hash, auto& e) {
               io.bytes16(cert_hash);
               io.bytes16(e.peer_kexm);
               io.bytes16(e.pre_k);
               io.u64(e.epoch);
               io.f64(e.born_ms);
             });
  // Replay stamps are drawn once per insert, so they are also distinct.
  io.table(self.seen_rs_, self.lru_seq_,
           [&](auto& r_s, auto&) { io.bytes16(r_s); },
           persist::Stamps::kDistinct);
  io.table(self.peer_buckets_, self.lru_seq_, [&](auto& peer, auto& bucket) {
    io.u64(peer);
    io.f64(bucket.tokens);
    io.f64(bucket.last_ms);
  });
  io.seq(self.revoked_, [&](auto& id) { io.str(id); });
  io.drbg(self.rng_);
}

void ObjectEngine::reset_to_blank() {
  sessions_.clear();
  res2_cache_.clear();
  resume_cache_.clear();
  seen_rs_.clear();
  peer_buckets_.clear();
  revoked_.clear();
  verified_ = crypto::VerifiedCache{};
  global_bucket_ = TokenBucket{};
  global_bucket_.tokens = cfg_.admission.global_burst;
  epoch_eph_ = crypto::EcKeyPair{};
  epoch_eph_valid_ = false;
  epoch_ = 0;
  epoch_born_ms_ = 0;
  last_revocation_seq_ = 0;
  consumed_ms_ = 0;
  now_ms_ = 0;
  lru_seq_ = 0;
  stats_ = Stats{};
  rng_ = crypto::make_rng(cfg_.seed, "object:" + cfg_.creds.id);
}

Bytes ObjectEngine::snapshot() const { return persist::Envelope::seal(*this); }

Bytes ObjectEngine::state_digest() const {
  return persist::Envelope::digest(*this);
}

persist::RestoreError ObjectEngine::restore(ByteSpan sealed) {
  return persist::Envelope::restore(*this, sealed);
}

// ---------------------------------------------------------------------------
// SubjectEngine

namespace {

/// Discovered attributes travel as name/value pairs; on load a repeated
/// name keeps its last value.
template <class Io, class Attrs>
void walk_attribute_pairs(Io& io, Attrs& attrs) {
  std::vector<std::pair<std::string, std::string>> pairs(
      attrs.items().begin(), attrs.items().end());
  io.seq(pairs, [&](auto& kv) {
    io.str(kv.first);
    io.str(kv.second);
  });
  if constexpr (Io::kLoading) {
    for (const auto& [name, value] : pairs) attrs.set(name, value);
  }
}

}  // namespace

template <class Self, class Io>
void SubjectEngine::walk(Self& self, Io& io) {
  io.identity(self.cfg_.creds.id, self.cfg_.strength, self.cfg_.version,
              self.cfg_.seed);

  io.bytes16(self.r_s_);
  io.bytes32(self.que1_wire_);
  io.u64(self.group_idx_);
  if constexpr (Io::kLoading) {
    if (self.group_idx_ >= self.cfg_.creds.group_keys.size()) {
      throw persist::IdentityMismatchError("group index beyond credentials");
    }
  }
  io.u64(self.lru_seq_);
  io.f64(self.consumed_ms_);

  auto& st = self.stats_;
  io.u64(st.rounds);
  io.u64(st.res1_l1);
  io.u64(st.res1);
  io.u64(st.res2);
  io.u64(st.drops);
  io.u64(st.rejects);
  io.u64(st.retransmissions);
  io.u64(st.resumption_hits);
  io.u64(st.resumption_misses);
  io.u64(st.resumption_dropped);

  io.map(self.sessions_, [&](auto& r_o, auto& sess) {
    io.bytes16(r_o);
    io.str(sess.object_id);
    io.bytes16(sess.k2);
    io.bytes16(sess.k3);
    io.sha256(sess.transcript);
    io.bytes32(sess.que2_wire);
  });
  io.dropped(self.resume_cache_, st.resumption_dropped,
             [&](auto& cert_hash, auto& e) {
               io.bytes16(cert_hash);
               io.bytes16(e.object_kexm);
               io.keypair(self.group_, e.eph);
               io.bytes16(e.pre_k);
               io.u64(e.born_now);
             });
  io.seq(self.completed_, [&](auto& r_o) { io.bytes16(r_o); });
  io.seq(self.discovered_, [&](auto& svc) {
    io.str(svc.object_id);
    io.u32(svc.level);
    io.str(svc.variant_tag);
    io.seq(svc.services, [&](auto& s) { io.str(s); });
    walk_attribute_pairs(io, svc.attributes);
  });
  io.drbg(self.rng_);
}

void SubjectEngine::reset_to_blank() {
  r_s_.clear();
  que1_wire_.clear();
  group_idx_ = 0;
  sessions_.clear();
  resume_cache_.clear();
  completed_.clear();
  discovered_.clear();
  verified_ = crypto::VerifiedCache{};
  lru_seq_ = 0;
  consumed_ms_ = 0;
  stats_ = Stats{};
  rng_ = crypto::make_rng(cfg_.seed, "subject:" + cfg_.creds.id);
}

Bytes SubjectEngine::snapshot() const {
  return persist::Envelope::seal(*this);
}

Bytes SubjectEngine::state_digest() const {
  return persist::Envelope::digest(*this);
}

persist::RestoreError SubjectEngine::restore(ByteSpan sealed) {
  return persist::Envelope::restore(*this, sealed);
}

}  // namespace argus::core
