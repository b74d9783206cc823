// Snapshot/restore for both protocol engines.
//
// The payload serializers cover *every* field that influences future
// behaviour — open sessions (with their mid-stream transcript hashes),
// reply caches, the replay window, admission buckets, the revocation
// set, the DRBG working state, clocks, LRU stamps, and stats — so a
// restored engine with resumption disabled continues byte-for-byte where
// the snapshot was taken.
//
// Restore is blank-or-exact: the engine is reset to its post-construction
// state first, the payload is parsed entirely into temporaries, identity
// (entity id, strength, protocol version, seed) is checked against the
// live config, and only then is everything committed with non-throwing
// moves. Any failure on the way leaves the blank state.
//
// Security invariant (both engines): cached premaster secrets are parsed
// but never committed, and the object's resumption epoch is bumped past
// the snapshot's — a reboot must force fresh key agreement, so a stolen
// or stale snapshot cannot revive old resumption material.

#include <algorithm>
#include <utility>
#include <vector>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "common/serde.hpp"
#include "persist/codec.hpp"

namespace argus::core {

namespace {

using persist::get_f64;
using persist::put_f64;

void check_identity(const std::string& got_id, const std::string& want_id,
                    std::uint8_t got_strength, crypto::Strength want_strength,
                    std::uint8_t got_version, ProtocolVersion want_version,
                    std::uint64_t got_seed, std::uint64_t want_seed) {
  if (got_id != want_id ||
      got_strength != static_cast<std::uint8_t>(want_strength) ||
      got_version != static_cast<std::uint8_t>(want_version) ||
      got_seed != want_seed) {
    throw persist::IdentityMismatchError("engine snapshot identity mismatch");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ObjectEngine

void ObjectEngine::save_state(ByteWriter& w) const {
  w.str(cfg_.creds.id);
  w.u8(static_cast<std::uint8_t>(cfg_.strength));
  w.u8(static_cast<std::uint8_t>(cfg_.version));
  w.u64(cfg_.seed);

  w.u64(epoch_);
  put_f64(w, epoch_born_ms_);
  put_f64(w, now_ms_);
  w.u64(lru_seq_);
  put_f64(w, consumed_ms_);
  w.u64(last_revocation_seq_);

  w.u64(stats_.que1_handled);
  w.u64(stats_.que2_handled);
  w.u64(stats_.replies_sent);
  w.u64(stats_.drops);
  w.u64(stats_.rejects);
  w.u64(stats_.replays_detected);
  w.u64(stats_.retransmissions);
  w.u64(stats_.fellows_confirmed);
  w.u64(stats_.evictions);
  w.u64(stats_.shed_overload);
  w.u64(stats_.rate_limited);
  w.u64(stats_.resumption_hits);
  w.u64(stats_.resumption_misses);
  w.u64(stats_.resumption_dropped);
  w.u64(stats_.batch_verified_sigs);
  w.u64(stats_.batch_fallback_sigs);

  put_f64(w, global_bucket_.tokens);
  put_f64(w, global_bucket_.last_ms);
  w.u64(0);  // the global bucket's stamp: it is never evicted

  w.u32(static_cast<std::uint32_t>(sessions_.size()));
  for (const auto& [r_s, entry] : sessions_) {
    const Session& sess = entry.value;
    w.bytes16(sess.r_s);
    w.bytes16(sess.r_o);
    persist::put_keypair(w, group_, sess.eph);
    w.u64(sess.eph_epoch);
    persist::put_sha256(w, sess.transcript.export_state());
    w.bytes32(sess.res1_wire);
    put_f64(w, sess.born_ms);
    w.u64(entry.stamp);
  }

  w.u32(static_cast<std::uint32_t>(res2_cache_.size()));
  for (const auto& [r_s, entry] : res2_cache_) {
    w.bytes16(r_s);
    w.bytes32(entry.value.wire);
    put_f64(w, entry.value.born_ms);
    w.u64(entry.stamp);
  }

  // Serialized for completeness (a snapshot is a full state capture);
  // restore drops every entry — see the security invariant above.
  w.u32(static_cast<std::uint32_t>(resume_cache_.size()));
  for (const auto& [cert_hash, entry] : resume_cache_) {
    w.bytes16(cert_hash);
    w.bytes16(entry.value.peer_kexm);
    w.bytes16(entry.value.pre_k);
    w.u64(entry.value.epoch);
    put_f64(w, entry.value.born_ms);
    w.u64(entry.stamp);
  }

  w.u32(static_cast<std::uint32_t>(seen_rs_.size()));
  for (const auto& [r_s, entry] : seen_rs_) {
    w.bytes16(r_s);
    w.u64(entry.stamp);
  }

  w.u32(static_cast<std::uint32_t>(peer_buckets_.size()));
  for (const auto& [peer, entry] : peer_buckets_) {
    w.u64(peer);
    put_f64(w, entry.value.tokens);
    put_f64(w, entry.value.last_ms);
    w.u64(entry.stamp);
  }

  w.u32(static_cast<std::uint32_t>(revoked_.size()));
  for (const std::string& id : revoked_) w.str(id);

  persist::put_drbg(w, rng_);
}

void ObjectEngine::load_state(ByteReader& r) {
  const std::string id = r.str();
  const std::uint8_t strength = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint64_t seed = r.u64();
  check_identity(id, cfg_.creds.id, strength, cfg_.strength, version,
                 cfg_.version, seed, cfg_.seed);

  const std::uint64_t epoch = r.u64();
  const double epoch_born_ms = get_f64(r);
  const double now_ms = get_f64(r);
  const std::uint64_t lru_seq = r.u64();
  const double consumed_ms = get_f64(r);
  const std::uint64_t last_revocation_seq = r.u64();
  // Every table stamp came from lru_seq, so it is below the restored
  // counter, and every stamp the engine draws next lands past it. The
  // tables' eviction order relies on that.
  const auto stamp_below_seq = [&](std::uint64_t stamp) {
    if (stamp >= lru_seq) {
      throw std::invalid_argument("ObjectEngine: stamp from the future");
    }
    return stamp;
  };

  Stats stats;
  stats.que1_handled = r.u64();
  stats.que2_handled = r.u64();
  stats.replies_sent = r.u64();
  stats.drops = r.u64();
  stats.rejects = r.u64();
  stats.replays_detected = r.u64();
  stats.retransmissions = r.u64();
  stats.fellows_confirmed = r.u64();
  stats.evictions = r.u64();
  stats.shed_overload = r.u64();
  stats.rate_limited = r.u64();
  stats.resumption_hits = r.u64();
  stats.resumption_misses = r.u64();
  stats.resumption_dropped = r.u64();
  stats.batch_verified_sigs = r.u64();
  stats.batch_fallback_sigs = r.u64();

  TokenBucket global_bucket;
  global_bucket.tokens = get_f64(r);
  global_bucket.last_ms = get_f64(r);
  (void)r.u64();  // the global bucket's stamp

  decltype(sessions_)::Index sessions;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    Session sess;
    sess.r_s = r.bytes16();
    sess.r_o = r.bytes16();
    sess.eph = persist::get_keypair(r, group_);
    sess.eph_epoch = r.u64();
    sess.transcript.import_state(persist::get_sha256(r));
    sess.res1_wire = r.bytes32();
    sess.born_ms = get_f64(r);
    const std::uint64_t stamp = stamp_below_seq(r.u64());
    Bytes key = sess.r_s;
    sessions.emplace(std::move(key), decltype(sessions_)::Entry{
                                         std::move(sess), stamp});
  }

  decltype(res2_cache_)::Index res2_cache;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    Bytes key = r.bytes16();
    CachedRes2 cached;
    cached.wire = r.bytes32();
    cached.born_ms = get_f64(r);
    const std::uint64_t stamp = stamp_below_seq(r.u64());
    res2_cache.emplace(std::move(key), decltype(res2_cache_)::Entry{
                                           std::move(cached), stamp});
  }

  // Parsed for envelope integrity, never committed: premaster caches die
  // with the snapshot.
  std::uint64_t resume_dropped = 0;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    (void)r.bytes16();  // cert hash
    (void)r.bytes16();  // peer kexm
    (void)r.bytes16();  // premaster
    (void)r.u64();      // epoch
    (void)get_f64(r);   // born_ms
    (void)r.u64();      // stamp
    ++resume_dropped;
  }

  // Replay stamps are drawn once per insert, so they are also distinct.
  decltype(seen_rs_)::Index seen_rs;
  std::vector<std::uint64_t> stamps;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    Bytes key = r.bytes16();
    const std::uint64_t stamp = stamp_below_seq(r.u64());
    stamps.push_back(stamp);
    seen_rs.emplace(std::move(key), decltype(seen_rs_)::Entry{{}, stamp});
  }
  std::sort(stamps.begin(), stamps.end());
  if (std::adjacent_find(stamps.begin(), stamps.end()) != stamps.end()) {
    throw std::invalid_argument("ObjectEngine: repeated replay stamp");
  }

  decltype(peer_buckets_)::Index peer_buckets;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint64_t peer = r.u64();
    TokenBucket bucket;
    bucket.tokens = get_f64(r);
    bucket.last_ms = get_f64(r);
    const std::uint64_t stamp = stamp_below_seq(r.u64());
    peer_buckets.emplace(peer, decltype(peer_buckets_)::Entry{bucket, stamp});
  }

  std::set<std::string> revoked;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) revoked.insert(r.str());

  crypto::HmacDrbg::State rng_state;
  rng_state.k = r.bytes16();
  rng_state.v = r.bytes16();
  r.expect_done();

  // Everything parsed and validated; commit wholesale (non-throwing).
  // rng_.import_state validates sizes, so run it before the moves.
  rng_.import_state(rng_state);
  // Epoch rotation: one past the snapshot's, semi-static key retired.
  epoch_ = epoch + 1;
  epoch_eph_valid_ = false;
  epoch_born_ms_ = epoch_born_ms;
  now_ms_ = now_ms;
  lru_seq_ = lru_seq;
  consumed_ms_ = consumed_ms;
  last_revocation_seq_ = last_revocation_seq;
  stats_ = stats;
  stats_.resumption_dropped += resume_dropped;
  global_bucket_ = global_bucket;
  sessions_.assign(std::move(sessions));
  res2_cache_.assign(std::move(res2_cache));
  resume_cache_.clear();
  seen_rs_.assign(std::move(seen_rs));
  peer_buckets_.assign(std::move(peer_buckets));
  revoked_ = std::move(revoked);
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

Bytes ObjectEngine::snapshot() const {
  ByteWriter w;
  save_state(w);
  return persist::seal_snapshot(persist::SnapshotKind::kObjectEngine,
                                w.data());
}

Bytes ObjectEngine::state_digest() const {
  ByteWriter w;
  save_state(w);
  return crypto::Sha256::hash(w.data());
}

persist::RestoreError ObjectEngine::restore(ByteSpan sealed) {
  reset_to_blank();
  const persist::OpenResult open =
      persist::open_snapshot(sealed, persist::SnapshotKind::kObjectEngine);
  if (!open) return open.error;
  try {
    ByteReader r(open.payload);
    load_state(r);
  } catch (const persist::IdentityMismatchError&) {
    reset_to_blank();
    return persist::RestoreError::kIdentityMismatch;
  } catch (const std::exception&) {
    reset_to_blank();
    return persist::RestoreError::kBadPayload;
  }
  return persist::RestoreError::kOk;
}

// ---------------------------------------------------------------------------
// SubjectEngine

void SubjectEngine::save_state(ByteWriter& w) const {
  w.str(cfg_.creds.id);
  w.u8(static_cast<std::uint8_t>(cfg_.strength));
  w.u8(static_cast<std::uint8_t>(cfg_.version));
  w.u64(cfg_.seed);

  w.bytes16(r_s_);
  w.bytes32(que1_wire_);
  w.u64(group_idx_);
  w.u64(lru_seq_);
  put_f64(w, consumed_ms_);

  w.u64(stats_.rounds);
  w.u64(stats_.res1_l1);
  w.u64(stats_.res1);
  w.u64(stats_.res2);
  w.u64(stats_.drops);
  w.u64(stats_.rejects);
  w.u64(stats_.retransmissions);
  w.u64(stats_.resumption_hits);
  w.u64(stats_.resumption_misses);
  w.u64(stats_.resumption_dropped);

  w.u32(static_cast<std::uint32_t>(sessions_.size()));
  for (const auto& [r_o, sess] : sessions_) {
    w.bytes16(r_o);
    w.str(sess.object_id);
    w.bytes16(sess.k2);
    w.bytes16(sess.k3);
    persist::put_sha256(w, sess.transcript.export_state());
    w.bytes32(sess.que2_wire);
  }

  // Serialized for completeness; restore drops every entry (security
  // invariant: premasters never survive a reboot).
  w.u32(static_cast<std::uint32_t>(resume_cache_.size()));
  for (const auto& [cert_hash, entry] : resume_cache_) {
    w.bytes16(cert_hash);
    w.bytes16(entry.value.object_kexm);
    persist::put_keypair(w, group_, entry.value.eph);
    w.bytes16(entry.value.pre_k);
    w.u64(entry.value.born_now);
    w.u64(entry.stamp);
  }

  w.u32(static_cast<std::uint32_t>(completed_.size()));
  for (const Bytes& r_o : completed_) w.bytes16(r_o);

  w.u32(static_cast<std::uint32_t>(discovered_.size()));
  for (const DiscoveredService& svc : discovered_) {
    w.str(svc.object_id);
    w.u32(static_cast<std::uint32_t>(svc.level));
    w.str(svc.variant_tag);
    w.u32(static_cast<std::uint32_t>(svc.services.size()));
    for (const std::string& s : svc.services) w.str(s);
    w.u32(static_cast<std::uint32_t>(svc.attributes.size()));
    for (const auto& [k, v] : svc.attributes.items()) {
      w.str(k);
      w.str(v);
    }
  }

  persist::put_drbg(w, rng_);
}

void SubjectEngine::load_state(ByteReader& r) {
  const std::string id = r.str();
  const std::uint8_t strength = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint64_t seed = r.u64();
  check_identity(id, cfg_.creds.id, strength, cfg_.strength, version,
                 cfg_.version, seed, cfg_.seed);

  Bytes r_s = r.bytes16();
  Bytes que1_wire = r.bytes32();
  const std::uint64_t group_idx = r.u64();
  if (group_idx >= cfg_.creds.group_keys.size()) {
    throw persist::IdentityMismatchError("group index beyond credentials");
  }
  const std::uint64_t lru_seq = r.u64();
  const double consumed_ms = get_f64(r);

  Stats stats;
  stats.rounds = r.u64();
  stats.res1_l1 = r.u64();
  stats.res1 = r.u64();
  stats.res2 = r.u64();
  stats.drops = r.u64();
  stats.rejects = r.u64();
  stats.retransmissions = r.u64();
  stats.resumption_hits = r.u64();
  stats.resumption_misses = r.u64();
  stats.resumption_dropped = r.u64();

  std::map<Bytes, Session> sessions;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    Bytes key = r.bytes16();
    Session sess;
    sess.object_id = r.str();
    sess.k2 = r.bytes16();
    sess.k3 = r.bytes16();
    sess.transcript.import_state(persist::get_sha256(r));
    sess.que2_wire = r.bytes32();
    sessions.emplace(std::move(key), std::move(sess));
  }

  std::uint64_t resume_dropped = 0;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    (void)r.bytes16();                   // cert hash
    (void)r.bytes16();                   // object kexm
    (void)persist::get_keypair(r, group_);  // cached ephemeral
    (void)r.bytes16();                   // premaster
    (void)r.u64();                       // born_now
    (void)r.u64();                       // stamp
    ++resume_dropped;
  }

  std::set<Bytes> completed;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    completed.insert(r.bytes16());
  }

  std::vector<DiscoveredService> discovered;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    DiscoveredService svc;
    svc.object_id = r.str();
    svc.level = static_cast<int>(r.u32());
    svc.variant_tag = r.str();
    for (std::uint32_t j = 0, m = r.u32(); j < m; ++j) {
      svc.services.push_back(r.str());
    }
    for (std::uint32_t j = 0, m = r.u32(); j < m; ++j) {
      std::string k = r.str();
      svc.attributes.set(k, r.str());
    }
    discovered.push_back(std::move(svc));
  }

  crypto::HmacDrbg::State rng_state;
  rng_state.k = r.bytes16();
  rng_state.v = r.bytes16();
  r.expect_done();

  rng_.import_state(rng_state);
  r_s_ = std::move(r_s);
  que1_wire_ = std::move(que1_wire);
  group_idx_ = static_cast<std::size_t>(group_idx);
  lru_seq_ = lru_seq;
  consumed_ms_ = consumed_ms;
  stats_ = stats;
  stats_.resumption_dropped += resume_dropped;
  sessions_ = std::move(sessions);
  resume_cache_.clear();
  completed_ = std::move(completed);
  discovered_ = std::move(discovered);
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
  ByteWriter w;
  save_state(w);
  return persist::seal_snapshot(persist::SnapshotKind::kSubjectEngine,
                                w.data());
}

Bytes SubjectEngine::state_digest() const {
  ByteWriter w;
  save_state(w);
  return crypto::Sha256::hash(w.data());
}

persist::RestoreError SubjectEngine::restore(ByteSpan sealed) {
  reset_to_blank();
  const persist::OpenResult open =
      persist::open_snapshot(sealed, persist::SnapshotKind::kSubjectEngine);
  if (!open) return open.error;
  try {
    ByteReader r(open.payload);
    load_state(r);
  } catch (const persist::IdentityMismatchError&) {
    reset_to_blank();
    return persist::RestoreError::kIdentityMismatch;
  } catch (const std::exception&) {
    reset_to_blank();
    return persist::RestoreError::kBadPayload;
  }
  return persist::RestoreError::kOk;
}

}  // namespace argus::core
