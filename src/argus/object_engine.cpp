#include "argus/object_engine.hpp"

#include <algorithm>

#include "common/serde.hpp"
#include "crypto/aes.hpp"
#include "obs/prof.hpp"

namespace argus::core {

using backend::Level;
using crypto::SealedBox;

ObjectEngine::ObjectEngine(ObjectEngineConfig cfg)
    : cfg_(std::move(cfg)),
      group_(crypto::group_for(cfg_.strength)),
      rng_(crypto::make_rng(cfg_.seed, "object:" + cfg_.creds.id)) {
  // Constant RES2 length: every variant pads to the largest profile.
  max_prof_wire_ = cfg_.creds.public_prof.serialize().size();
  for (const auto& v : cfg_.creds.variants2) {
    max_prof_wire_ = std::max(max_prof_wire_, v.prof.serialize().size());
  }
  for (const auto& v : cfg_.creds.variants3) {
    max_prof_wire_ = std::max(max_prof_wire_, v.prof.serialize().size());
  }
  global_bucket_.tokens = cfg_.admission.global_burst;
}

double ObjectEngine::take_consumed_ms() {
  const double out = consumed_ms_;
  consumed_ms_ = 0;
  return out;
}

void ObjectEngine::revoke_subject(const std::string& subject_id) {
  revoked_.insert(subject_id);
}

bool ObjectEngine::apply_signed_revocation(
    const backend::SignedRevocation& rev) {
  if (rev.seq <= last_revocation_seq_) return false;  // stale or replayed
  charge(net::CryptoOp::kEcdsaVerify);
  if (!backend::verify_revocation(group_, cfg_.admin_pub, rev)) return false;
  last_revocation_seq_ = rev.seq;
  revoked_.insert(rev.subject_id);
  return true;
}

HandleResult ObjectEngine::fail(HandleStatus status) {
  if (is_reject(status)) {
    ++stats_.rejects;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter(std::string("object.reject.") +
                            status_name(status))
          .inc();
    }
  }
  return HandleResult(status);
}

HandleResult ObjectEngine::shed(HandleStatus status) {
  if (status == HandleStatus::kShedOverload) ++stats_.shed_overload;
  if (status == HandleStatus::kRateLimited) ++stats_.rate_limited;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter(std::string("object.admission.") +
                          status_name(status))
        .inc();
  }
  return HandleResult(status);
}

void ObjectEngine::refill(TokenBucket& bucket, double now_ms,
                          double rate_per_s, double burst) {
  if (now_ms > bucket.last_ms) {
    bucket.tokens = std::min(
        burst, bucket.tokens + (now_ms - bucket.last_ms) * rate_per_s / 1000.0);
    bucket.last_ms = now_ms;
  }
}

HandleStatus ObjectEngine::admit(std::uint64_t peer) {
  const AdmissionParams& adm = cfg_.admission;
  const auto [it, fresh] = peer_buckets_.try_emplace(peer, lru_seq_++);
  TokenBucket& pb = it->second.value;
  if (fresh) {
    pb.tokens = adm.peer_burst;
    pb.last_ms = now_ms_;
  }
  if (fresh && adm.peer_capacity > 0 &&
      peer_buckets_.size() > adm.peer_capacity) {
    // Evict the least-recently-active bucket (never the one just made —
    // it holds the newest stamp). A re-appearing evicted peer starts
    // over with a full bucket, which errs in the peer's favor.
    peer_buckets_.evict_oldest();
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("object.admission.peer_evicted").inc();
    }
  }
  refill(pb, now_ms_, adm.peer_rate_per_s, adm.peer_burst);
  refill(global_bucket_, now_ms_, adm.global_rate_per_s, adm.global_burst);
  if (pb.tokens < 1.0) return HandleStatus::kRateLimited;
  if (global_bucket_.tokens < 1.0) return HandleStatus::kShedOverload;
  pb.tokens -= 1.0;
  global_bucket_.tokens -= 1.0;
  return HandleStatus::kOk;
}

void ObjectEngine::note_eviction(std::uint64_t n) {
  stats_.evictions += n;
  if (n > 0 && cfg_.metrics != nullptr) {
    cfg_.metrics->counter("object.evict").inc(n);
  }
}

void ObjectEngine::advance_clock(double virtual_ms) {
  if (virtual_ms <= now_ms_) return;
  now_ms_ = virtual_ms;
  if (cfg_.resumption.enabled) {
    // Epoch rotation: retire the semi-static key; the next handshake
    // generates a fresh one, and cached premasters of the old epoch stop
    // matching (their `epoch` field no longer equals epoch_).
    if (cfg_.resumption.rotate_ms > 0 && epoch_eph_valid_ &&
        now_ms_ - epoch_born_ms_ > cfg_.resumption.rotate_ms) {
      ++epoch_;
      epoch_eph_valid_ = false;
    }
    if (cfg_.resumption.ttl_ms > 0) {
      std::uint64_t expired = 0;
      for (auto it = resume_cache_.begin(); it != resume_cache_.end();) {
        if (now_ms_ - it->second.value.born_ms > cfg_.resumption.ttl_ms) {
          it = resume_cache_.erase(it);
          ++expired;
        } else {
          ++it;
        }
      }
      note_eviction(expired);
    }
  }
  const double ttl = cfg_.session_ttl_ms;
  if (ttl <= 0) return;
  std::uint64_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now_ms_ - it->second.value.born_ms > ttl) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  for (auto it = res2_cache_.begin(); it != res2_cache_.end();) {
    if (now_ms_ - it->second.value.born_ms > ttl) {
      it = res2_cache_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  note_eviction(evicted);
}

void ObjectEngine::bound_state() {
  // LRU capacity bound: a flood of half-open sessions (zombie subjects,
  // replayed QUE1 storms) evicts the least-recently-touched entry instead
  // of growing without bound. Replay stamps are never refreshed, so the
  // window forgets the oldest nonce first.
  std::uint64_t evicted = 0;
  if (cfg_.session_capacity > 0) {
    evicted += sessions_.trim(cfg_.session_capacity);
    evicted += res2_cache_.trim(cfg_.session_capacity);
  }
  if (cfg_.replay_window > 0) evicted += seen_rs_.trim(cfg_.replay_window);
  if (cfg_.resumption.capacity > 0) {
    evicted += resume_cache_.trim(cfg_.resumption.capacity);
  }
  note_eviction(evicted);
}

const crypto::EcKeyPair& ObjectEngine::epoch_eph() {
  if (!epoch_eph_valid_) {
    epoch_eph_ = crypto::ecdh_generate(group_, rng_);
    epoch_eph_valid_ = true;
    epoch_born_ms_ = now_ms_;
  }
  return epoch_eph_;
}

Bytes ObjectEngine::res2_plaintext(const backend::Profile& prof) const {
  ByteWriter w;
  w.bytes16(prof.serialize());
  Bytes out = w.take();
  if (cfg_.pad_res2) {
    const std::size_t target = max_prof_wire_ + 2;
    if (out.size() < target) out.insert(out.end(), target - out.size(), 0);
  }
  return out;
}

HandleResult ObjectEngine::handle(ByteSpan wire, std::uint64_t now,
                                  std::uint64_t peer) {
  // Cheapest check first: an oversized blob is refused before decode is
  // even attempted, so floods of giant garbage cost near nothing.
  if (cfg_.admission.enabled && cfg_.admission.max_wire_bytes > 0 &&
      wire.size() > cfg_.admission.max_wire_bytes) {
    ++stats_.drops;
    return fail(HandleStatus::kMalformed);
  }
  const auto msg = decode(wire);
  if (!msg) {
    ++stats_.drops;
    return fail(HandleStatus::kMalformed);
  }
  if (const auto* que1 = std::get_if<Que1>(&*msg)) {
    return handle_que1(*que1, Bytes(wire.begin(), wire.end()), peer);
  }
  if (const auto* que2 = std::get_if<Que2>(&*msg)) {
    return handle_que2(*que2, now, peer);
  }
  ++stats_.drops;  // objects only consume queries
  return fail(HandleStatus::kMalformed);
}

HandleResult ObjectEngine::handle_que1(const Que1& msg, const Bytes& wire,
                                       std::uint64_t peer) {
  ARGUS_PROF_SCOPE("object.handle_que1");
  // Freshness: duplicate R_S means a replayed/echoed query or a lossy-link
  // duplicate (§IV-B). Either way the response is idempotent: while the
  // exchange is open, resend the cached RES1 byte-for-byte (no fresh
  // crypto, so a duplicate cannot desynchronize the session); once the
  // exchange completed, stay silent — a replayed QUE1 learns nothing new.
  if (seen_rs_.contains(msg.r_s)) {
    ++stats_.replays_detected;
    if (cfg_.creds.level == Level::kL1) {
      // Level 1 is stateless public plaintext: always safe to resend.
      ++stats_.retransmissions;
      return {encode(Res1Level1{cfg_.creds.public_prof.serialize()}),
              HandleStatus::kDuplicate};
    }
    const auto sit = sessions_.find(msg.r_s);
    if (sit != sessions_.end()) {
      ++stats_.retransmissions;
      sessions_.touch(sit, lru_seq_++);
      return {sit->second.value.res1_wire, HandleStatus::kDuplicate};
    }
    return HandleResult(HandleStatus::kStale);
  }
  // Admission gates only fresh work, and it runs before any state write:
  // a shed QUE1 leaves no trace, so the subject's backed-off retry of the
  // same R_S still reads as fresh instead of kStale.
  if (cfg_.admission.enabled) {
    const HandleStatus adm = admit(peer);
    if (adm != HandleStatus::kOk) return shed(adm);
  }
  seen_rs_.put(msg.r_s, {}, lru_seq_++);
  bound_state();
  ++stats_.que1_handled;

  if (cfg_.creds.level == Level::kL1) {
    // Level 1: return the admin-signed profile in plaintext. No crypto.
    ++stats_.replies_sent;
    return {encode(Res1Level1{cfg_.creds.public_prof.serialize()})};
  }

  // Level 2/3: open a session — fresh R_O, ephemeral ECDH, signature over
  // R_S || R_O || KEXM_O.
  Session sess;
  sess.r_s = msg.r_s;
  sess.r_o = rng_.generate(kNonceSize);
  if (cfg_.resumption.enabled) {
    // Semi-static key: one scalar multiplication per epoch instead of one
    // per handshake, and a stable KEXM_O the subject's premaster cache
    // can match against.
    const bool fresh = !epoch_eph_valid_;
    sess.eph = epoch_eph();
    sess.eph_epoch = epoch_;
    if (fresh) charge(net::CryptoOp::kEcdhGenerate);
  } else {
    sess.eph = crypto::ecdh_generate(group_, rng_);
    charge(net::CryptoOp::kEcdhGenerate);
  }

  Res1 res;
  res.r_s = sess.r_s;
  res.r_o = sess.r_o;
  res.cert = cfg_.creds.cert.serialize();
  res.kexm = group_.encode_point(sess.eph.pub);
  const Bytes signed_blob = concat({sess.r_s, sess.r_o, res.kexm});
  res.sig =
      crypto::ecdsa_sign(group_, cfg_.creds.keys.priv, signed_blob)
          .to_bytes(group_);
  charge(net::CryptoOp::kEcdsaSign);

  const Bytes res_wire = encode(Message{res});
  sess.transcript.absorb(wire);
  sess.transcript.absorb(res_wire);
  sess.res1_wire = res_wire;
  sess.born_ms = now_ms_;
  sessions_.put(msg.r_s, std::move(sess), lru_seq_++);
  bound_state();
  ++stats_.replies_sent;
  return {res_wire};
}

HandleResult ObjectEngine::handle_que2(const Que2& msg, std::uint64_t now,
                                       std::uint64_t peer) {
  ARGUS_PROF_SCOPE("object.handle_que2");
  // Duplicate QUE2 after a completed exchange: resend the cached RES2
  // byte-for-byte. Identical bytes carry no new information (the same
  // nonces seal the same plaintext), and the retransmitted copy lets a
  // subject whose first RES2 was lost finish the handshake.
  if (const auto cit = res2_cache_.find(msg.r_s); cit != res2_cache_.end()) {
    ++stats_.replays_detected;
    ++stats_.retransmissions;
    res2_cache_.touch(cit, lru_seq_++);
    return HandleResult{cit->second.value.wire, HandleStatus::kDuplicate};
  }
  const auto sit = sessions_.find(msg.r_s);
  if (sit == sessions_.end()) {
    ++stats_.drops;
    return fail(HandleStatus::kStale);
  }
  // All the cheap outcomes are settled (cache hit resends for free;
  // unknown R_S is kStale with no crypto, so garbage cannot drain tokens).
  // Admission gates only the expensive tail below — three signature
  // verifications plus the key agreement. The session survives a shed, so
  // a backed-off retry of the same QUE2 can still complete.
  if (cfg_.admission.enabled) {
    const HandleStatus adm = admit(peer);
    if (adm != HandleStatus::kOk) return shed(adm);
  }
  // Work on a copy: a QUE2 that fails verification must leave the session
  // untouched so a later (possibly retransmitted) QUE2 can still complete.
  Session sess = sit->second.value;
  ++stats_.que2_handled;

  // 1. Subject certificate: admin-signed, within validity.
  const auto cert = crypto::Certificate::parse(msg.cert);
  charge(net::CryptoOp::kEcdsaVerify);
  if (!cert || !crypto::verify_certificate(group_, cfg_.admin_pub, *cert, now,
                                          verified_)) {
    ++stats_.drops;
    return fail(HandleStatus::kBadCert);
  }
  const auto subject_pub = group_.decode_point(cert->pubkey);
  if (!subject_pub) {
    ++stats_.drops;
    return fail(HandleStatus::kBadCert);
  }

  // 2. Transcript signature covers QUE1 || RES1 || PROF_S, CERT_S, KEXM_S.
  sess.transcript.absorb(msg.prof);
  sess.transcript.absorb(msg.cert);
  sess.transcript.absorb(msg.kexm);
  const Bytes sig_digest = sess.transcript.digest();
  const auto sig = crypto::EcdsaSignature::from_bytes(group_, msg.sig);
  charge(net::CryptoOp::kEcdsaVerify);
  if (!sig || !crypto::ecdsa_verify(group_, *subject_pub, sig_digest, *sig)) {
    ++stats_.drops;
    return fail(HandleStatus::kBadSignature);
  }
  sess.transcript.absorb(msg.sig);

  // 3. Subject profile: admin-signed; its attributes drive Level 2.
  const auto prof = backend::Profile::parse(msg.prof);
  charge(net::CryptoOp::kEcdsaVerify);
  if (!prof || !verify_profile(group_, cfg_.admin_pub, *prof, verified_) ||
      prof->entity_id != cert->subject_id) {
    ++stats_.drops;
    return fail(HandleStatus::kBadProfile);
  }

  // 4. Revocation check (attribute-based ACL + revoked-ID list, §VIII).
  if (revoked_.contains(prof->entity_id)) {
    ++stats_.drops;
    return fail(HandleStatus::kRevoked);
  }

  // 5. Key agreement — possibly resumed. A cache hit (same subject cert,
  // same subject KEXM, same semi-static epoch, not expired) reuses the
  // premaster and skips the scalar multiplication entirely.
  Bytes pre_k;
  bool resumed = false;
  Bytes cert_hash;
  if (cfg_.resumption.enabled) {
    cert_hash = crypto::Sha256::hash(msg.cert);
    const auto rit = resume_cache_.find(cert_hash);
    const ResumeEntry* hit =
        rit != resume_cache_.end() ? &rit->second.value : nullptr;
    if (hit != nullptr && hit->epoch == sess.eph_epoch &&
        hit->peer_kexm == msg.kexm &&
        (cfg_.resumption.ttl_ms <= 0 ||
         now_ms_ - hit->born_ms <= cfg_.resumption.ttl_ms)) {
      pre_k = hit->pre_k;
      resume_cache_.touch(rit, lru_seq_++);
      resumed = true;
      ++stats_.resumption_hits;
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("object.resumption.hit").inc();
      }
    } else {
      ++stats_.resumption_misses;
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("object.resumption.miss").inc();
      }
    }
  }
  if (!resumed) {
    const auto peer_kexm = group_.decode_point(msg.kexm);
    if (!peer_kexm) {
      ++stats_.drops;
      return fail(HandleStatus::kBadKex);
    }
    // Non-throwing key agreement: a syntactically valid but degenerate
    // peer point (e.g. the encoded identity) must land in the reject
    // taxonomy, never escape the handler as an exception.
    auto secret =
        crypto::ecdh_shared_secret_checked(group_, sess.eph.priv, *peer_kexm);
    if (!secret) {
      ++stats_.drops;
      return fail(HandleStatus::kBadKex);
    }
    pre_k = std::move(*secret);
    charge(net::CryptoOp::kEcdhCompute);
    if (cfg_.resumption.enabled) {
      resume_cache_.put(cert_hash,
                        ResumeEntry{msg.kexm, pre_k, sess.eph_epoch, now_ms_},
                        lru_seq_++);
      bound_state();
    }
  }
  const Bytes k2 = derive_k2(pre_k, sess.r_s, sess.r_o);
  charge(net::CryptoOp::kHmac);

  const Bytes mac_digest = sess.transcript.digest();
  charge(net::CryptoOp::kHmac);
  if (!ct_equal(subject_mac(k2, mac_digest), msg.mac_s2)) {
    ++stats_.drops;
    return fail(HandleStatus::kBadMac);
  }

  // 6. Level 3 fellow test: does MAC_{S,3} verify under any of our group
  // keys? (v2.0+ only; a v1.0 engine ignores the field.)
  const backend::ProfVariant3* fellow_variant = nullptr;
  Bytes k3;
  if (cfg_.version != ProtocolVersion::kV10 && !msg.mac_s3.empty()) {
    for (const auto& v3 : cfg_.creds.variants3) {
      const Bytes cand = derive_k3(k2, v3.group_key, sess.r_s, sess.r_o);
      charge(net::CryptoOp::kHmac);
      if (ct_equal(subject_mac(cand, mac_digest), msg.mac_s3)) {
        fellow_variant = &v3;
        k3 = cand;
        break;
      }
    }
  }

  const backend::Profile* reply_prof = nullptr;
  Bytes seal_key;
  bool level3_reply = false;
  if (fellow_variant != nullptr) {
    reply_prof = &fellow_variant->prof;
    seal_key = k3;
    level3_reply = true;
    ++stats_.fellows_confirmed;
  } else {
    // Level 2 role (also the Level 3 object's cover face, §VI-B): first
    // predicate matching the subject's non-sensitive attributes wins.
    for (const auto& v2 : cfg_.creds.variants2) {
      if (v2.predicate.matches(prof->attributes)) {
        reply_prof = &v2.prof;
        break;
      }
    }
    seal_key = k2;
    // Timing equalisation: a pure Level 2 object burns the one-HMAC gap so
    // its response time matches a Level 3 object's (§VI-B, Case 9).
    if (cfg_.equalize_timing && cfg_.creds.level == Level::kL2 &&
        cfg_.version == ProtocolVersion::kV30) {
      consumed_ms_ += cfg_.compute.cost(net::CryptoOp::kHmac);
    }
  }
  if (reply_prof == nullptr) {
    // No authorized variant: stay silent — outsiders learn nothing. A
    // policy non-match is normal protocol behavior, not a rejection.
    ++stats_.drops;
    return HandleResult(HandleStatus::kPolicySilent);
  }

  Res2 res;
  res.r_o = sess.r_o;
  res.sealed_prof =
      SealedBox::seal(seal_key, rng_.generate(SealedBox::kIvSize),
                      res2_plaintext(*reply_prof));
  charge(net::CryptoOp::kAesBlockOp);
  sess.transcript.absorb(res.sealed_prof);
  res.mac_o = object_mac(level3_reply ? k3 : k2, sess.transcript.digest());
  charge(net::CryptoOp::kHmac);
  ++stats_.replies_sent;
  Bytes res_wire = encode(Message{res});
  // Exchange complete: retire the session and remember the exact reply so
  // duplicate QUE2s get a byte-identical resend instead of fresh crypto.
  sessions_.erase(msg.r_s);
  res2_cache_.put(msg.r_s, CachedRes2{res_wire, now_ms_}, lru_seq_++);
  bound_state();
  return {res_wire};
}

}  // namespace argus::core
