#include "argus/subject_engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/serde.hpp"
#include "crypto/aes.hpp"
#include "obs/prof.hpp"

namespace argus::core {

using crypto::SealedBox;

SubjectEngine::SubjectEngine(SubjectEngineConfig cfg)
    : cfg_(std::move(cfg)),
      group_(crypto::group_for(cfg_.strength)),
      rng_(crypto::make_rng(cfg_.seed, "subject:" + cfg_.creds.id)) {
  if (cfg_.creds.group_keys.empty()) {
    throw std::invalid_argument(
        "SubjectEngine: subject must hold at least one (cover-up) group key");
  }
}

void SubjectEngine::set_group_key_index(std::size_t idx) {
  if (idx >= cfg_.creds.group_keys.size()) {
    throw std::out_of_range("SubjectEngine: group key index");
  }
  group_idx_ = idx;
}

double SubjectEngine::take_consumed_ms() {
  const double out = consumed_ms_;
  consumed_ms_ = 0;
  return out;
}

Bytes SubjectEngine::start_round() {
  ARGUS_PROF_SCOPE("subject.start_round");
  r_s_ = rng_.generate(kNonceSize);
  sessions_.clear();
  completed_.clear();
  ++stats_.rounds;
  que1_wire_ = encode(Que1{r_s_});
  return que1_wire_;
}

HandleResult SubjectEngine::fail(HandleStatus status) {
  if (is_reject(status)) {
    ++stats_.rejects;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter(std::string("subject.reject.") +
                            status_name(status))
          .inc();
    }
  }
  return HandleResult(status);
}

HandleResult SubjectEngine::handle(ByteSpan wire, std::uint64_t now) {
  const auto msg = decode(wire);
  if (!msg) {
    ++stats_.drops;
    return fail(HandleStatus::kMalformed);
  }
  if (const auto* l1 = std::get_if<Res1Level1>(&*msg)) {
    return handle_res1_l1(*l1);
  }
  if (const auto* r1 = std::get_if<Res1>(&*msg)) {
    return handle_res1(*r1, wire, now);
  }
  if (const auto* r2 = std::get_if<Res2>(&*msg)) {
    return handle_res2(*r2);
  }
  ++stats_.drops;  // subjects only consume responses
  return fail(HandleStatus::kMalformed);
}

namespace {

using ServiceKey = std::pair<std::string_view, std::string_view>;

ServiceKey key_of(const DiscoveredService& svc) {
  return {svc.object_id, svc.variant_tag};
}

}  // namespace

void SubjectEngine::record(backend::Profile&& prof, int level) {
  const ServiceKey key{prof.entity_id, prof.variant_tag};
  const auto at = std::lower_bound(
      discovered_index_.begin(), discovered_index_.end(), key,
      [&](std::uint32_t i, const ServiceKey& k) {
        return key_of(discovered_[i]) < k;
      });
  if (at != discovered_index_.end() && key_of(discovered_[*at]) == key) {
    return;
  }
  discovered_index_.insert(at,
                           static_cast<std::uint32_t>(discovered_.size()));
  discovered_.push_back(DiscoveredService{
      std::move(prof.entity_id), level, std::move(prof.variant_tag),
      std::move(prof.services), std::move(prof.attributes)});
}

void SubjectEngine::index_discovered() {
  discovered_index_.resize(discovered_.size());
  std::iota(discovered_index_.begin(), discovered_index_.end(), 0u);
  std::stable_sort(discovered_index_.begin(), discovered_index_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return key_of(discovered_[a]) < key_of(discovered_[b]);
                   });
}

HandleResult SubjectEngine::handle_res1_l1(const Res1Level1& msg) {
  ARGUS_PROF_SCOPE("subject.handle_res1_l1");
  // Level 1: plaintext profile; integrity via the admin signature (§IV-B).
  auto prof = backend::Profile::parse(msg.prof);
  charge(net::CryptoOp::kEcdsaVerify);
  if (!prof || !verify_profile(group_, cfg_.admin_pub, *prof, verified_)) {
    ++stats_.drops;
    return fail(HandleStatus::kBadProfile);
  }
  ++stats_.res1_l1;
  record(std::move(*prof), 1);
  return HandleResult(HandleStatus::kOk);
}

HandleResult SubjectEngine::handle_res1(const Res1& msg, ByteSpan wire,
                                         std::uint64_t now) {
  ARGUS_PROF_SCOPE("subject.handle_res1");
  if (msg.r_s != r_s_) {
    ++stats_.drops;  // stale round or mismatched session
    return HandleResult(HandleStatus::kStale);
  }
  // Duplicate RES1 (lossy link or object-side resend): reply with the
  // cached QUE2 byte-for-byte instead of opening a second session — fresh
  // ECDH here would desynchronize the key schedule both sides agreed on.
  // After the exchange completed, duplicates are silently ignored.
  if (completed_.contains(msg.r_o)) {
    return HandleResult(HandleStatus::kDuplicate);
  }
  if (const auto sit = sessions_.find(msg.r_o); sit != sessions_.end()) {
    ++stats_.retransmissions;
    return {sit->second.que2_wire, HandleStatus::kDuplicate};
  }
  // 1. Object certificate.
  const auto cert = crypto::Certificate::parse(msg.cert);
  charge(net::CryptoOp::kEcdsaVerify);
  if (!cert || !crypto::verify_certificate(group_, cfg_.admin_pub, *cert, now,
                                           verified_)) {
    ++stats_.drops;
    return fail(HandleStatus::kBadCert);
  }
  const auto object_pub = group_.decode_point(cert->pubkey);
  if (!object_pub) {
    ++stats_.drops;
    return fail(HandleStatus::kBadCert);
  }
  // 2. Signature over R_S || R_O || KEXM_O (freshness: binds our R_S).
  const auto sig = crypto::EcdsaSignature::from_bytes(group_, msg.sig);
  charge(net::CryptoOp::kEcdsaVerify);
  if (!sig || !crypto::ecdsa_verify(group_, *object_pub,
                                    concat({msg.r_s, msg.r_o, msg.kexm}),
                                    *sig)) {
    ++stats_.drops;
    return fail(HandleStatus::kBadSignature);
  }
  const auto peer_kexm = group_.decode_point(msg.kexm);
  if (!peer_kexm) {
    ++stats_.drops;
    return fail(HandleStatus::kBadKex);
  }
  ++stats_.res1;

  // 3. Ephemeral ECDH + key schedule — possibly resumed. A cache hit
  // (same object cert, same object KEXM, not expired) reuses our cached
  // ephemeral key and premaster, skipping both scalar multiplications.
  // The hit condition requires the object to present the same KEXM it did
  // before (its semi-static epoch key), so both sides derive the same
  // premaster; an object that rotated shows a fresh KEXM and we miss.
  crypto::EcKeyPair eph;
  Bytes pre_k;
  bool resumed = false;
  Bytes cert_hash;
  if (cfg_.resumption.enabled) {
    cert_hash = crypto::Sha256::hash(msg.cert);
    const auto rit = resume_cache_.find(cert_hash);
    const ResumeEntry* hit =
        rit != resume_cache_.end() ? &rit->second.value : nullptr;
    if (hit != nullptr && hit->object_kexm == msg.kexm &&
        (cfg_.resumption.ttl_ms <= 0 ||
         (now >= hit->born_now &&
          static_cast<double>(now - hit->born_now) <=
              cfg_.resumption.ttl_ms))) {
      eph = hit->eph;
      pre_k = hit->pre_k;
      resume_cache_.touch(rit, lru_seq_++);
      resumed = true;
      ++stats_.resumption_hits;
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("subject.resumption.hit").inc();
      }
    } else {
      ++stats_.resumption_misses;
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("subject.resumption.miss").inc();
      }
    }
  }
  if (!resumed) {
    eph = crypto::ecdh_generate(group_, rng_);
    charge(net::CryptoOp::kEcdhGenerate);
    // Non-throwing key agreement: a syntactically valid but degenerate
    // peer point (e.g. the encoded identity) must land in the reject
    // taxonomy, never escape the handler as an exception.
    auto secret =
        crypto::ecdh_shared_secret_checked(group_, eph.priv, *peer_kexm);
    if (!secret) {
      ++stats_.drops;
      return fail(HandleStatus::kBadKex);
    }
    pre_k = std::move(*secret);
    charge(net::CryptoOp::kEcdhCompute);
    if (cfg_.resumption.enabled) {
      resume_cache_.put(cert_hash, ResumeEntry{msg.kexm, eph, pre_k, now},
                        lru_seq_++);
      const std::size_t evicted =
          cfg_.resumption.capacity > 0
              ? resume_cache_.trim(cfg_.resumption.capacity)
              : 0;
      if (evicted > 0 && cfg_.metrics != nullptr) {
        cfg_.metrics->counter("subject.resumption.evict").inc(evicted);
      }
    }
  }
  const Bytes k2 = derive_k2(pre_k, msg.r_s, msg.r_o);
  charge(net::CryptoOp::kHmac);
  const auto& gk = cfg_.creds.group_keys[group_idx_];
  const Bytes k3 = derive_k3(k2, gk.key, msg.r_s, msg.r_o);
  charge(net::CryptoOp::kHmac);

  // 4. Build QUE2.
  Que2 que2;
  que2.r_s = r_s_;
  que2.prof = cfg_.creds.prof.serialize();
  que2.cert = cfg_.creds.cert.serialize();
  que2.kexm = group_.encode_point(eph.pub);

  Session sess;
  sess.object_id = cert->subject_id;
  sess.transcript.absorb(que1_wire_);
  sess.transcript.absorb(wire);
  sess.transcript.absorb(que2.prof);
  sess.transcript.absorb(que2.cert);
  sess.transcript.absorb(que2.kexm);
  que2.sig = crypto::ecdsa_sign(group_, cfg_.creds.keys.priv,
                                sess.transcript.digest())
                 .to_bytes(group_);
  charge(net::CryptoOp::kEcdsaSign);
  sess.transcript.absorb(que2.sig);

  const Bytes mac_digest = sess.transcript.digest();
  que2.mac_s2 = subject_mac(k2, mac_digest);
  charge(net::CryptoOp::kHmac);
  const bool send_mac3 =
      cfg_.version == ProtocolVersion::kV30 ||
      (cfg_.version == ProtocolVersion::kV20 && cfg_.seek_level3);
  if (send_mac3) {
    que2.mac_s3 = subject_mac(k3, mac_digest);
    charge(net::CryptoOp::kHmac);
  }

  sess.k2 = k2;
  sess.k3 = k3;
  Bytes que2_wire = encode(Message{que2});
  sess.que2_wire = que2_wire;
  sessions_[msg.r_o] = std::move(sess);
  return {std::move(que2_wire)};
}

HandleResult SubjectEngine::handle_res2(const Res2& msg) {
  ARGUS_PROF_SCOPE("subject.handle_res2");
  // Duplicate RES2 for a finished exchange: benign under loss; ignore.
  if (completed_.contains(msg.r_o)) {
    return HandleResult(HandleStatus::kDuplicate);
  }
  const auto sit = sessions_.find(msg.r_o);
  if (sit == sessions_.end()) {
    ++stats_.drops;
    return HandleResult(HandleStatus::kStale);
  }
  // Work on a copy: a RES2 that fails verification leaves the session
  // open so a retransmitted (intact) RES2 can still complete it.
  Session sess = sit->second;

  sess.transcript.absorb(msg.sealed_prof);
  const Bytes digest = sess.transcript.digest();

  // Try K2 first (Level 2 object / cover face), then K3 (fellow), §VI-A.
  int level = 0;
  Bytes key;
  charge(net::CryptoOp::kHmac);
  if (ct_equal(object_mac(sess.k2, digest), msg.mac_o)) {
    level = 2;
    key = sess.k2;
  } else {
    charge(net::CryptoOp::kHmac);
    if (ct_equal(object_mac(sess.k3, digest), msg.mac_o)) {
      level = 3;
      key = sess.k3;
    }
  }
  if (level == 0) {
    ++stats_.drops;
    return fail(HandleStatus::kBadMac);
  }

  Bytes plain;
  try {
    plain = SealedBox::open(key, msg.sealed_prof);
  } catch (const std::invalid_argument&) {
    ++stats_.drops;
    return fail(HandleStatus::kBadSeal);
  }
  charge(net::CryptoOp::kAesBlockOp);

  // Padded layout: bytes16(profile wire) + zero fill.
  std::optional<backend::Profile> prof;
  try {
    ByteReader r(plain);
    prof = backend::Profile::parse(r.bytes16());
  } catch (const SerdeError&) {
    prof = std::nullopt;
  }
  charge(net::CryptoOp::kEcdsaVerify);
  if (!prof || !verify_profile(group_, cfg_.admin_pub, *prof, verified_) ||
      prof->entity_id != sess.object_id) {
    ++stats_.drops;
    return fail(HandleStatus::kBadProfile);
  }
  ++stats_.res2;
  record(std::move(*prof), level);
  sessions_.erase(msg.r_o);
  completed_.insert(msg.r_o);
  return HandleResult(HandleStatus::kOk);
}

}  // namespace argus::core
