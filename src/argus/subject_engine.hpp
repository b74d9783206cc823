// Subject-side protocol engine: drives concurrent Level 1/2/3 discovery.
//
// One discovery round = one QUE1 broadcast plus a QUE2/RES2 handshake per
// Level 2/3 responder. In v3.0 the subject always attaches MAC_{S,3}
// (using a real group key or the cover-up key), so every subject's QUE2
// is byte-identical in structure — the indistinguishability property.
// A subject in multiple secret groups runs one round per group key
// (§VI-C); `set_group_key_index` selects the active one.
#pragma once

#include <map>
#include <set>

#include "argus/messages.hpp"
#include "argus/result.hpp"
#include "argus/session.hpp"
#include "backend/registry.hpp"
#include "common/lru_table.hpp"
#include "crypto/ecdh.hpp"
#include "crypto/verified_cache.hpp"
#include "net/compute.hpp"
#include "obs/metrics.hpp"
#include "persist/snapshot.hpp"

namespace argus::core {

struct SubjectEngineConfig {
  ProtocolVersion version = ProtocolVersion::kV30;
  backend::SubjectCredentials creds;
  crypto::EcPoint admin_pub;
  crypto::Strength strength = crypto::Strength::b128;
  std::uint64_t seed = 2;
  net::ComputeModel compute = net::ComputeModel::nexus6();
  /// v2.0 only: whether this round seeks Level 3 services (v3.0 always
  /// does; v1.0 never does).
  bool seek_level3 = true;
  /// ECDH session resumption (see ResumptionParams). Off by default: no
  /// premaster cache, bytes identical to before. The subject's TTL is
  /// measured in the units of the `now` argument passed to handle().
  ResumptionParams resumption{};
  /// Optional sink for per-crypto-op modeled cost (null = no accounting,
  /// no overhead beyond one pointer test per op).
  obs::MetricsRegistry* metrics = nullptr;
};

struct DiscoveredService {
  std::string object_id;
  int level = 1;  // visibility level as observed by the subject
  std::string variant_tag;
  std::vector<std::string> services;
  backend::AttributeMap attributes;
};

class SubjectEngine {
 public:
  explicit SubjectEngine(SubjectEngineConfig cfg);

  /// Begin a discovery round; returns the QUE1 wire to broadcast.
  Bytes start_round();

  /// Feed a response; returns a QUE2 wire to unicast back (for Level 2/3
  /// RES1) plus a status, or no bytes (Level 1 responses and RES2s are
  /// terminal). Never throws on peer input.
  HandleResult handle(ByteSpan wire, std::uint64_t now);

  /// Services discovered so far (across rounds; deduplicated by object and
  /// variant).
  [[nodiscard]] const std::vector<DiscoveredService>& discovered() const {
    return discovered_;
  }

  /// Select which of the subject's group keys the next round uses (§VI-C).
  void set_group_key_index(std::size_t idx);
  [[nodiscard]] std::size_t group_key_count() const {
    return cfg_.creds.group_keys.size();
  }

  double take_consumed_ms();

  /// Sealed, checksummed snapshot of the full engine state (sessions,
  /// round nonce/wire, resumption cache, discoveries, DRBG, stats).
  [[nodiscard]] Bytes snapshot() const;

  /// Strict restore: blank-or-exact, never throws — see
  /// ObjectEngine::restore for the contract. Security invariant: cached
  /// premasters are never revived from a snapshot.
  persist::RestoreError restore(ByteSpan sealed);

  /// SHA-256 over the serialized state (round-trip/fuzz test probe).
  [[nodiscard]] Bytes state_digest() const;

  [[nodiscard]] std::size_t open_sessions() const { return sessions_.size(); }
  [[nodiscard]] std::size_t resume_entries() const {
    return resume_cache_.size();
  }
  /// Admin signatures this engine has seen pass (object certificates and
  /// profiles). Never snapshotted: a restored engine starts cold.
  [[nodiscard]] const crypto::VerifiedCache& verified_cache() const {
    return verified_;
  }

  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t res1_l1 = 0;
    std::uint64_t res1 = 0;
    std::uint64_t res2 = 0;
    std::uint64_t drops = 0;
    std::uint64_t rejects = 0;  // subset of drops: is_reject statuses
    std::uint64_t retransmissions = 0;  // cached QUE2 resends
    // Resumption-cache traffic (zero unless resumption is enabled).
    std::uint64_t resumption_hits = 0;
    std::uint64_t resumption_misses = 0;
    // Premaster entries a restore() refused to revive.
    std::uint64_t resumption_dropped = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Session {
    std::string object_id;
    Bytes k2, k3;
    Transcript transcript;
    Bytes que2_wire;  // cached reply: duplicate RES1 resends it unchanged
  };
  /// Premaster cache entry, keyed by SHA-256 of the object certificate.
  /// A hit reuses both our ephemeral key and the premaster, skipping the
  /// keygen and the shared-secret scalar multiplications.
  struct ResumeEntry {
    Bytes object_kexm;  // object KEXM the premaster was computed against
    crypto::EcKeyPair eph;
    Bytes pre_k;
    std::uint64_t born_now = 0;
  };

  HandleResult handle_res1_l1(const Res1Level1& msg);
  HandleResult handle_res1(const Res1& msg, const Bytes& wire,
                           std::uint64_t now);
  HandleResult handle_res2(const Res2& msg);

  /// Terminal non-reply: count is_reject statuses (stats + metrics).
  HandleResult fail(HandleStatus status);

  /// Snapshot format walk and blank reset — see ObjectEngine
  /// (engine_persist.cpp).
  template <class Self, class Io>
  static void walk(Self& self, Io& io);
  void reset_to_blank();
  static constexpr persist::SnapshotKind kSnapshotKind =
      persist::SnapshotKind::kSubjectEngine;
  friend class persist::Envelope;

  void charge(net::CryptoOp op) {
    const double ms = cfg_.compute.cost(op);
    consumed_ms_ += ms;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->histogram(std::string("crypto.ms.") + net::op_name(op))
          .observe(ms);
    }
  }
  void record(DiscoveredService svc);

  SubjectEngineConfig cfg_;
  const crypto::EcGroup& group_;
  crypto::HmacDrbg rng_;
  Bytes r_s_;          // current round nonce
  Bytes que1_wire_;    // current round QUE1 bytes (transcript prefix)
  std::size_t group_idx_ = 0;
  std::map<Bytes, Session> sessions_;  // keyed by R_O
  // Object-cert hash -> preK, stamped from lru_seq_ (snapshotted).
  LruMap<Bytes, ResumeEntry> resume_cache_;
  std::uint64_t lru_seq_ = 0;
  std::set<Bytes> completed_;          // R_O of finished exchanges this round
  std::vector<DiscoveredService> discovered_;
  crypto::VerifiedCache verified_;
  double consumed_ms_ = 0;
  Stats stats_;
};

}  // namespace argus::core
