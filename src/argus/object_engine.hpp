// Object-side protocol engine (Levels 1, 2, 3 in one state machine).
//
// Transport-agnostic: feed wire bytes in, get a HandleResult out — reply
// bytes (if any) plus a status saying why there is none. Modeled compute
// cost accrues per handled message and is drained by the simulation
// wrapper (or ignored by unit tests). The engine runs the real
// cryptography — signatures, ECDH, HMACs, sealed boxes — so every security
// property is enforced by actual key material, not by flags. Peer input is
// never trusted: malformed or unverifiable messages map to a counted
// rejection status, never a throw.
#pragma once

#include <set>
#include <variant>

#include "argus/messages.hpp"
#include "argus/result.hpp"
#include "argus/session.hpp"
#include "backend/registry.hpp"
#include "backend/revocation.hpp"
#include "common/lru_table.hpp"
#include "crypto/ecdh.hpp"
#include "crypto/verified_cache.hpp"
#include "net/compute.hpp"
#include "obs/metrics.hpp"
#include "persist/snapshot.hpp"

namespace argus::core {

/// Object-side admission control (overload protection). Disabled by
/// default so existing runs are bit-identical; when enabled, every unit
/// of fresh work passes a deterministic token-bucket check — per-peer
/// first, then an engine-wide budget — before any signature verification
/// or key agreement is attempted. Buckets refill on the virtual clock the
/// driver feeds via advance_clock(), so admission is replayable. The
/// defaults are sized just above a pi3-class object's crypto capacity
/// (~6-7 QUE1 responses per second), i.e. they shed only traffic the
/// engine could not have served in time anyway.
struct AdmissionParams {
  bool enabled = false;
  double peer_rate_per_s = 5.0;   // sustained fresh-work rate per peer
  double peer_burst = 4.0;        // bucket depth per peer
  double global_rate_per_s = 20.0;  // engine-wide sustained rate
  double global_burst = 16.0;       // engine-wide bucket depth
  /// Cheapest check of all: wire blobs longer than this are dropped
  /// before decode is even attempted. 0 disables the bound.
  std::size_t max_wire_bytes = 4096;
  /// LRU cap on tracked peer buckets — a flood from spoofed peer ids
  /// must not grow the bucket map without bound.
  std::size_t peer_capacity = 256;
};

struct ObjectEngineConfig {
  ProtocolVersion version = ProtocolVersion::kV30;
  backend::ObjectCredentials creds;
  crypto::EcPoint admin_pub;
  crypto::Strength strength = crypto::Strength::b128;
  std::uint64_t seed = 1;
  net::ComputeModel compute = net::ComputeModel::pi3();
  /// v3.0 indistinguishability measures — ablatable for E12.
  bool pad_res2 = true;
  bool equalize_timing = true;
  /// State bounds: open sessions and cached RES2 resends are evicted
  /// beyond these (LRU) or once older than the TTL (only enforced when
  /// the driver feeds virtual time via advance_clock). The replay window
  /// bounds the seen-R_S set; the oldest nonce is forgotten first. The
  /// defaults are far above anything a healthy round produces, so bounded
  /// state changes no bytes in fault-free runs.
  std::size_t session_capacity = 128;
  double session_ttl_ms = 30'000;
  std::size_t replay_window = 1024;
  /// Overload protection (see AdmissionParams). Off by default: the
  /// admission path is never consulted and no bucket state is touched.
  AdmissionParams admission{};
  /// ECDH session resumption (see ResumptionParams). Off by default: no
  /// premaster cache, no semi-static key, bytes identical to before.
  ResumptionParams resumption{};
  /// Optional sink for per-crypto-op modeled cost (null = no accounting,
  /// no overhead beyond one pointer test per op).
  obs::MetricsRegistry* metrics = nullptr;
};

class ObjectEngine {
 public:
  explicit ObjectEngine(ObjectEngineConfig cfg);

  /// Process one incoming message; returns the reply wire (if any) plus
  /// the handling status. Never throws on peer input. `now` is the
  /// current (virtual) time, used for certificate validity. `peer`
  /// identifies the sender for per-peer rate limiting (0 = anonymous;
  /// all anonymous traffic shares one bucket). Ignored unless admission
  /// control is enabled.
  HandleResult handle(ByteSpan wire, std::uint64_t now, std::uint64_t peer = 0);

  /// Feed the engine virtual time (monotonic, ms). Sessions and cached
  /// replies older than the TTL are evicted here, and so are resumption
  /// premasters past their own TTL. The replay window has no TTL: it is
  /// bounded by capacity alone. Drivers that never call it get capacity
  /// bounds only.
  void advance_clock(double virtual_ms);

  /// Modeled crypto milliseconds accrued since the last call; the caller
  /// charges this to its node in the network simulation.
  double take_consumed_ms();

  /// Revocation: reject future discovery by this subject id (§VIII — the
  /// backend notifies the N objects a removed subject could access).
  void revoke_subject(const std::string& subject_id);
  /// Apply an admin-signed revocation notice delivered over the ground
  /// network. Rejects bad signatures and non-increasing sequence numbers
  /// (replay). Returns true iff applied.
  bool apply_signed_revocation(const backend::SignedRevocation& rev);
  [[nodiscard]] bool is_revoked(const std::string& subject_id) const {
    return revoked_.contains(subject_id);
  }

  [[nodiscard]] const backend::ObjectCredentials& credentials() const {
    return cfg_.creds;
  }
  /// The config this engine was built from (a reboot rebuilds from it).
  [[nodiscard]] const ObjectEngineConfig& config() const { return cfg_; }

  /// Sealed, checksummed snapshot of the full engine state: sessions,
  /// reply/resumption caches, replay window, admission buckets,
  /// revocation set, DRBG, clocks, and stats. The semi-static epoch key
  /// itself is deliberately never serialized.
  [[nodiscard]] Bytes snapshot() const;

  /// Strict restore: blank-or-exact, never throws. The engine is first
  /// reset to its post-construction state and then parses the payload in
  /// place. Any failure (truncation, corruption, wrong kind/version,
  /// identity mismatch, unparseable state) resets it again and returns
  /// the error, so only a fully valid payload whose identity matches this
  /// engine's config survives. Security invariant: a successful restore
  /// rotates the resumption epoch and drops every cached premaster, so a
  /// snapshot can never revive stale resumption material after a reboot.
  persist::RestoreError restore(ByteSpan sealed);

  /// SHA-256 over the serialized state — cheap exact-equality probe for
  /// round-trip and fuzz tests.
  [[nodiscard]] Bytes state_digest() const;

  struct Stats {
    std::uint64_t que1_handled = 0;
    std::uint64_t que2_handled = 0;
    std::uint64_t replies_sent = 0;
    std::uint64_t drops = 0;            // malformed / failed verification
    std::uint64_t rejects = 0;          // subset of drops: is_reject statuses
    std::uint64_t replays_detected = 0;
    std::uint64_t retransmissions = 0;  // cached resends of RES1/RES2
    std::uint64_t fellows_confirmed = 0;  // Level 3 successes
    std::uint64_t evictions = 0;          // TTL/capacity state evictions
    // Admission-control sheds (zero unless admission is enabled). Sheds
    // are neither drops nor rejects: the bytes were never inspected.
    std::uint64_t shed_overload = 0;  // engine-wide budget exhausted
    std::uint64_t rate_limited = 0;   // a peer's bucket ran dry
    // Resumption-cache traffic (zero unless resumption is enabled).
    std::uint64_t resumption_hits = 0;
    std::uint64_t resumption_misses = 0;
    // Premaster entries a restore() refused to revive (security
    // invariant: cached premasters never survive a reboot).
    std::uint64_t resumption_dropped = 0;
    // Nothing increments these two: every QUE2 is verified on its own.
    // They stay because the snapshot format and perfbench's daemon
    // workload still carry them.
    std::uint64_t batch_verified_sigs = 0;
    std::uint64_t batch_fallback_sigs = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t open_sessions() const { return sessions_.size(); }
  [[nodiscard]] std::size_t cached_replies() const {
    return res2_cache_.size();
  }
  // State-table sizes the soak harness watches for monotonic growth.
  [[nodiscard]] std::size_t resume_entries() const {
    return resume_cache_.size();
  }
  [[nodiscard]] std::size_t replay_entries() const { return seen_rs_.size(); }
  /// Bytes the replay window's storage holds (pool and index capacity).
  [[nodiscard]] std::size_t replay_storage_bytes() const {
    return seen_rs_.index().storage_bytes();
  }
  [[nodiscard]] std::size_t peer_bucket_count() const {
    return peer_buckets_.size();
  }
  /// Admin signatures this engine has seen pass (subject certificates
  /// and profiles). Never snapshotted: a restored engine starts cold.
  [[nodiscard]] const crypto::VerifiedCache& verified_cache() const {
    return verified_;
  }

 private:
  struct Session {
    Bytes r_s, r_o;
    crypto::EcKeyPair eph;
    std::uint64_t eph_epoch = 0;  // which semi-static epoch eph came from
    Transcript transcript;
    Bytes res1_wire;  // cached reply: duplicate QUE1 resends it unchanged
    double born_ms = 0;
  };
  /// Premaster cache entry, keyed by SHA-256 of the subject certificate.
  struct ResumeEntry {
    Bytes peer_kexm;  // subject KEXM the premaster was computed against
    Bytes pre_k;
    std::uint64_t epoch = 0;  // valid only for sessions of the same epoch
    double born_ms = 0;
  };
  struct CachedRes2 {
    Bytes wire;
    double born_ms = 0;
  };

  /// Deterministic token bucket refilled from the engine's virtual clock.
  struct TokenBucket {
    double tokens = 0;
    double last_ms = 0;
  };

  HandleResult handle_que1(const Que1& msg, ByteSpan wire,
                           std::uint64_t peer);
  HandleResult handle_que2(const Que2& msg, std::uint64_t now,
                           std::uint64_t peer);

  /// The object's semi-static ECDH key for the current resumption epoch
  /// (generated on first use, invalidated by epoch rotation).
  const crypto::EcKeyPair& epoch_eph();

  /// Admission check for one unit of fresh (non-cached) work. Refills
  /// both buckets from the virtual clock, then spends one token from
  /// each. The per-peer bucket is consulted first, so a single noisy
  /// peer reads as kRateLimited before it can drain the shared budget
  /// other peers depend on.
  HandleStatus admit(std::uint64_t peer);
  static void refill(TokenBucket& bucket, double now_ms, double rate_per_s,
                     double burst);
  /// Terminal shed: count kShedOverload / kRateLimited (stats + metrics).
  HandleResult shed(HandleStatus status);

  /// Terminal non-reply: count is_reject statuses (stats + metrics).
  HandleResult fail(HandleStatus status);
  void note_eviction(std::uint64_t n = 1);
  void bound_state();

  /// The snapshot format, listed once: every persisted field in order,
  /// written by a persist::Saver or read in place by a persist::Loader
  /// (engine_persist.cpp).
  template <class Self, class Io>
  static void walk(Self& self, Io& io);
  /// Back to the post-construction state (fresh DRBG, empty tables).
  void reset_to_blank();
  static constexpr persist::SnapshotKind kSnapshotKind =
      persist::SnapshotKind::kObjectEngine;
  friend class persist::Envelope;

  void charge(net::CryptoOp op) {
    const double ms = cfg_.compute.cost(op);
    consumed_ms_ += ms;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->histogram(std::string("crypto.ms.") + net::op_name(op))
          .observe(ms);
    }
  }

  /// Padded plaintext for RES2: bytes16(prof wire) + zeros to the fixed
  /// per-object plaintext size (constant RES2 length, §VI-B).
  Bytes res2_plaintext(const backend::Profile& prof) const;

  ObjectEngineConfig cfg_;
  const crypto::EcGroup& group_;
  crypto::HmacDrbg rng_;
  // Bounded tables, stamped from lru_seq_ (the stamps are snapshotted).
  LruMap<Bytes, Session> sessions_;  // keyed by R_S
  LruMap<Bytes, CachedRes2> res2_cache_;  // R_S -> completed-exchange RES2
  LruMap<Bytes, ResumeEntry> resume_cache_;  // subject-cert hash -> preK
  crypto::EcKeyPair epoch_eph_{};
  bool epoch_eph_valid_ = false;
  std::uint64_t epoch_ = 0;
  double epoch_born_ms_ = 0;
  // Replay detection: stamped at insert only, so the window is FIFO.
  LruFlatMap<Nonce, std::monostate> seen_rs_;
  LruMap<std::uint64_t, TokenBucket> peer_buckets_;  // admission
  TokenBucket global_bucket_;
  std::set<std::string> revoked_;
  crypto::VerifiedCache verified_;
  std::uint64_t last_revocation_seq_ = 0;
  std::size_t max_prof_wire_ = 0;
  Bytes res1_l1_wire_;  // a Level-1 object's one reply, encoded once
  double consumed_ms_ = 0;
  double now_ms_ = 0;        // latest advance_clock() time
  std::uint64_t lru_seq_ = 0;
  Stats stats_;
};

}  // namespace argus::core
