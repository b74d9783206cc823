// The backend: registration, key/certificate/profile issuance, secret
// groups with cover-up keys, access-control policies, and revocation.
//
// The paper's backend is a hierarchy of servers; its externally visible
// behaviour is a trusted issuing/revoking authority, which this class
// models in-process. All issuance is deterministic given the run seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/predicate.hpp"
#include "backend/profile.hpp"
#include "backend/revocation.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ecdh.hpp"
#include "persist/snapshot.hpp"

namespace argus::backend {

/// Object secrecy level (§IV-A).
enum class Level : std::uint8_t { kL1 = 1, kL2 = 2, kL3 = 3 };

using GroupId = std::uint64_t;
inline constexpr std::size_t kGroupKeySize = 32;

/// One symmetric group key as held by a subject. Cover-up keys are unique
/// random keys issued to subjects with no sensitive attributes so that all
/// subjects can emit MAC_{S,3} (§VI-B); `cover_up` exists for analysis
/// only and is never serialized.
struct SubjectGroupKey {
  GroupId group_id = 0;
  Bytes key;
  bool cover_up = false;
};

struct SubjectCredentials {
  std::string id;
  crypto::EcKeyPair keys;
  crypto::Certificate cert;
  Profile prof;
  std::vector<SubjectGroupKey> group_keys;  // always >= 1 (cover-up if none)
};

/// A Level 2 PROF variant: disclosed to subjects matching the predicate.
struct ProfVariant2 {
  Predicate predicate;
  Profile prof;
};

/// A Level 3 PROF variant: disclosed to fellows of the secret group.
struct ProfVariant3 {
  GroupId group_id = 0;
  Bytes group_key;
  Profile prof;
};

struct ObjectCredentials {
  std::string id;
  Level level = Level::kL1;
  crypto::EcKeyPair keys;
  crypto::Certificate cert;
  Profile public_prof;                  // Level 1 (or fallback) profile
  std::vector<ProfVariant2> variants2;  // Level 2 (and Level 3 cover role)
  std::vector<ProfVariant3> variants3;  // Level 3 only
};

/// Access-control policy row (§II-B).
struct Policy {
  Predicate subject_pred;
  Predicate object_pred;
  std::vector<std::string> rights;
};

class Backend {
 public:
  explicit Backend(crypto::Strength strength, std::uint64_t seed);

  [[nodiscard]] const crypto::EcGroup& group() const { return group_; }
  [[nodiscard]] const crypto::EcPoint& admin_public_key() const {
    return admin_.pub;
  }
  [[nodiscard]] std::uint64_t now() const { return clock_; }
  void advance_clock(std::uint64_t seconds) { clock_ += seconds; }

  // --- secret groups --------------------------------------------------
  /// Create a secret group for a sensitive attribute (the attribute ->
  /// group-id mapping is known only to the admin, §VII Case5).
  GroupId create_secret_group(const std::string& sensitive_attribute);
  [[nodiscard]] Bytes group_key(GroupId id) const;
  /// Rotate a group's key (used when a fellow is removed); returns the
  /// number of remaining members that must be re-keyed.
  std::size_t rotate_group_key(GroupId id);

  // --- registration ---------------------------------------------------
  /// Register a subject; `sensitive_attributes` join matching secret
  /// groups. A subject with none still receives a cover-up key.
  SubjectCredentials register_subject(
      const std::string& id, const AttributeMap& attributes,
      const std::vector<std::string>& sensitive_attributes = {});

  struct Variant2Spec {
    std::string predicate_source;
    std::string variant_tag;
    std::vector<std::string> services;
  };
  struct Variant3Spec {
    std::string sensitive_attribute;  // names the secret group
    std::string variant_tag;
    std::vector<std::string> services;
  };
  /// Register an object at a level with its PROF variants. Level 3
  /// objects must also carry Level 2 variants (their cover role).
  ObjectCredentials register_object(
      const std::string& id, const AttributeMap& attributes, Level level,
      const std::vector<std::string>& public_services,
      const std::vector<Variant2Spec>& variants2 = {},
      const std::vector<Variant3Spec>& variants3 = {});

  // --- policies ---------------------------------------------------------
  void add_policy(const std::string& subject_pred,
                  const std::string& object_pred,
                  std::vector<std::string> rights);
  [[nodiscard]] const std::vector<Policy>& policies() const {
    return policies_;
  }

  /// Objects a subject may access/discover under current policies
  /// (drives revocation fan-out; N in the paper's notation).
  [[nodiscard]] std::vector<std::string> accessible_objects(
      const std::string& subject_id) const;
  /// Subjects that may access a given object.
  [[nodiscard]] std::vector<std::string> authorized_subjects(
      const std::string& object_id) const;

  // --- revocation --------------------------------------------------------
  struct RevocationNotice {
    std::string subject_id;
    std::vector<std::string> objects_to_notify;  // size == updating overhead
    std::vector<GroupId> groups_rekeyed;
    std::size_t fellows_rekeyed = 0;
  };
  /// Remove a subject: every object she could access must learn to refuse
  /// her (overhead N, Table I); her secret groups rotate keys (overhead
  /// gamma-1 each, §VIII).
  RevocationNotice revoke_subject(const std::string& subject_id);
  [[nodiscard]] bool is_revoked(const std::string& subject_id) const;
  /// Admin-signed revocation notice to push onto the ground network (see
  /// backend/revocation.hpp). Each call consumes one sequence number.
  SignedRevocation issue_revocation(const std::string& subject_id);

  // --- persistence --------------------------------------------------------
  /// Sealed, checksummed snapshot of the authority's full state: admin
  /// keypair, clock/serial/group/revocation counters, subject/object/
  /// group records, policies, and DRBG — enough that issuance after a
  /// restore continues exactly where the snapshot left off.
  [[nodiscard]] Bytes snapshot() const;
  /// Strict restore: blank-or-exact, never throws — see
  /// core::ObjectEngine::restore for the contract. Identity check:
  /// strength and seed must match this instance's construction.
  persist::RestoreError restore(ByteSpan sealed);
  /// SHA-256 over the serialized state (round-trip/fuzz test probe).
  [[nodiscard]] Bytes state_digest() const;

  // --- bookkeeping accessors ----------------------------------------------
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  [[nodiscard]] const AttributeMap* subject_attributes(
      const std::string& id) const;
  [[nodiscard]] std::vector<std::string> group_members(GroupId id) const;

 private:
  struct SubjectRecord {
    AttributeMap attributes;
    std::vector<GroupId> groups;
    bool revoked = false;
  };
  struct ObjectRecord {
    AttributeMap attributes;
    Level level = Level::kL1;
    std::vector<GroupId> groups;
  };
  struct GroupRecord {
    std::string sensitive_attribute;
    Bytes key;
    std::vector<std::string> members;  // subject and object ids
  };

  crypto::Certificate issue_cert(const std::string& id,
                                 crypto::EntityRole role,
                                 const crypto::EcPoint& pub);
  Profile issue_profile(const std::string& id, crypto::EntityRole role,
                        const std::string& variant_tag,
                        const AttributeMap& attrs,
                        std::vector<std::string> services);

  /// Snapshot format walk and blank reset (registry_persist.cpp); same
  /// contract as the engines'.
  template <class Self, class Io>
  static void walk(Self& self, Io& io);
  void reset_to_blank();
  static constexpr persist::SnapshotKind kSnapshotKind =
      persist::SnapshotKind::kBackend;
  friend class persist::Envelope;

  const crypto::EcGroup& group_;
  std::uint64_t seed_ = 0;
  crypto::HmacDrbg rng_;
  crypto::EcKeyPair admin_;
  std::uint64_t clock_ = 1'000'000;  // simulation epoch seconds
  std::uint64_t next_serial_ = 1;
  GroupId next_group_ = 1;
  std::uint64_t revocation_seq_ = 0;

  std::map<std::string, SubjectRecord> subjects_;
  std::map<std::string, ObjectRecord> objects_;
  std::map<GroupId, GroupRecord> groups_;
  std::map<std::string, GroupId> group_by_attribute_;
  std::vector<Policy> policies_;
};

}  // namespace argus::backend
