#include "backend/registry.hpp"

#include <stdexcept>

namespace argus::backend {

Backend::Backend(crypto::Strength strength, std::uint64_t seed)
    : group_(crypto::group_for(strength)),
      seed_(seed),
      rng_(crypto::make_rng(seed, "backend")) {
  admin_ = crypto::ec_generate(group_, rng_);
}

crypto::Certificate Backend::issue_cert(const std::string& id,
                                        crypto::EntityRole role,
                                        const crypto::EcPoint& pub) {
  crypto::Certificate cert;
  cert.subject_id = id;
  cert.role = role;
  cert.strength = group_.params().strength;
  cert.pubkey = group_.encode_point(pub);
  cert.serial = next_serial_++;
  cert.not_before = clock_;
  cert.not_after = clock_ + 365ull * 24 * 3600;
  crypto::sign_certificate(group_, admin_.priv, cert);
  return cert;
}

Profile Backend::issue_profile(const std::string& id, crypto::EntityRole role,
                               const std::string& variant_tag,
                               const AttributeMap& attrs,
                               std::vector<std::string> services) {
  Profile prof;
  prof.entity_id = id;
  prof.role = role;
  prof.variant_tag = variant_tag;
  prof.attributes = attrs;
  prof.services = std::move(services);
  sign_profile(group_, admin_.priv, prof);
  return prof;
}

GroupId Backend::create_secret_group(const std::string& sensitive_attribute) {
  const auto it = group_by_attribute_.find(sensitive_attribute);
  if (it != group_by_attribute_.end()) return it->second;
  const GroupId id = next_group_++;
  GroupRecord rec;
  rec.sensitive_attribute = sensitive_attribute;
  rec.key = rng_.generate(kGroupKeySize);
  groups_.emplace(id, std::move(rec));
  group_by_attribute_.emplace(sensitive_attribute, id);
  return id;
}

Bytes Backend::group_key(GroupId id) const {
  const auto it = groups_.find(id);
  if (it == groups_.end()) {
    throw std::invalid_argument("Backend::group_key: unknown group");
  }
  return it->second.key;
}

std::size_t Backend::rotate_group_key(GroupId id) {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    throw std::invalid_argument("Backend::rotate_group_key: unknown group");
  }
  it->second.key = rng_.generate(kGroupKeySize);
  return it->second.members.size();
}

SubjectCredentials Backend::register_subject(
    const std::string& id, const AttributeMap& attributes,
    const std::vector<std::string>& sensitive_attributes) {
  if (subjects_.contains(id)) {
    throw std::invalid_argument("Backend: subject already registered: " + id);
  }
  SubjectCredentials cred;
  cred.id = id;
  cred.keys = crypto::ec_generate(group_, rng_);
  cred.cert = issue_cert(id, crypto::EntityRole::kSubject, cred.keys.pub);
  cred.prof = issue_profile(id, crypto::EntityRole::kSubject, "subject",
                            attributes, {});

  SubjectRecord rec;
  rec.attributes = attributes;
  for (const auto& sattr : sensitive_attributes) {
    const GroupId gid = create_secret_group(sattr);
    rec.groups.push_back(gid);
    groups_.at(gid).members.push_back(id);
    cred.group_keys.push_back({gid, groups_.at(gid).key, false});
  }
  if (cred.group_keys.empty()) {
    // Cover-up key: unique random key with a reserved group id; the
    // subject cannot tell it apart from a real group key (§VI-B).
    cred.group_keys.push_back(
        {next_group_++, rng_.generate(kGroupKeySize), true});
  }
  subjects_.emplace(id, std::move(rec));
  return cred;
}

ObjectCredentials Backend::register_object(
    const std::string& id, const AttributeMap& attributes, Level level,
    const std::vector<std::string>& public_services,
    const std::vector<Variant2Spec>& variants2,
    const std::vector<Variant3Spec>& variants3) {
  if (objects_.contains(id)) {
    throw std::invalid_argument("Backend: object already registered: " + id);
  }
  if (level == Level::kL3 && variants2.empty()) {
    throw std::invalid_argument(
        "Backend: a Level 3 object needs Level 2 variants for its cover "
        "role (indistinguishability, §VI-B)");
  }
  if (level != Level::kL3 && !variants3.empty()) {
    throw std::invalid_argument(
        "Backend: Level 3 variants require a Level 3 object");
  }

  ObjectCredentials cred;
  cred.id = id;
  cred.level = level;
  cred.keys = crypto::ec_generate(group_, rng_);
  cred.cert = issue_cert(id, crypto::EntityRole::kObject, cred.keys.pub);
  cred.public_prof = issue_profile(id, crypto::EntityRole::kObject, "public",
                                   attributes, public_services);

  ObjectRecord rec;
  rec.attributes = attributes;
  rec.level = level;

  for (const auto& spec : variants2) {
    ProfVariant2 v{Predicate::parse(spec.predicate_source),
                   issue_profile(id, crypto::EntityRole::kObject,
                                 spec.variant_tag, attributes, spec.services)};
    cred.variants2.push_back(std::move(v));
  }
  for (const auto& spec : variants3) {
    const GroupId gid = create_secret_group(spec.sensitive_attribute);
    rec.groups.push_back(gid);
    groups_.at(gid).members.push_back(id);
    ProfVariant3 v{gid, groups_.at(gid).key,
                   issue_profile(id, crypto::EntityRole::kObject,
                                 spec.variant_tag, attributes, spec.services)};
    cred.variants3.push_back(std::move(v));
  }
  objects_.emplace(id, std::move(rec));
  return cred;
}

void Backend::add_policy(const std::string& subject_pred,
                         const std::string& object_pred,
                         std::vector<std::string> rights) {
  policies_.push_back(Policy{Predicate::parse(subject_pred),
                             Predicate::parse(object_pred),
                             std::move(rights)});
}

std::vector<std::string> Backend::accessible_objects(
    const std::string& subject_id) const {
  const auto it = subjects_.find(subject_id);
  if (it == subjects_.end()) return {};
  std::vector<std::string> out;
  for (const auto& [oid, orec] : objects_) {
    for (const auto& pol : policies_) {
      if (pol.subject_pred.matches(it->second.attributes) &&
          pol.object_pred.matches(orec.attributes)) {
        out.push_back(oid);
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> Backend::authorized_subjects(
    const std::string& object_id) const {
  const auto it = objects_.find(object_id);
  if (it == objects_.end()) return {};
  std::vector<std::string> out;
  for (const auto& [sid, srec] : subjects_) {
    if (srec.revoked) continue;
    for (const auto& pol : policies_) {
      if (pol.subject_pred.matches(srec.attributes) &&
          pol.object_pred.matches(it->second.attributes)) {
        out.push_back(sid);
        break;
      }
    }
  }
  return out;
}

Backend::RevocationNotice Backend::revoke_subject(
    const std::string& subject_id) {
  auto it = subjects_.find(subject_id);
  if (it == subjects_.end()) {
    throw std::invalid_argument("Backend::revoke_subject: unknown subject");
  }
  RevocationNotice notice;
  notice.subject_id = subject_id;
  notice.objects_to_notify = accessible_objects(subject_id);
  // Rotate every secret group she belonged to; remaining fellows re-key.
  for (const GroupId gid : it->second.groups) {
    auto& grp = groups_.at(gid);
    std::erase(grp.members, subject_id);
    notice.groups_rekeyed.push_back(gid);
    notice.fellows_rekeyed += rotate_group_key(gid);
  }
  it->second.revoked = true;
  return notice;
}

SignedRevocation Backend::issue_revocation(const std::string& subject_id) {
  return make_revocation(group_, admin_.priv, subject_id,
                         ++revocation_seq_, clock_);
}

bool Backend::is_revoked(const std::string& subject_id) const {
  const auto it = subjects_.find(subject_id);
  return it != subjects_.end() && it->second.revoked;
}

const AttributeMap* Backend::subject_attributes(const std::string& id) const {
  const auto it = subjects_.find(id);
  return it == subjects_.end() ? nullptr : &it->second.attributes;
}

std::vector<std::string> Backend::group_members(GroupId id) const {
  const auto it = groups_.find(id);
  if (it == groups_.end()) return {};
  return it->second.members;
}

}  // namespace argus::backend
