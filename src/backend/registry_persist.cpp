// Snapshot/restore for the backend authority — one walk both writes and
// parses the format (persist/codec.hpp), and persist::Envelope gives it
// the engines' blank-or-exact contract: reset, parse in place, and reset
// again if anything in the payload fails to parse or to match.
//
// Unlike the engines, the backend has no resumption material, so a
// successful restore is bit-exact: certificates and group keys issued
// after a reboot continue the same deterministic sequence the snapshot
// interrupted.

#include <string>
#include <utility>

#include "backend/registry.hpp"
#include "persist/codec.hpp"

namespace argus::backend {

namespace {

/// An attribute map travels as its signed serialization; a malformed one
/// throws on load.
template <class Io, class Attrs>
void walk_attributes(Io& io, Attrs& attrs) {
  Bytes wire = attrs.serialize();
  io.bytes16(wire);
  if constexpr (Io::kLoading) {
    auto parsed = AttributeMap::parse(wire);
    if (!parsed) {
      throw std::invalid_argument("persist: malformed attribute map");
    }
    attrs = std::move(*parsed);
  }
}

/// A predicate travels as its source text; bad syntax throws on load.
template <class Io, class Pred>
void walk_predicate(Io& io, Pred& pred) {
  std::string source = pred.source();
  io.str(source);
  if constexpr (Io::kLoading) pred = Predicate::parse(source);
}

}  // namespace

template <class Self, class Io>
void Backend::walk(Self& self, Io& io) {
  io.identity(self.group_.params().strength, self.seed_);

  io.keypair(self.group_, self.admin_);
  io.u64(self.clock_);
  io.u64(self.next_serial_);
  io.u64(self.next_group_);
  io.u64(self.revocation_seq_);

  const auto walk_groups = [&](auto& groups) {
    io.seq(groups, [&](auto& g) { io.u64(g); });
  };
  io.map(self.subjects_, [&](auto& id, auto& rec) {
    io.str(id);
    walk_attributes(io, rec.attributes);
    walk_groups(rec.groups);
    io.u8(rec.revoked);
  });
  io.map(self.objects_, [&](auto& id, auto& rec) {
    io.str(id);
    walk_attributes(io, rec.attributes);
    io.u8(rec.level);
    walk_groups(rec.groups);
  });
  io.map(self.groups_, [&](auto& id, auto& rec) {
    io.u64(id);
    io.str(rec.sensitive_attribute);
    io.bytes16(rec.key);
    io.seq(rec.members, [&](auto& m) { io.str(m); });
  });
  io.map(self.group_by_attribute_, [&](auto& attr, auto& id) {
    io.str(attr);
    io.u64(id);
  });
  io.seq(
      self.policies_,
      [&](auto& p) {
        walk_predicate(io, p.subject_pred);
        walk_predicate(io, p.object_pred);
        io.seq(p.rights, [&](auto& right) { io.str(right); });
      },
      Policy{Predicate::always_true(), Predicate::always_true(), {}});
  io.drbg(self.rng_);
}

void Backend::reset_to_blank() {
  rng_ = crypto::make_rng(seed_, "backend");
  admin_ = crypto::ec_generate(group_, rng_);
  clock_ = 1'000'000;
  next_serial_ = 1;
  next_group_ = 1;
  revocation_seq_ = 0;
  subjects_.clear();
  objects_.clear();
  groups_.clear();
  group_by_attribute_.clear();
  policies_.clear();
}

Bytes Backend::snapshot() const { return persist::Envelope::seal(*this); }

Bytes Backend::state_digest() const { return persist::Envelope::digest(*this); }

persist::RestoreError Backend::restore(ByteSpan sealed) {
  return persist::Envelope::restore(*this, sealed);
}

}  // namespace argus::backend
