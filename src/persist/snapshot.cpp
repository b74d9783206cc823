#include "persist/snapshot.hpp"

#include <cstdio>
#include <cstring>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace argus::persist {

namespace {

constexpr std::uint8_t kMagic[kMagicSize] = {'A', 'R', 'G', 'S'};

bool kind_known(std::uint8_t k) {
  return k >= static_cast<std::uint8_t>(SnapshotKind::kObjectEngine) &&
         k <= static_cast<std::uint8_t>(SnapshotKind::kFleet);
}

}  // namespace

const char* restore_error_name(RestoreError err) {
  switch (err) {
    case RestoreError::kOk:
      return "ok";
    case RestoreError::kTruncated:
      return "truncated";
    case RestoreError::kBadMagic:
      return "bad_magic";
    case RestoreError::kBadVersion:
      return "bad_version";
    case RestoreError::kBadKind:
      return "bad_kind";
    case RestoreError::kBadChecksum:
      return "bad_checksum";
    case RestoreError::kBadPayload:
      return "bad_payload";
    case RestoreError::kIdentityMismatch:
      return "identity_mismatch";
    case RestoreError::kIoError:
      return "io_error";
  }
  return "?";
}

Bytes seal_snapshot(SnapshotKind kind, ByteSpan payload) {
  ByteWriter w;
  w.raw(ByteSpan(kMagic, kMagicSize));
  w.u32(kSnapshotVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.bytes32(payload);
  Bytes out = w.take();
  const Bytes sum = crypto::Sha256::hash(out);
  out.insert(out.end(), sum.begin(), sum.end());
  return out;
}

OpenResult open_snapshot(ByteSpan sealed, SnapshotKind kind) {
  // Fixed header + empty payload + trailer is the smallest valid file.
  constexpr std::size_t kMinSize = kMagicSize + 4 + 1 + 4 + kChecksumSize;
  if (sealed.size() < kMinSize) return {RestoreError::kTruncated, {}};
  if (std::memcmp(sealed.data(), kMagic, kMagicSize) != 0) {
    return {RestoreError::kBadMagic, {}};
  }
  // Checksum first: a corrupt length field must read as corruption, not
  // as a confusing truncation/version error derived from garbage.
  const std::size_t body_len = sealed.size() - kChecksumSize;
  const Bytes sum = crypto::Sha256::hash(sealed.subspan(0, body_len));
  if (!ct_equal(sum, sealed.subspan(body_len))) {
    return {RestoreError::kBadChecksum, {}};
  }
  try {
    ByteReader r(sealed.subspan(0, body_len));
    (void)r.raw(kMagicSize);
    const std::uint32_t version = r.u32();
    if (version != kSnapshotVersion) return {RestoreError::kBadVersion, {}};
    const std::uint8_t k = r.u8();
    if (!kind_known(k)) return {RestoreError::kBadKind, {}};
    Bytes payload = r.bytes32();
    r.expect_done();
    if (static_cast<SnapshotKind>(k) != kind) {
      return {RestoreError::kBadKind, {}};
    }
    return {RestoreError::kOk, std::move(payload)};
  } catch (const SerdeError&) {
    // Unreachable in practice (the checksum already vouched for the
    // bytes), but the no-throw contract holds regardless.
    return {RestoreError::kTruncated, {}};
  }
}

Bytes seal_bundle(const BundleEntries& entries) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [name, blob] : entries) {
    w.str(name);
    w.bytes32(blob);
  }
  return seal_snapshot(SnapshotKind::kFleet, w.data());
}

BundleResult open_bundle(ByteSpan sealed) {
  OpenResult open = open_snapshot(sealed, SnapshotKind::kFleet);
  if (!open) return {open.error, {}};
  try {
    ByteReader r(open.payload);
    const std::uint32_t count = r.u32();
    BundleEntries entries;
    entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = r.str();
      Bytes blob = r.bytes32();
      entries.emplace_back(std::move(name), std::move(blob));
    }
    r.expect_done();
    return {RestoreError::kOk, std::move(entries)};
  } catch (const SerdeError&) {
    return {RestoreError::kBadPayload, {}};
  }
}

bool write_snapshot_file(const std::string& path, ByteSpan sealed) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written =
      sealed.empty() ? 0 : std::fwrite(sealed.data(), 1, sealed.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != sealed.size() || !flushed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

ReadResult read_snapshot_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {RestoreError::kIoError, {}};
  Bytes data;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return {RestoreError::kIoError, {}};
  return {RestoreError::kOk, std::move(data)};
}

}  // namespace argus::persist
