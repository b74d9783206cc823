// Versioned, checksummed binary snapshots for engine/backend state.
//
// Envelope layout (all integers big-endian, matching common/serde.hpp):
//
//   "ARGS"            4-byte magic
//   u32               format version (kSnapshotVersion)
//   u8                SnapshotKind
//   bytes32           payload (opaque to this layer)
//   32 raw bytes      SHA-256 over everything above
//
// The load path is strict and total: open_snapshot never throws and
// never partially succeeds — a wrong magic, unknown version, mismatched
// kind, truncated buffer, trailing garbage, or checksum failure each map
// to a distinct RestoreError and an empty payload. Consumers (the
// engines, the backend) then parse the payload through Envelope
// (codec.hpp) and keep the same contract: any parse failure leaves them
// in the freshly-reset blank state, never half-applied.
//
// A fleet bundle is a snapshot of kind kFleet whose payload is a list of
// named sections, each itself a complete sealed snapshot — so every
// member's integrity is checked independently and one corrupt section
// cannot take down its neighbours' restores.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace argus::persist {

inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::size_t kMagicSize = 4;
inline constexpr std::size_t kChecksumSize = 32;

/// What state a snapshot carries; the opener requires an exact match so
/// a subject snapshot can never be fed to an object engine.
enum class SnapshotKind : std::uint8_t {
  kObjectEngine = 1,
  kSubjectEngine = 2,
  kBackend = 3,
  kFleet = 4,
};

enum class RestoreError : std::uint8_t {
  kOk = 0,
  kTruncated,         // too short for the envelope, or payload cut off
  kBadMagic,          // not a snapshot at all
  kBadVersion,        // produced by an unknown format version
  kBadKind,           // valid snapshot of the wrong state machine
  kBadChecksum,       // bit-level corruption (flip, extension, splice)
  kBadPayload,        // envelope intact but the state inside won't parse
  kIdentityMismatch,  // state belongs to a different entity/config
  kIoError,           // file missing/unreadable (file helpers only)
};

const char* restore_error_name(RestoreError err);

/// The shared snapshot()/state_digest()/restore() body (codec.hpp).
class Envelope;

/// Thrown by state parsers when an intact payload belongs to a different
/// entity or configuration; restore paths translate it into
/// RestoreError::kIdentityMismatch (and stay blank).
class IdentityMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wrap `payload` in a sealed envelope of `kind`.
[[nodiscard]] Bytes seal_snapshot(SnapshotKind kind, ByteSpan payload);

struct OpenResult {
  RestoreError error = RestoreError::kOk;
  Bytes payload;  // empty unless error == kOk
  [[nodiscard]] explicit operator bool() const {
    return error == RestoreError::kOk;
  }
};

/// Validate the envelope and return the payload. Never throws; every
/// failure mode maps to a RestoreError with an empty payload.
[[nodiscard]] OpenResult open_snapshot(ByteSpan sealed, SnapshotKind kind);

/// Named sections, in order. Section blobs are themselves sealed
/// snapshots when produced by the fleet helpers, but this layer treats
/// them as opaque bytes.
using BundleEntries = std::vector<std::pair<std::string, Bytes>>;

/// The bundle section that holds object `object_id`'s engine snapshot.
[[nodiscard]] inline std::string object_section(const std::string& object_id) {
  return "object:" + object_id;
}

[[nodiscard]] Bytes seal_bundle(const BundleEntries& entries);

struct BundleResult {
  RestoreError error = RestoreError::kOk;
  BundleEntries entries;
  [[nodiscard]] explicit operator bool() const {
    return error == RestoreError::kOk;
  }
};

[[nodiscard]] BundleResult open_bundle(ByteSpan sealed);

/// Whole-file helpers. write returns false on any IO failure (and never
/// leaves a half-written file behind: it writes to a sibling temp path
/// and renames). read returns kIoError when the file cannot be read.
bool write_snapshot_file(const std::string& path, ByteSpan sealed);

struct ReadResult {
  RestoreError error = RestoreError::kOk;
  Bytes data;
  [[nodiscard]] explicit operator bool() const {
    return error == RestoreError::kOk;
  }
};

[[nodiscard]] ReadResult read_snapshot_file(const std::string& path);

}  // namespace argus::persist
