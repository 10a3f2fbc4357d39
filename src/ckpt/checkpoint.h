// Self-describing checkpoint container.
//
// Layout (all integers little-endian):
//   magic            8 bytes  "IOSCKPT1"
//   format_version   u32      bumped on any incompatible layout change,
//                             and when the config hash's algorithm
//                             changes (v5: word-wide workload
//                             fingerprint; v7: a phase is two words and
//                             provenance enters as integer ids), so an
//                             old file fails as VersionError rather than
//                             a config mismatch
//   config_hash      u64      core::SimulationConfigHash: the run
//                             configuration + workload fingerprint; a
//                             resume against a different config must
//                             fail, not silently diverge
//   section_count    u32
//   per section:
//     name           u32 length + bytes
//     payload_size   u64
//     payload_crc    u32      CRC-32 of the payload bytes
//     payload        payload_size bytes
//
// Every section's CRC is verified at load time, so a torn or bit-flipped
// file surfaces as CrcError before any state is restored; section names
// are unique. Files are published with util::WriteFileAtomic (temp + fsync
// + rename), so a crash during a save can never leave a half-written
// checkpoint under the final name — at worst a stale *.tmpXXXXXX sibling.
// A save writes the headers and section payloads straight to the temp
// file, and a load reads the file into one buffer of its exact size:
// neither assembles a second full-size copy of the file.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/serializer.h"

namespace iosched::ckpt {

inline constexpr std::string_view kMagic = "IOSCKPT1";
inline constexpr std::uint32_t kFormatVersion = 7;

/// In-memory checkpoint: named binary sections plus the config hash.
/// Built section-by-section on save; fully decoded and CRC-verified on
/// load.
class CheckpointFile {
 public:
  void SetConfigHash(std::uint64_t hash) { config_hash_ = hash; }
  std::uint64_t config_hash() const { return config_hash_; }

  void AddSection(std::string name, std::string payload);

  bool HasSection(std::string_view name) const;
  /// Throws FormatError if the section is absent.
  std::string_view Section(std::string_view name) const;

  /// Serializes to the on-disk byte layout.
  std::string Encode() const;
  /// Atomically publishes the bytes Encode() would return (temp + fsync +
  /// rename), writing each header and payload in place.
  void WriteAtomic(const std::string& path) const;

  /// Parses and CRC-verifies `bytes`. `context` (typically the path) is
  /// included in error messages. Throws FormatError (also for a repeated
  /// section name) / VersionError / CrcError.
  static CheckpointFile Decode(std::string_view bytes,
                               const std::string& context);
  /// Reads the whole file and decodes it.
  static CheckpointFile Load(const std::string& path);

 private:
  /// The on-disk layout as pieces, in file order: the file header, then
  /// each section's header and payload. Header bytes live in `headers`;
  /// payload pieces view sections_.
  std::vector<std::string_view> Layout(
      std::vector<std::string>& headers) const;

  std::uint64_t config_hash_ = 0;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Checkpoint/resume knobs, filled from the [checkpoint] INI section or CLI
/// flags. Checkpointing is active when `directory` is non-empty and at
/// least one trigger is enabled.
struct Options {
  /// Where periodic checkpoints land; empty disables checkpointing.
  std::string directory;
  /// Save every N simulated seconds (<= 0 disables this trigger).
  double every_sim_seconds = 0.0;
  /// Save every N processed events (0 disables; the deterministic trigger
  /// used by resume-equivalence tests).
  std::uint64_t every_events = 0;
  /// Save every N wall-clock seconds (<= 0 disables this trigger).
  double every_wall_seconds = 0.0;
  /// Keep the newest N periodic checkpoints, pruning older ones after each
  /// successful save (<= 0 keeps everything).
  int keep_last = 3;
  /// Explicit checkpoint file to restore before running; empty = none.
  std::string resume_from;
  /// Scan `directory` for the newest valid checkpoint and resume from it
  /// (falling back to older ones on CRC/format damage). No-op when the
  /// directory holds no usable checkpoint.
  bool resume_latest = false;

  bool SavingEnabled() const {
    return !directory.empty() &&
           (every_sim_seconds > 0 || every_events > 0 ||
            every_wall_seconds > 0);
  }
};

/// "<dir>/ckpt-<seq, zero-padded>.iosckpt".
std::string CheckpointFileName(const std::string& directory,
                               std::uint64_t sequence);

/// Checkpoints in `directory`, sorted by ascending sequence number.
/// Returns empty if the directory does not exist.
std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& directory);

/// One past the highest existing sequence number (1 for an empty dir).
std::uint64_t NextSequence(const std::string& directory);

/// Removes all but the newest `keep_last` checkpoints (no-op if
/// keep_last <= 0).
void PruneOld(const std::string& directory, int keep_last);

/// Newest checkpoint in `directory` that decodes cleanly and matches
/// `expected_config_hash`; damaged or mismatched files are skipped (noted
/// in `*diagnostic` when non-null). Returns "" when none qualifies.
std::string FindLatestValid(const std::string& directory,
                            std::uint64_t expected_config_hash,
                            std::string* diagnostic = nullptr);

}  // namespace iosched::ckpt
