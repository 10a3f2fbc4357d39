// Bit-exact FNV-1a digest over per-job records — the replay-equivalence
// oracle. Two runs that produce the same digest produced byte-identical
// outcome records; the bench harness uses it to detect behavioural drift
// and the checkpoint tests use it as the resume-equivalence bar (a restored
// run must digest identically to an uninterrupted one).
#pragma once

#include <cstdint>
#include <string>

#include "metrics/bandwidth.h"
#include "metrics/job_record.h"
#include "metrics/report.h"

namespace iosched::metrics {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over the 8 bytes of `value` (little-endian byte order).
std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value);
/// Bit-exact double mix (no decimal round-trip).
std::uint64_t FnvMix(std::uint64_t hash, double value);

/// Digest over every field of every record. Records are sorted by id by
/// RunSimulation, so the digest is replay-order stable.
std::uint64_t DigestRecords(const JobRecords& records);

/// Bit-exact digests over every field of a run's aggregate outputs: equal
/// digests mean byte-identical summaries (the resume-equivalence bar
/// extends to them, not only to the records).
std::uint64_t DigestBandwidth(const BandwidthSummary& summary);
std::uint64_t DigestReport(const Report& report);

/// "0x"-prefixed 16-digit hex rendering, for logs and JSON.
std::string HexDigest(std::uint64_t digest);

}  // namespace iosched::metrics
