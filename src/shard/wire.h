// The shard wire format: one partial support-count vector per line,
// versioned and checksummed, exchanged between shard workers and the
// merger (shard_task.h, merge.h) as encoded lines.
//
// Line layout (JSONL — one record per '\n'-terminated line):
//
//   {"payload":{...},"crc64":"<16 hex digits>"}
//
// The checksum is xxHash64 over the payload's exact serialized bytes
// (the substring between `{"payload":` and `,"crc64":`), so a decoder
// verifies the very bytes it is about to parse: a torn/truncated
// write fails the frame scan or the JSON parse, and a flipped payload
// bit fails the checksum.  The payload carries the full ShardTaskSpec
// (so a merger can reject partials from a different run), the source
// stream ("genuine" user chunks or "malicious" report chunks), the
// canonical chunk range [chunk_begin, chunk_end) within that source,
// the unit range (users or reports) those chunks cover, and the
// length-d counts vector.
//
// Determinism: counts are integer-valued doubles far below 2^53 and
// serialize via the shortest round-trip representation
// (util/json_writer.h), so encode(decode(line)) == line byte for
// byte and merged sums regroup exactly.  Seeds are full 64-bit values
// (DeriveSeed output), which a JSON double cannot hold — they travel
// as 16-hex-digit strings.
//
// Everything here is pure serialization; chunk semantics live in
// shard_task.h, merging in merge.h, fault injection in fault.h.

#ifndef LDPR_SHARD_WIRE_H_
#define LDPR_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ldp/protocol.h"
#include "sim/pipeline.h"
#include "util/status.h"

namespace ldpr {

/// Wire format version; bumped on any incompatible payload change.
/// Decoders reject other versions outright — partials are transient
/// artifacts of one run, never archived across releases.
inline constexpr int kShardWireVersion = 1;

/// Seed of the xxHash64 payload checksum ("LDPR" in ASCII).
inline constexpr uint64_t kShardChecksumSeed = 0x4c445052;

/// Chunk sizes of the shard decomposition.  The defaults match the
/// in-process paths (SampleSupportCountsSharded, AddAllSharded), which
/// is what makes a default-chunking merge byte-identical to them; the
/// fault scenarios shrink the chunks so CI-scale populations still
/// split into enough chunks to lose fractions of.
struct ShardChunking {
  uint64_t users_per_chunk = kUsersPerAggregationShard;
  uint64_t reports_per_chunk = kReportsPerAggregationShard;
};

/// Everything that identifies one shard-aggregated trial.  Workers
/// and the merger each derive their view of the trial from this spec
/// alone (plus the dataset), so two workers with equal specs agree
/// on every chunk boundary and every RNG stream.
struct ShardTaskSpec {
  ProtocolKind protocol = ProtocolKind::kGrr;
  double epsilon = 0.5;
  /// Dataset descriptor: a runner generator name ("ipums", "fire",
  /// "zipf", "uniform") resolvable via ResolveBenchDataset, or
  /// "custom" for in-memory datasets (scenarios).
  std::string dataset = "zipf";
  /// Pre-scale d/n overrides for the resizable generators; 0 = the
  /// generator's default shape.
  uint64_t d_override = 0;
  uint64_t n_override = 0;
  double scale = 1.0;
  AttackKind attack = AttackKind::kNone;
  double beta = 0.05;
  uint64_t num_targets = 10;
  double eta = 0.2;
  uint64_t seed = 1;
  ShardChunking chunking;
};

/// Field-wise spec equality (the merger's cross-partial consistency
/// check).
bool ShardTaskSpecsEqual(const ShardTaskSpec& a, const ShardTaskSpec& b);

/// The two partial sources a worker can emit.
inline constexpr const char* kShardSourceGenuine = "genuine";
inline constexpr const char* kShardSourceMalicious = "malicious";

/// One wire record: the sum of the canonical chunks
/// [chunk_begin, chunk_end) of `source`, accumulated in ascending
/// chunk order (so merging records in ascending chunk order equals
/// the in-process chunk-order merge).
struct PartialRecord {
  ShardTaskSpec spec;
  std::string source;        // kShardSourceGenuine | kShardSourceMalicious
  uint64_t chunk_begin = 0;  // within the source's chunk space
  uint64_t chunk_end = 0;
  uint64_t unit_begin = 0;   // users (genuine) or reports (malicious)
  uint64_t unit_end = 0;
  std::vector<double> counts;
};

/// Serializes one record as a single '\n'-terminated wire line.
std::string EncodePartialLine(const PartialRecord& record);

/// Parses and verifies one wire line (trailing '\n' optional).
/// Rejects torn frames, checksum mismatches, unknown versions, and
/// structurally invalid payloads with an error naming the cause.
StatusOr<PartialRecord> DecodePartialLine(const std::string& line);

}  // namespace ldpr

#endif  // LDPR_SHARD_WIRE_H_
