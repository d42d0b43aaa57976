#include "shard/wire.h"

#include <cinttypes>
#include <cstdio>

#include "ldp/factory.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/xxhash.h"

namespace ldpr {
namespace {

// The frame around the payload bytes.  The checksum covers exactly
// the substring between them, so encoder and decoder hash the same
// bytes without re-serializing.
constexpr const char kFramePrefix[] = "{\"payload\":";
constexpr const char kFrameInfix[] = ",\"crc64\":\"";
constexpr const char kFrameSuffix[] = "\"}";

std::string ToHex16(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return std::string(buf, 16);
}

StatusOr<uint64_t> FromHex16(const std::string& hex) {
  if (hex.size() != 16)
    return InvalidArgumentError("hex field must be 16 digits: " + hex);
  uint64_t value = 0;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9')
      digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<uint64_t>(c - 'a') + 10;
    else
      return InvalidArgumentError("bad hex digit in field: " + hex);
    value = (value << 4) | digit;
  }
  return value;
}

// Reads a JSON number member that must hold an exact non-negative
// integer (chunk indices, unit counts, overrides).  Everything stored
// this way is far below 2^53, so the double round-trip is exact; the
// one full-64-bit field (the seed) travels as hex instead.
StatusOr<uint64_t> GetUInt(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number())
    return InvalidArgumentError("missing numeric field: " + key);
  const double x = v->number();
  const uint64_t u = static_cast<uint64_t>(x);
  if (x < 0 || static_cast<double>(u) != x)
    return InvalidArgumentError("field not a non-negative integer: " + key);
  return u;
}

StatusOr<double> GetNumber(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number())
    return InvalidArgumentError("missing numeric field: " + key);
  return v->number();
}

StatusOr<std::string> GetString(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_string())
    return InvalidArgumentError("missing string field: " + key);
  return v->string();
}

void EncodeSpec(const ShardTaskSpec& spec, JsonWriter& w) {
  w.BeginObject();
  w.Key("protocol");
  w.String(ProtocolKindName(spec.protocol));
  w.Key("epsilon");
  w.Number(spec.epsilon);
  w.Key("dataset");
  w.String(spec.dataset);
  w.Key("d");
  w.UInt(spec.d_override);
  w.Key("n");
  w.UInt(spec.n_override);
  w.Key("scale");
  w.Number(spec.scale);
  w.Key("attack");
  w.String(AttackKindName(spec.attack));
  w.Key("beta");
  w.Number(spec.beta);
  w.Key("targets");
  w.UInt(spec.num_targets);
  w.Key("eta");
  w.Number(spec.eta);
  w.Key("seed");
  w.String(ToHex16(spec.seed));
  w.Key("users_per_chunk");
  w.UInt(spec.chunking.users_per_chunk);
  w.Key("reports_per_chunk");
  w.UInt(spec.chunking.reports_per_chunk);
  w.EndObject();
}

StatusOr<ShardTaskSpec> DecodeSpec(const JsonValue& obj) {
  ShardTaskSpec spec;
  const auto protocol_name = GetString(obj, "protocol");
  if (!protocol_name.ok()) return protocol_name.status();
  const auto protocol = ParseProtocolKind(*protocol_name);
  if (!protocol.ok()) return protocol.status();
  spec.protocol = *protocol;
  const auto epsilon = GetNumber(obj, "epsilon");
  if (!epsilon.ok()) return epsilon.status();
  spec.epsilon = *epsilon;
  const auto dataset = GetString(obj, "dataset");
  if (!dataset.ok()) return dataset.status();
  spec.dataset = *dataset;
  const auto d_override = GetUInt(obj, "d");
  if (!d_override.ok()) return d_override.status();
  spec.d_override = *d_override;
  const auto n_override = GetUInt(obj, "n");
  if (!n_override.ok()) return n_override.status();
  spec.n_override = *n_override;
  const auto scale = GetNumber(obj, "scale");
  if (!scale.ok()) return scale.status();
  spec.scale = *scale;
  const auto attack_name = GetString(obj, "attack");
  if (!attack_name.ok()) return attack_name.status();
  const auto attack = ParseAttackKind(*attack_name);
  if (!attack.ok()) return attack.status();
  spec.attack = *attack;
  const auto beta = GetNumber(obj, "beta");
  if (!beta.ok()) return beta.status();
  spec.beta = *beta;
  const auto targets = GetUInt(obj, "targets");
  if (!targets.ok()) return targets.status();
  spec.num_targets = *targets;
  const auto eta = GetNumber(obj, "eta");
  if (!eta.ok()) return eta.status();
  spec.eta = *eta;
  const auto seed_hex = GetString(obj, "seed");
  if (!seed_hex.ok()) return seed_hex.status();
  const auto seed = FromHex16(*seed_hex);
  if (!seed.ok()) return seed.status();
  spec.seed = *seed;
  const auto users_per_chunk = GetUInt(obj, "users_per_chunk");
  if (!users_per_chunk.ok()) return users_per_chunk.status();
  spec.chunking.users_per_chunk = *users_per_chunk;
  const auto reports_per_chunk = GetUInt(obj, "reports_per_chunk");
  if (!reports_per_chunk.ok()) return reports_per_chunk.status();
  spec.chunking.reports_per_chunk = *reports_per_chunk;
  if (spec.chunking.users_per_chunk == 0 ||
      spec.chunking.reports_per_chunk == 0)
    return InvalidArgumentError("chunk sizes must be positive");
  return spec;
}

}  // namespace

bool ShardTaskSpecsEqual(const ShardTaskSpec& a, const ShardTaskSpec& b) {
  return a.protocol == b.protocol && a.epsilon == b.epsilon &&
         a.dataset == b.dataset && a.d_override == b.d_override &&
         a.n_override == b.n_override && a.scale == b.scale &&
         a.attack == b.attack && a.beta == b.beta &&
         a.num_targets == b.num_targets && a.eta == b.eta &&
         a.seed == b.seed &&
         a.chunking.users_per_chunk == b.chunking.users_per_chunk &&
         a.chunking.reports_per_chunk == b.chunking.reports_per_chunk;
}

std::string EncodePartialLine(const PartialRecord& record) {
  JsonWriter w;
  w.BeginObject();
  w.Key("version");
  w.Int(kShardWireVersion);
  w.Key("spec");
  EncodeSpec(record.spec, w);
  w.Key("source");
  w.String(record.source);
  w.Key("chunk_begin");
  w.UInt(record.chunk_begin);
  w.Key("chunk_end");
  w.UInt(record.chunk_end);
  w.Key("unit_begin");
  w.UInt(record.unit_begin);
  w.Key("unit_end");
  w.UInt(record.unit_end);
  w.Key("counts");
  w.BeginArray();
  for (double c : record.counts) w.Number(c);
  w.EndArray();
  w.EndObject();

  const std::string& payload = w.str();
  const uint64_t crc =
      XxHash64(payload.data(), payload.size(), kShardChecksumSeed);
  std::string line;
  line.reserve(payload.size() + 48);
  line += kFramePrefix;
  line += payload;
  line += kFrameInfix;
  line += ToHex16(crc);
  line += kFrameSuffix;
  line += '\n';
  return line;
}

StatusOr<PartialRecord> DecodePartialLine(const std::string& line) {
  std::string body = line;
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r'))
    body.pop_back();

  // Frame scan: the payload is the substring between the fixed prefix
  // and the final infix/suffix.  A torn line loses the tail and fails
  // here before any hashing or parsing.
  const size_t prefix_len = sizeof(kFramePrefix) - 1;
  const size_t infix_len = sizeof(kFrameInfix) - 1;
  const size_t suffix_len = sizeof(kFrameSuffix) - 1;
  if (body.compare(0, prefix_len, kFramePrefix) != 0)
    return InvalidArgumentError("wire frame: missing payload prefix");
  if (body.size() < suffix_len ||
      body.compare(body.size() - suffix_len, suffix_len, kFrameSuffix) != 0)
    return InvalidArgumentError("wire frame: missing trailer");
  const size_t infix_pos = body.rfind(kFrameInfix);
  if (infix_pos == std::string::npos || infix_pos < prefix_len)
    return InvalidArgumentError("wire frame: missing checksum field");
  const size_t crc_begin = infix_pos + infix_len;
  if (body.size() - suffix_len < crc_begin ||
      body.size() - suffix_len - crc_begin != 16)
    return InvalidArgumentError("wire frame: malformed checksum");

  const auto expected_crc = FromHex16(body.substr(crc_begin, 16));
  if (!expected_crc.ok()) return expected_crc.status();
  const std::string payload = body.substr(prefix_len, infix_pos - prefix_len);
  const uint64_t actual_crc =
      XxHash64(payload.data(), payload.size(), kShardChecksumSeed);
  if (actual_crc != *expected_crc)
    return InvalidArgumentError("wire checksum mismatch");

  const auto root = ParseJson(payload);
  if (!root.ok()) return root.status();
  if (!root->is_object())
    return InvalidArgumentError("wire payload is not an object");
  const auto version = GetUInt(*root, "version");
  if (!version.ok()) return version.status();
  if (*version != static_cast<uint64_t>(kShardWireVersion))
    return InvalidArgumentError("unsupported wire version: " +
                                std::to_string(*version));

  PartialRecord record;
  const JsonValue* spec = root->Find("spec");
  if (spec == nullptr || !spec->is_object())
    return InvalidArgumentError("missing spec object");
  auto decoded_spec = DecodeSpec(*spec);
  if (!decoded_spec.ok()) return decoded_spec.status();
  record.spec = *std::move(decoded_spec);
  auto source = GetString(*root, "source");
  if (!source.ok()) return source.status();
  record.source = *std::move(source);
  if (record.source != kShardSourceGenuine &&
      record.source != kShardSourceMalicious)
    return InvalidArgumentError("unknown partial source: " + record.source);
  const auto chunk_begin = GetUInt(*root, "chunk_begin");
  if (!chunk_begin.ok()) return chunk_begin.status();
  record.chunk_begin = *chunk_begin;
  const auto chunk_end = GetUInt(*root, "chunk_end");
  if (!chunk_end.ok()) return chunk_end.status();
  record.chunk_end = *chunk_end;
  const auto unit_begin = GetUInt(*root, "unit_begin");
  if (!unit_begin.ok()) return unit_begin.status();
  record.unit_begin = *unit_begin;
  const auto unit_end = GetUInt(*root, "unit_end");
  if (!unit_end.ok()) return unit_end.status();
  record.unit_end = *unit_end;
  if (record.chunk_begin > record.chunk_end ||
      record.unit_begin > record.unit_end)
    return InvalidArgumentError("inverted chunk/unit range");

  const JsonValue* counts = root->Find("counts");
  if (counts == nullptr || !counts->is_array())
    return InvalidArgumentError("missing counts array");
  record.counts.reserve(counts->array().size());
  for (const JsonValue& c : counts->array()) {
    if (!c.is_number())
      return InvalidArgumentError("non-numeric count entry");
    record.counts.push_back(c.number());
  }
  return record;
}

}  // namespace ldpr
