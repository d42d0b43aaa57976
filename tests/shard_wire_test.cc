// Wire-format locks for src/shard/wire.h: golden bytes of one fully
// specified record (any encoder change must consciously bump the
// version), loss-free round-trips including 64-bit seeds a JSON
// double cannot hold, and the rejection contract — torn frames,
// flipped payload bits, wrong versions, and malformed payloads all
// refuse to decode.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "shard/wire.h"

namespace ldpr {
namespace {

PartialRecord MakeRecord() {
  PartialRecord record;
  record.spec.protocol = ProtocolKind::kOue;
  record.spec.epsilon = 0.5;
  record.spec.dataset = "zipf";
  record.spec.d_override = 16;
  record.spec.n_override = 1000;
  record.spec.scale = 1.0;
  record.spec.attack = AttackKind::kMga;
  record.spec.beta = 0.05;
  record.spec.num_targets = 10;
  record.spec.eta = 0.2;
  record.spec.seed = 0xDEADBEEFCAFEBABEull;  // > 2^53: breaks JSON doubles
  record.spec.chunking.users_per_chunk = 64;
  record.spec.chunking.reports_per_chunk = 8;
  record.source = kShardSourceGenuine;
  record.chunk_begin = 2;
  record.chunk_end = 5;
  record.unit_begin = 128;
  record.unit_end = 320;
  record.counts = {0.0, 3.0, 17.0, 192.0};
  return record;
}

// The exact bytes of the record above.  This is the compatibility
// contract: if this test fails, the change is a wire-format break and
// kShardWireVersion must be bumped.
constexpr char kGoldenLine[] =
    "{\"payload\":{\"version\":1,\"spec\":{\"protocol\":\"OUE\","
    "\"epsilon\":0.5,\"dataset\":\"zipf\",\"d\":16,\"n\":1000,\"scale\":1,"
    "\"attack\":\"MGA\",\"beta\":0.05,\"targets\":10,\"eta\":0.2,"
    "\"seed\":\"deadbeefcafebabe\",\"users_per_chunk\":64,"
    "\"reports_per_chunk\":8},\"source\":\"genuine\",\"chunk_begin\":2,"
    "\"chunk_end\":5,\"unit_begin\":128,\"unit_end\":320,"
    "\"counts\":[0,3,17,192]},\"crc64\":\"fd7f66ef91f03843\"}\n";

TEST(ShardWireTest, GoldenBytes) {
  EXPECT_EQ(EncodePartialLine(MakeRecord()), kGoldenLine);
}

TEST(ShardWireTest, RoundTripIsLossFree) {
  const PartialRecord record = MakeRecord();
  const std::string line = EncodePartialLine(record);
  const auto decoded = DecodePartialLine(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(ShardTaskSpecsEqual(decoded->spec, record.spec));
  EXPECT_EQ(decoded->spec.seed, record.spec.seed);
  EXPECT_EQ(decoded->source, record.source);
  EXPECT_EQ(decoded->chunk_begin, record.chunk_begin);
  EXPECT_EQ(decoded->chunk_end, record.chunk_end);
  EXPECT_EQ(decoded->unit_begin, record.unit_begin);
  EXPECT_EQ(decoded->unit_end, record.unit_end);
  EXPECT_EQ(decoded->counts, record.counts);
  // encode(decode(line)) == line, byte for byte.
  EXPECT_EQ(EncodePartialLine(*decoded), line);
}

TEST(ShardWireTest, DecodeAcceptsLineWithoutTrailingNewline) {
  std::string line = EncodePartialLine(MakeRecord());
  line.pop_back();
  EXPECT_TRUE(DecodePartialLine(line).ok());
}

TEST(ShardWireTest, EveryTruncationIsRejected) {
  const std::string line = EncodePartialLine(MakeRecord());
  // A torn write can stop after any byte; no prefix may decode.
  for (size_t len = 0; len + 1 < line.size(); len += 7)
    EXPECT_FALSE(DecodePartialLine(line.substr(0, len)).ok()) << len;
}

TEST(ShardWireTest, EveryPayloadBitFlipIsRejected) {
  const std::string line = EncodePartialLine(MakeRecord());
  const size_t payload_begin = std::string("{\"payload\":").size();
  const size_t payload_end = line.rfind(",\"crc64\":");
  ASSERT_NE(payload_end, std::string::npos);
  for (size_t i = payload_begin; i < payload_end; i += 11) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = line;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(DecodePartialLine(flipped).ok())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(ShardWireTest, WrongVersionIsRejected) {
  // Re-frame a version-bumped payload with a *valid* checksum: the
  // version check itself must reject it, not the CRC.
  std::string line = EncodePartialLine(MakeRecord());
  const std::string old_payload = "{\"version\":1,";
  const std::string new_payload = "{\"version\":2,";
  const size_t at = line.find(old_payload);
  ASSERT_NE(at, std::string::npos);
  line.replace(at, old_payload.size(), new_payload);
  const auto decoded = DecodePartialLine(line);
  EXPECT_FALSE(decoded.ok());
}

TEST(ShardWireTest, GarbageIsRejected) {
  for (const char* junk :
       {"", "\n", "{}", "not json at all",
        "{\"payload\":{},\"crc64\":\"0000000000000000\"}",
        "{\"payload\":{\"version\":1},\"crc64\":\"zz\"}"}) {
    EXPECT_FALSE(DecodePartialLine(junk).ok()) << junk;
  }
}

}  // namespace
}  // namespace ldpr
