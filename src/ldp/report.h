// ItemId, and the AoS form of one user's perturbed report.
//
// Pure LDP protocols differ in their encoded domain (Section III-B of
// the paper): GRR sends an item index, OUE a d-bit vector, OLH a
// (hash seed, bucket) tuple.  Every protocol, attack and defense runs
// on the SoA ReportBatch (ldp/report_batch.h); Report and its few
// adapters (ReportBatch::Append / ExtractReport,
// FrequencyProtocol::Perturb, Attack::Craft, and the
// std::vector<Report> overloads of Aggregator::AddAllSharded,
// RunKMeansDefense and LdpRecoverKm) exist only for the AoS fig9
// replay in perf/src/replay.cc, and go when that caller does.

#ifndef LDPR_LDP_REPORT_H_
#define LDPR_LDP_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ldpr {

/// Identifier of an item in the input domain D = {0, ..., d-1}.
using ItemId = uint32_t;

/// One perturbed (or attacker-crafted) report in the encoded domain.
struct Report {
  /// OLH: the hash-function seed chosen by the user.
  uint64_t seed = 0;
  /// GRR: the reported item.  OLH: the reported bucket in {0,...,g-1}.
  uint32_t value = 0;
  /// OUE: the d perturbed bits, one byte per bit.
  std::vector<uint8_t> bits;
};

}  // namespace ldpr

#endif  // LDPR_LDP_REPORT_H_
