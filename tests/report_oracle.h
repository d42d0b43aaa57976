// Test-only per-report oracle for the batch layer.
//
// Production code implements perturbation, support counting and
// crafting once per protocol and attack, over ReportBatch.  The
// functions in namespace `oracle` are the straight-line per-report
// reference those batch kernels are checked against, report for
// report and Rng draw for Rng draw (tests/report_gen_batch_test.cc,
// tests/aggregation_batch_test.cc).  They share no code with the
// kernels: hashing goes through the generic SeededHash, not the split
// xxHash + FastMod tile path.
//
// The helpers outside `oracle` run the *production* batch paths and
// unpack the result as AoS Reports, so tests can inspect individual
// reports.

#ifndef LDPR_TESTS_REPORT_ORACLE_H_
#define LDPR_TESTS_REPORT_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/attack.h"
#include "attack/mga.h"
#include "attack/multi_attacker.h"
#include "ldp/olh.h"
#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "ldp/unary.h"
#include "util/logging.h"
#include "util/random.h"

namespace ldpr {
namespace oracle {

inline bool IsUnary(const FrequencyProtocol& proto) {
  return proto.kind() == ProtocolKind::kOue ||
         proto.kind() == ProtocolKind::kSue;
}

inline bool IsHashed(const FrequencyProtocol& proto) {
  return proto.kind() == ProtocolKind::kOlh ||
         proto.kind() == ProtocolKind::kBlh;
}

// Psi: one genuine user's perturbed report.
inline Report Perturb(const FrequencyProtocol& proto, ItemId item, Rng& rng) {
  const size_t d = proto.domain_size();
  LDPR_CHECK(item < d);
  Report r;
  if (IsUnary(proto)) {
    r.bits.assign(d, 0);
    for (size_t i = 0; i < d; ++i) {
      const double keep_prob = (i == item) ? proto.p() : proto.q();
      r.bits[i] = rng.Bernoulli(keep_prob) ? 1 : 0;
    }
    return r;
  }
  // GRR over the whole domain, or over the g hash buckets.
  uint64_t range = d;
  uint32_t truth = item;
  if (IsHashed(proto)) {
    const auto& olh = static_cast<const OlhBase&>(proto);
    r.seed = rng.Next();
    range = olh.g();
    truth = olh.Hash(r.seed, item);
  }
  if (rng.Bernoulli(proto.p())) {
    r.value = truth;
  } else {
    uint64_t draw = rng.UniformU64(range - 1);
    if (draw >= truth) ++draw;
    r.value = static_cast<uint32_t>(draw);
  }
  return r;
}

// The support predicate of Eq. (13): true iff `item` is in S(report).
inline bool Supports(const FrequencyProtocol& proto, const Report& report,
                     ItemId item) {
  LDPR_CHECK(item < proto.domain_size());
  if (IsUnary(proto)) {
    LDPR_CHECK(report.bits.size() == proto.domain_size());
    return report.bits[item] != 0;
  }
  if (IsHashed(proto)) {
    return static_cast<const OlhBase&>(proto).Hash(report.seed, item) ==
           report.value;
  }
  return report.value == item;
}

// Support counts of `reports`, one Supports() call per (report, item).
inline std::vector<double> SupportCounts(const FrequencyProtocol& proto,
                                         const std::vector<Report>& reports) {
  std::vector<double> counts(proto.domain_size(), 0.0);
  for (const Report& r : reports) {
    for (ItemId v = 0; v < proto.domain_size(); ++v) {
      if (Supports(proto, r, v)) counts[v] += 1.0;
    }
  }
  return counts;
}

// A crafted encoded-domain report that deterministically supports
// `item`.
inline Report CraftSupportingReport(const FrequencyProtocol& proto,
                                    ItemId item, Rng& rng) {
  LDPR_CHECK(item < proto.domain_size());
  Report r;
  if (IsUnary(proto)) {
    r.bits.assign(proto.domain_size(), 0);
    r.bits[item] = 1;
  } else if (IsHashed(proto)) {
    r.seed = rng.Next();
    r.value = static_cast<const OlhBase&>(proto).Hash(r.seed, item);
  } else {
    r.value = item;
  }
  return r;
}

// MGA against a unary protocol: every target bit, then random padding
// bits up to the genuine 1-count.
inline Report CraftMgaOue(const UnaryEncoding& oue,
                          const std::vector<ItemId>& targets, Rng& rng) {
  const size_t d = oue.domain_size();
  Report r;
  r.bits.assign(d, 0);
  size_t ones = 0;
  for (ItemId t : targets) {
    LDPR_CHECK(t < d);
    if (!r.bits[t]) {
      r.bits[t] = 1;
      ++ones;
    }
  }
  const size_t expected =
      static_cast<size_t>(std::llround(oue.ExpectedOnes()));
  size_t guard = 0;
  while (ones < expected && guard < 16 * d) {
    const ItemId v = static_cast<ItemId>(rng.UniformU64(d));
    ++guard;
    if (!r.bits[v]) {
      r.bits[v] = 1;
      ++ones;
    }
  }
  return r;
}

// MGA against a local-hashing protocol: the best of kMgaOlhSeedTries
// random seeds, reporting its fullest target bucket.  `tries`, when
// given, receives the number of seeds drawn.
inline Report CraftMgaOlh(const OlhBase& olh,
                          const std::vector<ItemId>& targets, Rng& rng,
                          size_t* tries = nullptr) {
  Report best;
  size_t best_hits = 0;
  std::vector<uint32_t> bucket_hits(olh.g());
  for (size_t attempt = 0; attempt < kMgaOlhSeedTries; ++attempt) {
    if (tries != nullptr) *tries = attempt + 1;
    const uint64_t seed = rng.Next();
    std::fill(bucket_hits.begin(), bucket_hits.end(), 0u);
    for (ItemId t : targets) ++bucket_hits[olh.Hash(seed, t)];
    const auto it = std::max_element(bucket_hits.begin(), bucket_hits.end());
    const size_t hits = *it;
    if (hits > best_hits) {
      best_hits = hits;
      best.seed = seed;
      best.value = static_cast<uint32_t>(it - bucket_hits.begin());
      if (best_hits == targets.size()) break;  // cannot do better
    }
  }
  LDPR_CHECK(best_hits >= 1);
  return best;
}

inline std::vector<Report> CraftMga(const FrequencyProtocol& proto,
                                    const std::vector<ItemId>& targets,
                                    size_t m, Rng& rng) {
  std::vector<Report> reports;
  for (size_t i = 0; i < m; ++i) {
    if (IsUnary(proto)) {
      reports.push_back(CraftMgaOue(static_cast<const UnaryEncoding&>(proto),
                                    targets, rng));
    } else if (IsHashed(proto)) {
      reports.push_back(
          CraftMgaOlh(static_cast<const OlhBase&>(proto), targets, rng));
    } else {
      const ItemId t = targets[rng.UniformU64(targets.size())];
      reports.push_back(CraftSupportingReport(proto, t, rng));
    }
  }
  return reports;
}

// Input poisoning: an input item per user from `distribution`, then
// honest perturbation.
inline std::vector<Report> CraftIpa(const FrequencyProtocol& proto,
                                    const std::vector<double>& distribution,
                                    size_t m, Rng& rng) {
  const AliasSampler sampler(distribution);
  std::vector<Report> reports;
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = static_cast<ItemId>(sampler.Sample(rng));
    reports.push_back(Perturb(proto, v, rng));
  }
  return reports;
}

// Manip: a random sub-domain H of round(d / 2) items, then one
// crafted report per user for a uniform item of H.
inline std::vector<Report> CraftManip(const FrequencyProtocol& proto,
                                      size_t m, Rng& rng) {
  const size_t d = proto.domain_size();
  const size_t h =
      static_cast<size_t>(std::llround(0.5 * static_cast<double>(d)));
  const std::vector<uint32_t> sub_domain = SampleWithoutReplacement(d, h, rng);
  std::vector<Report> reports;
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = sub_domain[rng.UniformU64(sub_domain.size())];
    reports.push_back(CraftSupportingReport(proto, v, rng));
  }
  return reports;
}

// AA: P drawn flat-Dirichlet, then one crafted report per user for
// an item drawn from P.
inline std::vector<Report> CraftAdaptive(const FrequencyProtocol& proto,
                                         size_t m, Rng& rng) {
  const AliasSampler sampler(
      SampleRandomDistribution(proto.domain_size(), rng));
  std::vector<Report> reports;
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = static_cast<ItemId>(sampler.Sample(rng));
    reports.push_back(CraftSupportingReport(proto, v, rng));
  }
  return reports;
}

// MUL-AA: a multinomial split of the m users over the
// kMultiAdaptiveAttackers AA attackers, each crafting its share in
// turn.
inline std::vector<Report> CraftMultiAdaptive(const FrequencyProtocol& proto,
                                              size_t m, Rng& rng) {
  const std::vector<uint64_t> shares = SampleMultinomial(
      m, std::vector<double>(kMultiAdaptiveAttackers, 1.0), rng);
  std::vector<Report> reports;
  for (uint64_t share : shares) {
    for (Report& r : CraftAdaptive(proto, share, rng))
      reports.push_back(std::move(r));
  }
  return reports;
}

// Detection: the reports that support fewer than `threshold` of
// `targets` (the survivors the filter keeps).
inline std::vector<Report> DetectionSurvivors(
    const FrequencyProtocol& proto, const std::vector<ItemId>& targets,
    size_t threshold, const std::vector<Report>& reports) {
  std::vector<Report> survivors;
  for (const Report& r : reports) {
    size_t supported = 0;
    for (ItemId t : targets) supported += Supports(proto, r, t) ? 1 : 0;
    if (supported < threshold) survivors.push_back(r);
  }
  return survivors;
}

}  // namespace oracle

// A builder-mode batch holding `reports`, in order.
inline ReportBatch PackReports(const std::vector<Report>& reports) {
  ReportBatch batch;
  ReportBatch::Builder out(batch);
  for (const Report& r : reports) {
    if (r.bits.empty()) {
      out.AddSeedValue(r.seed, r.value);
      continue;
    }
    out.SetBitsWidth(r.bits.size());
    std::copy(r.bits.begin(), r.bits.end(), out.AddBitsRow());
  }
  return batch;
}

// The reports of `batch` as AoS Reports, in order.
inline std::vector<Report> UnpackReports(const ReportBatch& batch) {
  std::vector<Report> reports(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    reports[i].seed = batch.seeds()[i];
    reports[i].value = batch.values()[i];
    if (batch.bits_width() > 0) {
      reports[i].bits.assign(batch.bits_row(i),
                             batch.bits_row(i) + batch.bits_width());
    }
  }
  return reports;
}

// `count` reports from the production AppendGenuineReports.
inline std::vector<Report> GenuineReports(const FrequencyProtocol& proto,
                                          ItemId item, uint64_t count,
                                          Rng& rng) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  proto.AppendGenuineReports(item, count, rng, builder);
  return UnpackReports(batch);
}

inline Report GenuineReport(const FrequencyProtocol& proto, ItemId item,
                            Rng& rng) {
  return GenuineReports(proto, item, 1, rng).front();
}

// One report from the production AppendCraftedReport.
inline Report CraftedReport(const FrequencyProtocol& proto, ItemId item,
                            Rng& rng) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  proto.AppendCraftedReport(item, rng, builder);
  return UnpackReports(batch).front();
}

// The production CraftBatch, unpacked.
inline std::vector<Report> CraftReports(const Attack& attack,
                                        const FrequencyProtocol& proto,
                                        size_t m, Rng& rng) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  attack.CraftBatch(proto, m, rng, builder);
  return UnpackReports(batch);
}

// Support counts of `reports` through the production batch kernel.
inline std::vector<double> BatchSupportCounts(
    const FrequencyProtocol& proto, const std::vector<Report>& reports) {
  std::vector<double> counts(proto.domain_size(), 0.0);
  proto.AccumulateSupportsBatch(PackReports(reports), counts);
  return counts;
}

}  // namespace ldpr

#endif  // LDPR_TESTS_REPORT_ORACLE_H_
