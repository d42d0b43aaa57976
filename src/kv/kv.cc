#include "kv/kv.h"

#include <algorithm>
#include <cmath>

#include "recover/ldprecover.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace ldpr {

KvProtocol::KvProtocol(size_t d, double eps_key, double eps_value)
    : d_(d), key_grr_(d, eps_key) {
  LDPR_CHECK(eps_value > 0.0);
  value_p_ = std::exp(eps_value) / (std::exp(eps_value) + 1.0);
}

KvReport KvProtocol::Perturb(const KvPair& pair, Rng& rng) const {
  LDPR_CHECK(pair.key < d_);
  LDPR_CHECK(pair.value >= -1.0 && pair.value <= 1.0);
  KvReport out;
  ReportBatch key_report;
  ReportBatch::Builder builder(key_report);
  key_grr_.AppendGenuineReports(pair.key, 1, rng, builder);
  out.key = key_report.values()[0];
  if (out.key == pair.key) {
    // True key survived: discretize the value and perturb its sign.
    const bool plus = rng.Bernoulli((1.0 + pair.value) / 2.0);
    const bool keep = rng.Bernoulli(value_p_);
    out.plus_bit = (plus == keep) ? 1 : 0;
  } else {
    // Key flipped: attach PrivKV's uniform fake value bit.
    out.plus_bit = rng.Bernoulli(0.5) ? 1 : 0;
  }
  return out;
}

KvReport KvProtocol::CraftReport(ItemId key) const {
  LDPR_CHECK(key < d_);
  KvReport out;
  out.key = key;
  out.plus_bit = 1;  // worst-case promotion: always +1
  return out;
}

KvAggregator::KvAggregator(const KvProtocol& protocol)
    : protocol_(protocol),
      key_counts_(protocol.domain_size(), 0.0),
      plus_counts_(protocol.domain_size(), 0.0) {}

void KvAggregator::Add(const KvReport& report) {
  LDPR_CHECK(report.key < key_counts_.size());
  key_counts_[report.key] += 1.0;
  if (report.plus_bit) plus_counts_[report.key] += 1.0;
  ++n_;
}

void KvAggregator::AddAll(const std::vector<KvReport>& reports) {
  for (const KvReport& r : reports) Add(r);
}

namespace {

// Debiases per-key means from (key count, plus count) tallies.
//
// Reports carrying key k mix T_k true-key holders (plus probability
// (1 + mu_k b)/2 with b = 2 p_value - 1) and flipped-in users (plus
// probability exactly 1/2), so E[2 plus_k - C_k] = T_k mu_k b with
// T_k = n f_k p.  Frequencies may come from the raw estimate or from
// recovery.
std::vector<double> DebiasMeans(const KvProtocol& protocol,
                                const std::vector<double>& key_counts,
                                const std::vector<double>& plus_counts,
                                const std::vector<double>& frequencies,
                                double effective_n) {
  const size_t d = protocol.domain_size();
  const double p = protocol.key_protocol().p();
  const double b = 2.0 * protocol.value_keep_probability() - 1.0;
  LDPR_CHECK(b > 0.0);
  std::vector<double> means(d, 0.0);
  for (size_t k = 0; k < d; ++k) {
    const double true_count = effective_n * frequencies[k] * p;
    if (true_count < 1.0) continue;  // no support: report 0
    const double raw = (2.0 * plus_counts[k] - key_counts[k]) /
                       (true_count * b);
    means[k] = Clamp(raw, -1.0, 1.0);
  }
  return means;
}

}  // namespace

KvEstimate KvAggregator::Estimate() const {
  LDPR_CHECK(n_ > 0);
  KvEstimate out;
  out.frequencies =
      protocol_.key_protocol().EstimateFrequencies(key_counts_, n_);
  out.means = DebiasMeans(protocol_, key_counts_, plus_counts_,
                          out.frequencies, static_cast<double>(n_));
  return out;
}

KvEstimate KvRecover(const KvProtocol& protocol, const KvAggregator& poisoned,
                     const KvRecoverOptions& options) {
  LDPR_CHECK(poisoned.report_count() > 0);
  const Grr& grr = protocol.key_protocol();
  const double total = static_cast<double>(poisoned.report_count());
  // The server assumes at most eta*n malicious users: N = n + m with
  // m = eta * n gives the implied genuine population.
  const double n_genuine = total / (1.0 + options.eta);
  const double m_malicious = total - n_genuine;

  // Key channel: LDPRecover exactly as in the paper.
  const std::vector<double> poisoned_freqs = grr.EstimateFrequencies(
      poisoned.key_counts(), poisoned.report_count());
  RecoverOptions ropts;
  ropts.eta = options.eta;
  ropts.known_targets = options.known_targets;
  const LdpRecover recover(grr, ropts);
  KvEstimate out;
  out.frequencies = recover.Recover(poisoned_freqs);

  // Value channel: translate the learnt malicious frequencies back
  // into implied raw malicious report counts per key,
  //   c_mal(k) = m * (f~_Y(k) (p - q) + q),
  // and deduct them from both tallies under the worst-case assumption
  // that crafted values are +1.
  const std::vector<double> malicious_freqs =
      recover.EstimateMaliciousFrequencies(poisoned_freqs);
  const double p = grr.p();
  const double q = grr.q();
  const size_t d = protocol.domain_size();
  std::vector<double> corrected_keys(d), corrected_plus(d);
  for (size_t k = 0; k < d; ++k) {
    double c_mal = m_malicious * (malicious_freqs[k] * (p - q) + q);
    c_mal = Clamp(c_mal, 0.0, poisoned.key_counts()[k]);
    corrected_keys[k] = poisoned.key_counts()[k] - c_mal;
    corrected_plus[k] =
        Clamp(poisoned.plus_counts()[k] - c_mal, 0.0, corrected_keys[k]);
  }
  out.means = DebiasMeans(protocol, corrected_keys, corrected_plus,
                          out.frequencies, n_genuine);
  return out;
}

}  // namespace ldpr
