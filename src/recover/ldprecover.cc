#include "recover/ldprecover.h"

#include <algorithm>

#include "recover/malicious_stats.h"
#include "recover/simplex_projection.h"
#include "util/logging.h"

namespace ldpr {

LdpRecover::LdpRecover(const FrequencyProtocol& protocol,
                       RecoverOptions options)
    : protocol_(protocol), options_(std::move(options)) {
  LDPR_CHECK(options_.eta >= 0.0);
  if (options_.known_targets.has_value()) {
    for (ItemId t : *options_.known_targets)
      LDPR_CHECK(t < protocol_.domain_size());
    LDPR_CHECK(!options_.known_targets->empty());
    LDPR_CHECK(options_.known_targets->size() < protocol_.domain_size());
  }
  if (options_.malicious_freqs_override.has_value()) {
    LDPR_CHECK(options_.malicious_freqs_override->size() ==
               protocol_.domain_size());
  }
}

std::vector<double> LdpRecover::EstimateMaliciousUniform(
    const std::vector<double>& poisoned) const {
  const size_t d = protocol_.domain_size();
  LDPR_CHECK(poisoned.size() == d);
  // Non-knowledge split (Algorithm 1 line 2): D0 = {v : f~_Z(v) <= 0}
  // holds items that cannot plausibly have been boosted; D1 = D \ D0
  // holds the potential attack items, whose malicious mass is assumed
  // uniform (Eq. (26)).
  size_t d1_count = 0;
  for (double f : poisoned) {
    if (f > 0.0) ++d1_count;
  }
  std::vector<double> malicious(d, 0.0);
  if (d1_count == 0) return malicious;  // nothing positive: all zero
  const double share = ExpectedMaliciousFrequencySum(protocol_) /
                       static_cast<double>(d1_count);
  for (size_t v = 0; v < d; ++v) {
    if (poisoned[v] > 0.0) malicious[v] = share;
  }
  return malicious;
}

std::vector<double> LdpRecover::EstimateMaliciousWithTargets() const {
  const size_t d = protocol_.domain_size();
  const std::vector<ItemId>& targets = *options_.known_targets;
  std::vector<uint8_t> is_target(d, 0);
  for (ItemId t : targets) is_target[t] = 1;
  size_t target_count = 0;
  for (uint8_t b : is_target) target_count += b;
  const size_t non_target_count = d - target_count;
  LDPR_CHECK(non_target_count > 0);

  // Eq. (30): items outside T carry the (negative) zero-mass
  // sub-domain share; the attacker-selected items split the remaining
  // mass uniformly.
  const double non_target_sum = ZeroMassSubdomainSum(
      protocol_, non_target_count, options_.paper_literal_subdomain_sum);
  const double target_sum =
      ExpectedMaliciousFrequencySum(protocol_) - non_target_sum;
  const double non_target_share =
      non_target_sum / static_cast<double>(non_target_count);
  const double target_share = target_sum / static_cast<double>(target_count);

  std::vector<double> malicious(d);
  for (size_t v = 0; v < d; ++v)
    malicious[v] = is_target[v] ? target_share : non_target_share;
  return malicious;
}

std::vector<double> LdpRecover::EstimateMaliciousFrequencies(
    const std::vector<double>& poisoned) const {
  LDPR_CHECK(poisoned.size() == protocol_.domain_size());
  if (options_.ablate_no_subtraction)
    return std::vector<double>(protocol_.domain_size(), 0.0);
  if (options_.malicious_freqs_override.has_value())
    return *options_.malicious_freqs_override;
  if (options_.known_targets.has_value())
    return EstimateMaliciousWithTargets();
  return EstimateMaliciousUniform(poisoned);
}

std::vector<double> LdpRecover::EstimateGenuineFrequencies(
    const std::vector<double>& poisoned) const {
  // Eq. (19), f~_X = (1 + eta) f~_Z - eta f~_Y, with the learnt
  // malicious frequencies substituted for f~_Y: Eq. (27) / (31).
  const std::vector<double> malicious = EstimateMaliciousFrequencies(poisoned);
  const double eta = options_.eta;
  std::vector<double> genuine(poisoned.size());
  for (size_t v = 0; v < poisoned.size(); ++v)
    genuine[v] = (1.0 + eta) * poisoned[v] - eta * malicious[v];
  return genuine;
}

std::vector<double> LdpRecover::Recover(
    const std::vector<double>& poisoned) const {
  std::vector<double> genuine = EstimateGenuineFrequencies(poisoned);
  if (options_.ablate_no_refinement) return genuine;
  return ProjectToSimplexKkt(genuine);
}

}  // namespace ldpr
