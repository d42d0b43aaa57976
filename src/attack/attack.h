// Attack: the interface of poisoning attacks against LDP frequency
// estimation (threat model of Section IV-A).
//
// An attacker controls m malicious users and crafts the data they
// send.  In the *general* poisoning attack the crafted data lives in
// the encoded domain and bypasses the perturbation algorithm; the
// input poisoning attack (attack/ipa.h) instead samples input items
// and perturbs them honestly.  Either way, an attack is a recipe for
// producing m reports given the protocol in use.

#ifndef LDPR_ATTACK_ATTACK_H_
#define LDPR_ATTACK_ATTACK_H_

#include <cstddef>
#include <vector>

#include "ldp/protocol.h"
#include "util/random.h"

namespace ldpr {

class Attack {
 public:
  virtual ~Attack() = default;

  /// Crafts the reports of `m` malicious users against `protocol`
  /// straight into a builder-mode ReportBatch (SoA seeds/values/packed
  /// bit rows).  tests/report_gen_batch_test.cc checks every attack's
  /// reports and Rng draws against the per-report oracle in
  /// tests/report_oracle.h.
  virtual void CraftBatch(const FrequencyProtocol& protocol, size_t m,
                          Rng& rng, ReportBatch::Builder& out) const = 0;

  /// CraftBatch, unpacked into materialized Reports.  An adapter for
  /// the AoS fig9 replay in perf/src/replay.cc; delete with it.
  std::vector<Report> Craft(const FrequencyProtocol& protocol, size_t m,
                            Rng& rng) const;

  /// Target items of a targeted attack; empty for untargeted attacks.
  virtual std::vector<ItemId> targets() const { return {}; }
};

}  // namespace ldpr

#endif  // LDPR_ATTACK_ATTACK_H_
