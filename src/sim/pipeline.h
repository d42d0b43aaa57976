// End-to-end poisoning simulation pipeline (the framework of Figure 2
// in the paper): genuine users perturb their items with the LDP
// protocol, the attacker crafts malicious reports, and the server
// aggregates genuine, malicious, and combined (poisoned) frequency
// estimates.  One call = one trial.

#ifndef LDPR_SIM_PIPELINE_H_
#define LDPR_SIM_PIPELINE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "data/dataset.h"
#include "ldp/protocol.h"
#include "util/random.h"
#include "util/status.h"

namespace ldpr {

/// Attacks the pipeline knows how to instantiate per trial.
enum class AttackKind {
  kNone,           // beta = 0 control (Table I)
  kManip,          // untargeted manipulation attack
  kMga,            // maximal gain attack (targets resampled per trial)
  kAdaptive,       // the paper's adaptive attack (random P per trial)
  kMgaIpa,         // MGA under input poisoning (Figure 8/9)
  kMultiAdaptive,  // several adaptive attackers (Figure 10)
};

const char* AttackKindName(AttackKind kind);

/// Inverse of AttackKindName, plus the lowercase aliases the CLI has
/// always accepted ("mga", "aa", ...).  The one parser shared by the
/// subcommand CLI (src/cli/) and the shard wire format (src/shard/).
StatusOr<AttackKind> ParseAttackKind(const std::string& name);

struct PipelineConfig {
  AttackKind attack = AttackKind::kAdaptive;
  /// Fraction of malicious users beta = m / (n + m).
  double beta = 0.05;
  /// Number of target items r (MGA variants).
  size_t num_targets = 10;
  /// Simulate every genuine user individually instead of sampling the
  /// aggregate from its closed-form law (slow; used by equivalence
  /// tests).
  bool exact_genuine = false;
  /// Pool workers for the *within-trial* fan-out (genuine support
  /// sampling, per-user exact simulation, MGA's OLH/BLH seed search,
  /// malicious report accumulation): 0 = auto, 1 = serial.  The trial
  /// output is byte-identical at every value — the population splits
  /// into fixed-size chunks whose RNG streams are derived from the
  /// trial seed, partial counts merge in chunk order, and the seed
  /// search hashes fixed positions of the trial RNG — so this knob
  /// only decides how many cores one trial may use.  RunExperiments
  /// sets it to the whole thread budget (see experiment.h).
  size_t shards = 1;
};

/// Everything one trial produces.  All frequency vectors have length
/// d.
struct TrialOutput {
  /// Exact item frequencies f_X of the genuine data.
  std::vector<double> true_freqs;
  /// LDP estimate from genuine users only, f~_X.
  std::vector<double> genuine_freqs;
  /// LDP estimate from the combined report set, f~_Z.
  std::vector<double> poisoned_freqs;
  /// LDP estimate from malicious reports only, f~_Y (empty if m = 0).
  std::vector<double> malicious_freqs;
  /// The attack's declared targets (empty for untargeted/none).
  std::vector<ItemId> attack_targets;
  /// The crafted malicious reports (for Detection / k-means), in SoA
  /// builder-mode batch form — no per-user Report is materialized
  /// anywhere on the malicious path.
  ReportBatch malicious_reports;
  size_t n = 0;  ///< genuine users
  size_t m = 0;  ///< malicious users
};

/// Number of malicious users implied by beta and n:
/// m = beta * n / (1 - beta), rounded.
size_t MaliciousUserCount(double beta, uint64_t n);

/// Instantiates the configured attack (fresh per trial so that MGA
/// resamples targets and AA resamples its distribution).  MGA's
/// OLH/BLH seed search runs on `config.shards` workers.
std::unique_ptr<Attack> MakeAttack(const PipelineConfig& config, size_t d,
                                   Rng& rng);

/// The malicious side of one trial, shared by RunPoisoningTrial and
/// the shard planner (shard/shard_task.h) so both consume the trial
/// RNG identically: instantiates `config`'s attack on `rng` (MakeAttack),
/// reserves all `m` reports in `reports` at once, crafts them with
/// CraftBatch, and returns the attack's declared targets.  Requires
/// m > 0 and an attack other than kNone.
std::vector<ItemId> CraftMaliciousReports(const FrequencyProtocol& protocol,
                                          const PipelineConfig& config,
                                          size_t m, Rng& rng,
                                          ReportBatch& reports);

/// Runs one poisoning trial of `config` for `protocol` on `dataset`.
TrialOutput RunPoisoningTrial(const FrequencyProtocol& protocol,
                              const PipelineConfig& config,
                              const Dataset& dataset, Rng& rng);

/// Sharded per-user exact aggregation: canonical user chunk c
/// perturbs on Rng(DeriveSeed(seed, c)) and partial support counts
/// merge in chunk order across `shards` pool workers (0 = auto).
/// Byte-identical at every shard count; this is what lets a single
/// million-user trial use the whole machine.
std::vector<double> ExactGenuineSupportCountsSharded(
    const FrequencyProtocol& protocol, const std::vector<uint64_t>& item_counts,
    uint64_t seed, size_t shards);

}  // namespace ldpr

#endif  // LDPR_SIM_PIPELINE_H_
