// End-to-end poisoning simulation pipeline (the framework of Figure 2
// in the paper): genuine users perturb their items with the LDP
// protocol, the attacker crafts malicious reports, and the server
// aggregates genuine, malicious, and combined (poisoned) frequency
// estimates.  One call = one trial.

#ifndef LDPR_SIM_PIPELINE_H_
#define LDPR_SIM_PIPELINE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "data/dataset.h"
#include "ldp/protocol.h"
#include "recover/detection.h"
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
  /// sampling, per-user exact simulation, MGA's OLH/BLH seed search):
  /// 0 = auto, 1 = serial.  The trial output is byte-identical at
  /// every value — the population splits into fixed-size chunks whose
  /// RNG streams are derived from the trial seed, partial counts merge
  /// in chunk order, and the seed search hashes fixed positions of the
  /// trial RNG — so this knob only decides how many cores one trial
  /// may use.  RunExperiments sets it to the whole thread budget (see
  /// experiment.h).
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
  /// Support counts of the crafted reports alone (zero if m = 0).
  std::vector<double> malicious_counts;
  /// What Detection needs of the crafted reports, kept while they
  /// stream past in chunks (CraftChunkReports) and read by
  /// OfferMaliciousReports; filled only by a trial run for Detection.
  /// A targeted attack's reports were offered to this filter on
  /// attack_targets as they were crafted.
  std::optional<DetectionFilter> malicious_filter;
  /// An untargeted attack's reports on OLH/BLH, each a 12-byte (seed,
  /// value) pair, in a trial run for Detection: the items Detection
  /// tests are known only after aggregation.  Empty for every other
  /// trial: an untargeted report on GRR/OUE/SUE supports only its
  /// item, so malicious_counts is all Detection needs of it.
  ReportBatch malicious_reports;
  size_t n = 0;  ///< genuine users
  size_t m = 0;  ///< malicious users
};

/// Report bytes of one chunk of a trial's crafted reports: a trial
/// aggregates (and, for Detection, filters) each chunk and drops it,
/// so it never holds all m reports at once.
inline constexpr size_t kCraftChunkBytes = size_t{64} << 10;

/// The fewest reports in such a chunk, whatever their size.  Each
/// chunk's aggregation and Detection filter pay O(d) set-up besides
/// their O(d) per unary report, so one-report chunks of wide OUE rows
/// would multiply a trial's CPU: on a 4-core x86-64 machine, `ldpr run
/// --protocol=OUE --attack=MGA --dataset=zipf --n=100000 --d=100000
/// --trials=1 --threads=1` took 6.2-9.4 s with one-report chunks and
/// 1.3-1.6 s with this floor (6.4 MB chunks).
inline constexpr size_t kMinCraftChunkReports = 64;

/// Bytes one report of `kind` over a d-item domain takes in a
/// ReportBatch: its seed and value, and a d-byte row for OUE/SUE.
size_t ProtocolReportBytes(ProtocolKind kind, size_t d);

/// Reports per chunk of a trial's crafted reports: kCraftChunkBytes
/// of them, at least kMinCraftChunkReports and at most
/// kReportsPerAggregationShard.
size_t CraftChunkReports(const FrequencyProtocol& protocol);

/// Number of malicious users implied by beta and n:
/// m = beta * n / (1 - beta), rounded.
size_t MaliciousUserCount(double beta, uint64_t n);

/// Instantiates the configured attack (fresh per trial so that MGA
/// resamples targets and AA resamples its distribution).  MGA's
/// OLH/BLH seed search runs on `config.shards` workers.
std::unique_ptr<Attack> MakeAttack(const PipelineConfig& config, size_t d,
                                   Rng& rng);

/// The malicious side of a trial as the shard planner
/// (shard/shard_task.h) runs it, with the trial RNG draws of
/// RunPoisoningTrial: instantiates `config`'s attack on `rng`
/// (MakeAttack), crafts all `m` reports into `reports` with one
/// CraftBatch call, and returns the attack's declared targets.
/// Requires m > 0 and an attack other than kNone.
std::vector<ItemId> CraftMaliciousReports(const FrequencyProtocol& protocol,
                                          const PipelineConfig& config,
                                          size_t m, Rng& rng,
                                          ReportBatch& reports);

/// Runs one poisoning trial of `config` for `protocol` on `dataset`.
/// The crafted reports stream through one chunk of CraftChunkReports
/// reports: one CraftBatch call appends them, and each full chunk is
/// aggregated and dropped, which draws nothing from `rng`.  With
/// `for_detection`, each chunk is also summarised for Detection
/// (TrialOutput::malicious_filter / malicious_reports).
TrialOutput RunPoisoningTrial(const FrequencyProtocol& protocol,
                              const PipelineConfig& config,
                              const Dataset& dataset, Rng& rng,
                              bool for_detection = false);

/// Offers the crafted reports of `trial`, run for Detection, to
/// `filter` (built on attack_targets for a targeted attack): the same
/// offered(), kept() and Estimate() as DetectionFilter::OfferAll on
/// all m reports.
void OfferMaliciousReports(const TrialOutput& trial, DetectionFilter& filter);

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
