// Deterministic arrival schedules for the windowed streaming ingest
// engine (src/stream/streaming_engine.h).
//
// A StreamSpec declares a report stream as data: how many reports
// arrive, how genuine arrivals draw their items (a fixed histogram or
// a zipf distribution whose exponent drifts across the stream), and
// where attacker-crafted reports interleave (no attack, a constant
// fraction, a mid-stream wave, or a ramping fraction).  ArrivalStream
// materializes that stream one report at a time, in arrival order,
// writing straight into SoA ReportBatch builders through the
// protocols' batched generation path.
//
// Determinism contract: the emitted stream is a pure function of
// (protocol, spec, seed).
//
//   * The genuine/attacker interleaving is *quota-based*, not
//     sampled: slot i is an attacker slot iff the scheduled density
//     integral F(k) = sum_{j<k} FractionAt(j) crosses an integer at
//     i.  The mix therefore consumes no randomness, attacker counts
//     track the scheduled density exactly (ramps yield monotone
//     per-window counts), and a naive replay of the floor arithmetic
//     reproduces the schedule bit for bit
//     (tests/streaming_scenario_test.cc).
//   * All randomness — target selection, genuine item draws, the
//     protocols' perturbation draws, MGA crafting — flows through one
//     Rng(seed) consumed serially in arrival order.  Two streams of
//     the same (protocol, spec, seed) are byte-identical however
//     their reports are later windowed, which is what makes the
//     streaming engine's single-window run byte-identical to the
//     batch path (tests/streaming_engine_test.cc).

#ifndef LDPR_STREAM_ARRIVAL_H_
#define LDPR_STREAM_ARRIVAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "attack/mga.h"
#include "ldp/protocol.h"
#include "util/random.h"
#include "util/status.h"

namespace ldpr {

/// Shape of the attacker-fraction schedule over the stream.
enum class WaveShape {
  kNone,      ///< no attacker slots anywhere
  kConstant,  ///< flat `attacker_fraction` across the whole stream
  kWave,      ///< `attacker_fraction` inside [wave_start, wave_end)
  kRamp,      ///< density ramps linearly 0 -> `attacker_fraction`
};

const char* WaveShapeName(WaveShape shape);

/// One streaming trial declared as data.  Validated by
/// ValidateStream before any engine code runs.
struct StreamSpec {
  /// Stream length: total reports (genuine + attacker slots).
  size_t total_reports = 0;
  /// Window size W in reports.
  size_t window_reports = 0;
  /// Window stride S in reports: S == W is a tumbling window, S < W
  /// a sliding window (S must divide W so windows decompose into
  /// panes); 0 means tumbling.
  size_t stride_reports = 0;

  /// Genuine item source, fixed-histogram mode: arriving genuine
  /// users draw their item from this histogram's frequencies (a
  /// Dataset's item_counts).  Used when `zipf_segments` == 0.
  std::vector<uint64_t> item_counts;

  /// Genuine item source, drifting-zipf mode (`zipf_segments` > 0):
  /// the stream splits into `zipf_segments` equal report-index
  /// segments and a genuine arrival in segment k draws from
  /// Zipf(s_k) over `domain_size` items, with s_k interpolating
  /// zipf_s_start -> zipf_s_end.  The rank->item permutation is
  /// derived once from the fixed shuffle seed 17 and shared by every
  /// segment, so drift redistributes mass over fixed item
  /// identities.  Segment boundaries are fixed by the spec —
  /// independent of any window geometry.
  size_t domain_size = 0;
  double zipf_s_start = 1.0;
  double zipf_s_end = 1.0;
  size_t zipf_segments = 0;

  /// Attack schedule: MGA with `num_targets` targets (sampled once
  /// per stream) interleaved per `wave` at peak density
  /// `attacker_fraction`.
  WaveShape wave = WaveShape::kNone;
  double attacker_fraction = 0.0;
  size_t num_targets = 10;
  /// [wave_start, wave_end) report-index range of WaveShape::kWave.
  size_t wave_start = 0;
  size_t wave_end = 0;
};

/// Structural validation: positive stream/window sizes, stride
/// dividing the window, a usable item source, attacker fraction in
/// [0, 1), wave range inside the stream, targets within the domain.
Status ValidateStreamSpec(const StreamSpec& spec);

/// ValidateStreamSpec plus the checks that need the protocol: the
/// spec's domain is the protocol's, and a unary-encoded (OUE/SUE)
/// stream draws at most kMaxStreamUnaryBits perturbed bits
/// (sim/experiment.h).  Every stream enters the library through
/// ArrivalStream, which requires it; drivers that accept user input
/// (`ldpr stream`) surface its InvalidArgument instead.
Status ValidateStream(const FrequencyProtocol& protocol,
                      const StreamSpec& spec);

/// The spec's domain size: item_counts.size() in fixed-histogram
/// mode, `domain_size` in drifting-zipf mode.
size_t StreamDomainSize(const StreamSpec& spec);

/// Scheduled attacker density at report slot i — the pure function
/// the quota interleaving integrates.  Zero for kNone and outside a
/// kWave's range; a * i / total for kRamp.
double AttackerFractionAt(const StreamSpec& spec, size_t i);

/// First report index with positive scheduled attacker density, or
/// total_reports when the schedule never turns on.
size_t AttackOnsetReport(const StreamSpec& spec);

/// Materializes a StreamSpec's reports one arrival at a time.
class ArrivalStream {
 public:
  /// The protocol reference must outlive the stream; the spec must
  /// already validate and its domain must equal the protocol's.
  ArrivalStream(const FrequencyProtocol& protocol, const StreamSpec& spec,
                uint64_t seed);

  size_t total_reports() const { return spec_.total_reports; }
  size_t position() const { return position_; }
  bool done() const { return position_ >= spec_.total_reports; }

  /// Appends the next report in arrival order into `out` (SoA
  /// generation path) and advances.  Returns true iff the slot was an
  /// attacker slot (the report is MGA-crafted).
  bool Next(ReportBatch::Builder& out);

  /// The MGA target set the stream's attacker slots promote (sampled
  /// at construction; also what the server-side DetectionFilter
  /// watches).  Non-empty iff num_targets > 0.
  const std::vector<ItemId>& targets() const { return targets_; }

  /// Per-item tally of the *genuine* items emitted so far — the
  /// ground-truth histogram windows measure their estimates against.
  const std::vector<uint64_t>& genuine_item_tally() const { return tally_; }

  size_t attackers_emitted() const { return attackers_emitted_; }

 private:
  ItemId NextGenuineItem();

  const FrequencyProtocol& protocol_;
  const StreamSpec spec_;
  Rng rng_;
  std::vector<ItemId> targets_;
  std::unique_ptr<MgaAttack> attack_;
  // Fixed-histogram mode: one alias sampler over the histogram.
  std::unique_ptr<AliasSampler> histogram_;
  // Drifting-zipf mode: the sampler of the current segment, rebuilt
  // lazily when the stream crosses a segment boundary, plus the
  // shared rank->item permutation.
  std::unique_ptr<ZipfSampler> zipf_;
  size_t zipf_segment_ = 0;
  std::vector<ItemId> rank_to_item_;
  // Quota interleaving state: the density integral and how many
  // attacker slots it has produced.
  double density_integral_ = 0.0;
  size_t attacker_quota_used_ = 0;
  size_t attackers_emitted_ = 0;
  size_t position_ = 0;
  std::vector<uint64_t> tally_;
};

/// Reference replay: materializes the whole stream into one
/// builder-mode batch and reports which slots were attacker slots
/// (same draws as driving ArrivalStream::Next to exhaustion — this
/// *is* that loop).  The batch-path side of the streaming-vs-batch
/// equivalence tests; also handy for tools.
struct StreamReplay {
  ReportBatch reports;
  std::vector<uint8_t> is_attacker;  // one flag per report
  std::vector<ItemId> targets;
  std::vector<uint64_t> genuine_item_counts;
};
StreamReplay ReplayStream(const FrequencyProtocol& protocol,
                          const StreamSpec& spec, uint64_t seed);

}  // namespace ldpr

#endif  // LDPR_STREAM_ARRIVAL_H_
