#include "stream/arrival.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "sim/experiment.h"
#include "util/logging.h"

namespace ldpr {

const char* WaveShapeName(WaveShape shape) {
  switch (shape) {
    case WaveShape::kNone:
      return "none";
    case WaveShape::kConstant:
      return "constant";
    case WaveShape::kWave:
      return "wave";
    case WaveShape::kRamp:
      return "ramp";
  }
  return "unknown";
}

size_t StreamDomainSize(const StreamSpec& spec) {
  return spec.zipf_segments > 0 ? spec.domain_size : spec.item_counts.size();
}

Status ValidateStreamSpec(const StreamSpec& spec) {
  if (spec.total_reports == 0) {
    return InvalidArgumentError("stream needs at least one report");
  }
  if (spec.window_reports == 0) {
    return InvalidArgumentError("window_reports must be >= 1");
  }
  const size_t stride =
      spec.stride_reports == 0 ? spec.window_reports : spec.stride_reports;
  if (stride > spec.window_reports) {
    return InvalidArgumentError("stride_reports must not exceed the window");
  }
  if (spec.window_reports % stride != 0) {
    return InvalidArgumentError(
        "stride_reports must divide window_reports (pane decomposition)");
  }
  if (spec.zipf_segments > 0) {
    if (!spec.item_counts.empty()) {
      return InvalidArgumentError(
          "drifting-zipf mode and item_counts are mutually exclusive");
    }
    if (spec.domain_size < 2) {
      return InvalidArgumentError(
          "drifting-zipf mode needs domain_size >= 2");
    }
    if (!(spec.zipf_s_start > 0.0) || !(spec.zipf_s_end > 0.0)) {
      return InvalidArgumentError("zipf exponents must be > 0");
    }
  } else {
    if (spec.item_counts.size() < 2) {
      return InvalidArgumentError(
          "fixed-histogram mode needs item_counts over a domain of >= 2");
    }
    const uint64_t mass = std::accumulate(spec.item_counts.begin(),
                                          spec.item_counts.end(), uint64_t{0});
    if (mass == 0) {
      return InvalidArgumentError("item_counts must have positive total mass");
    }
  }
  if (!(spec.attacker_fraction >= 0.0 && spec.attacker_fraction < 1.0)) {
    return InvalidArgumentError("attacker_fraction must be in [0, 1)");
  }
  if (spec.wave == WaveShape::kWave) {
    if (spec.wave_start > spec.wave_end ||
        spec.wave_end > spec.total_reports) {
      return InvalidArgumentError(
          "wave range must satisfy wave_start <= wave_end <= total_reports");
    }
  }
  const bool attacks = spec.wave != WaveShape::kNone &&
                       spec.attacker_fraction > 0.0;
  if (attacks && spec.num_targets == 0) {
    return InvalidArgumentError("an attack schedule needs num_targets >= 1");
  }
  if (spec.num_targets > StreamDomainSize(spec)) {
    return InvalidArgumentError("num_targets must not exceed the domain");
  }
  return Status::Ok();
}

Status ValidateStream(const FrequencyProtocol& protocol,
                      const StreamSpec& spec) {
  if (Status status = ValidateStreamSpec(spec); !status.ok()) return status;
  const size_t d = protocol.domain_size();
  if (StreamDomainSize(spec) != d) {
    return InvalidArgumentError(
        "the stream's domain size must match the protocol's");
  }
  if (protocol.kind() == ProtocolKind::kOue ||
      protocol.kind() == ProtocolKind::kSue) {
    const double bits =
        static_cast<double>(spec.total_reports) * static_cast<double>(d);
    if (bits > kMaxStreamUnaryBits) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    "the stream's %zu reports of %zu bits would draw %.3g "
                    "bits, past the %.3g-bit cap: lower n or d",
                    spec.total_reports, d, bits, kMaxStreamUnaryBits);
      return InvalidArgumentError(message);
    }
  }
  return Status::Ok();
}

double AttackerFractionAt(const StreamSpec& spec, size_t i) {
  switch (spec.wave) {
    case WaveShape::kNone:
      return 0.0;
    case WaveShape::kConstant:
      return spec.attacker_fraction;
    case WaveShape::kWave:
      return (i >= spec.wave_start && i < spec.wave_end)
                 ? spec.attacker_fraction
                 : 0.0;
    case WaveShape::kRamp:
      return spec.attacker_fraction * static_cast<double>(i) /
             static_cast<double>(spec.total_reports);
  }
  return 0.0;
}

size_t AttackOnsetReport(const StreamSpec& spec) {
  if (spec.attacker_fraction <= 0.0) return spec.total_reports;
  switch (spec.wave) {
    case WaveShape::kNone:
      return spec.total_reports;
    case WaveShape::kConstant:
      return 0;
    case WaveShape::kWave:
      return spec.wave_start < spec.wave_end ? spec.wave_start
                                             : spec.total_reports;
    case WaveShape::kRamp:
      // Density a*i/total is zero at slot 0 and positive from slot 1.
      return spec.total_reports > 1 ? 1 : spec.total_reports;
  }
  return spec.total_reports;
}

namespace {

// The shared rank->item permutation of drifting-zipf mode: a full
// Fisher-Yates shuffle on its own Rng, mirroring the synthetic
// dataset generators (data/synthetic.cc) so "which items are popular"
// is a fixed property of the stream, independent of the arrival seed.
constexpr uint64_t kRankShuffleSeed = 17;

std::vector<ItemId> MakeRankPermutation(size_t d) {
  std::vector<ItemId> perm(d);
  for (size_t i = 0; i < d; ++i) perm[i] = static_cast<ItemId>(i);
  Rng rng(kRankShuffleSeed);
  for (size_t i = d - 1; i > 0; --i) {
    const size_t j = rng.UniformU64(i + 1);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

double ZipfExponentForSegment(const StreamSpec& spec, size_t segment) {
  if (spec.zipf_segments <= 1) return spec.zipf_s_start;
  const double t = static_cast<double>(segment) /
                   static_cast<double>(spec.zipf_segments - 1);
  return spec.zipf_s_start + (spec.zipf_s_end - spec.zipf_s_start) * t;
}

}  // namespace

ArrivalStream::ArrivalStream(const FrequencyProtocol& protocol,
                             const StreamSpec& spec, uint64_t seed)
    : protocol_(protocol), spec_(spec), rng_(seed) {
  LDPR_CHECK_OK(ValidateStream(protocol_, spec_));

  // Targets are sampled unconditionally (when requested) so that the
  // genuine item/perturbation draws that follow are identical across
  // clean and attacked cells of one scenario: the clean cell consumes
  // the same target draws and then never crafts.
  if (spec_.num_targets > 0) {
    targets_ = MgaAttack::SampleTargets(protocol_.domain_size(),
                                        spec_.num_targets, rng_);
    attack_ = std::make_unique<MgaAttack>(targets_);
  }

  if (spec_.zipf_segments > 0) {
    rank_to_item_ = MakeRankPermutation(spec_.domain_size);
    zipf_ = std::make_unique<ZipfSampler>(
        spec_.domain_size, ZipfExponentForSegment(spec_, 0));
  } else {
    std::vector<double> weights(spec_.item_counts.begin(),
                                spec_.item_counts.end());
    histogram_ = std::make_unique<AliasSampler>(weights);
  }
  tally_.assign(protocol_.domain_size(), 0);
}

ItemId ArrivalStream::NextGenuineItem() {
  if (histogram_) return static_cast<ItemId>(histogram_->Sample(rng_));
  // Drifting zipf: rebuild the sampler when the stream crosses into a
  // new segment.  Segment boundaries depend only on (position, spec),
  // never on window geometry or the RNG, so the item stream is the
  // same however it is windowed.
  const size_t segment = position_ * spec_.zipf_segments / spec_.total_reports;
  if (segment != zipf_segment_) {
    zipf_segment_ = segment;
    zipf_ = std::make_unique<ZipfSampler>(
        spec_.domain_size, ZipfExponentForSegment(spec_, segment));
  }
  return rank_to_item_[zipf_->Sample(rng_)];
}

bool ArrivalStream::Next(ReportBatch::Builder& out) {
  LDPR_CHECK(!done());
  // Quota interleaving: slot i is an attacker slot iff the density
  // integral crosses an integer here.  Per-slot density < 1, so the
  // floor advances by at most one per slot.
  density_integral_ += AttackerFractionAt(spec_, position_);
  const size_t quota = static_cast<size_t>(std::floor(density_integral_));
  bool attacker = false;
  if (quota > attacker_quota_used_ && attack_ != nullptr) {
    ++attacker_quota_used_;
    ++attackers_emitted_;
    attack_->CraftBatch(protocol_, 1, rng_, out);
    attacker = true;
  } else {
    const ItemId item = NextGenuineItem();
    ++tally_[item];
    protocol_.AppendGenuineReports(item, 1, rng_, out);
  }
  ++position_;
  return attacker;
}

StreamReplay ReplayStream(const FrequencyProtocol& protocol,
                          const StreamSpec& spec, uint64_t seed) {
  ArrivalStream stream(protocol, spec, seed);
  StreamReplay replay;
  replay.is_attacker.reserve(spec.total_reports);
  ReportBatch::Builder builder(replay.reports);
  builder.Reserve(spec.total_reports);
  while (!stream.done()) {
    replay.is_attacker.push_back(stream.Next(builder) ? 1 : 0);
  }
  replay.targets = stream.targets();
  replay.genuine_item_counts = stream.genuine_item_tally();
  return replay;
}

}  // namespace ldpr
