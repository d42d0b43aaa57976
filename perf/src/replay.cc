#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "check.h"
#include "ldp/factory.h"
#include "recover/detection.h"
#include "recover/kmeans_defense.h"
#include "recover/ldprecover.h"
#include "recover/outlier.h"
#include "recover/simplex_projection.h"
#include "runner/scenario_runner.h"
#include "shard/fault.h"
#include "shard/merge.h"
#include "shard/shard_task.h"
#include "shard/wire.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "sim/scenario_spec.h"
#include "stream/streaming_engine.h"
#include "tasks/heavy_hitters.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace ldpr {
namespace perf {
namespace {

// Bytes the aggregation kernels read per batch, from the SoA field
// widths: one bit row of d bytes per unary report, seed (8) + value
// (4) per hashed report, value (4) per GRR report.
uint64_t BatchBytes(const FrequencyProtocol& protocol, uint64_t reports) {
  switch (protocol.kind()) {
    case ProtocolKind::kOue:
    case ProtocolKind::kSue:
      return reports * protocol.domain_size();
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh:
      return reports * 12;
    case ProtocolKind::kGrr:
      return reports * 4;
  }
  return 0;
}

// Timed Aggregator::AddAllSharded plus its work counts.
template <typename Reports>
void TimedAggregate(Aggregator& aggregator, const FrequencyProtocol& protocol,
                    const Reports& reports, size_t count, size_t shards,
                    TrialTrace& trace) {
  Timed(trace, Layer::kLdpAggregate,
        [&] { aggregator.AddAllSharded(reports, shards); });
  trace.counters.aggregate_reports += count;
  trace.counters.aggregate_bytes += BatchBytes(protocol, count);
}

// Everything one scenario replay shares: the resolved knobs and
// datasets, the set-up trace, the per-trial traces and the row sink.
struct ReplayContext {
  const Scenario& scenario;
  uint64_t seed;
  size_t trials;
  double scale;
  size_t threads;
  std::vector<Dataset> datasets;
  TrialTrace setup;
  std::vector<TrialTrace> traces;
  CollectingSink sink;
  size_t next_cell = 0;

  const ScenarioSpec& spec() const { return scenario.spec; }

  std::unique_ptr<FrequencyProtocol> Protocol(ProtocolKind kind, size_t d,
                                              double epsilon) {
    return Timed(setup, Layer::kDataResolve,
                 [&] { return MakeProtocol(kind, d, epsilon); });
  }

  // The RunTrialGrid fan-out (runner/scenario_runner.h) with one trace
  // per flat index: fn(cell, shards, DeriveSeed(seed, i), trace).
  template <typename Row, typename Fn>
  std::vector<Row> RunGrid(size_t cells, uint64_t grid_seed, const Fn& fn) {
    const size_t total = cells * trials;
    return RunUnits<Row>(total, [&](size_t i, size_t shards,
                                    TrialTrace& trace) {
      return fn(i / trials, shards, DeriveSeed(grid_seed, i), trace);
    });
  }

  // Runs fn(i, shards, trace) for i < count on the thread budget, each
  // index on its own trace.
  template <typename Row, typename Fn>
  std::vector<Row> RunUnits(size_t count, const Fn& fn) {
    const ThreadBudget budget = SplitThreadBudget(threads, count);
    std::vector<Row> rows(count);
    std::vector<TrialTrace> local(count);
    const size_t base = traces.size();
    const size_t base_cell = next_cell;
    next_cell += (count + trials - 1) / trials;
    ParallelFor(budget.outer, count, [&](size_t i) {
      TrialTrace& trace = local[i];
      trace.scenario = spec().id;
      trace.index = base + i;
      trace.cell = base_cell + i / trials;
      trace.start = Now();
      rows[i] = fn(i, budget.inner, trace);
      trace.end = Now();
    });
    std::move(local.begin(), local.end(), std::back_inserter(traces));
    return rows;
  }
};

// ------------------------------------------------------------ trials

// RunPoisoningTrial (sim/pipeline.cc), call for call.
TrialOutput ReplayPoisoningTrial(const FrequencyProtocol& protocol,
                                 const PipelineConfig& config,
                                 const Dataset& dataset, Rng& rng,
                                 TrialTrace& trace) {
  const size_t d = protocol.domain_size();
  TrialOutput out;
  out.n = dataset.num_users();
  out.m = (config.attack == AttackKind::kNone)
              ? 0
              : MaliciousUserCount(config.beta, out.n);
  out.true_freqs = dataset.TrueFrequencies();

  const uint64_t genuine_seed = rng.Next();
  const std::vector<double> genuine_counts =
      Timed(trace, Layer::kLdpSampleGenuine, [&] {
        return config.exact_genuine
                   ? ExactGenuineSupportCountsSharded(
                         protocol, dataset.item_counts, genuine_seed,
                         config.shards)
                   : protocol.SampleSupportCountsSharded(
                         dataset.item_counts, genuine_seed, config.shards);
      });
  out.genuine_freqs = Timed(trace, Layer::kLdpEstimate, [&] {
    return protocol.EstimateFrequencies(genuine_counts, out.n);
  });

  std::vector<double> malicious_counts(d, 0.0);
  if (out.m > 0) {
    const std::unique_ptr<Attack> attack = Timed(
        trace, Layer::kAttackCraft, [&] { return MakeAttack(config, d, rng); });
    out.attack_targets = attack->targets();
    ReportBatch::Builder builder(out.malicious_reports);
    Timed(trace, Layer::kAttackCraft,
          [&] { attack->CraftBatch(protocol, out.m, rng, builder); });
    trace.counters.reports_crafted += out.m;
    Aggregator malicious_agg(protocol);
    TimedAggregate(malicious_agg, protocol, out.malicious_reports, out.m,
                   config.shards, trace);
    malicious_counts = malicious_agg.support_counts();
    out.malicious_freqs = Timed(trace, Layer::kLdpEstimate, [&] {
      return protocol.EstimateFrequencies(malicious_counts, out.m);
    });
  }

  std::vector<double> combined(d);
  for (size_t v = 0; v < d; ++v)
    combined[v] = genuine_counts[v] + malicious_counts[v];
  out.poisoned_freqs = Timed(trace, Layer::kLdpEstimate, [&] {
    return protocol.EstimateFrequencies(combined, out.n + out.m);
  });
  return out;
}

// Counts the simplex projection's active-set passes on the raw
// estimate Recover() projects (benchmark-side work, outside any layer
// span's accounting of the trial's own calls).
void CountSimplexIterations(const LdpRecover& recover,
                            const std::vector<double>& poisoned,
                            TrialTrace& trace) {
  if (recover.options().ablate_no_refinement) return;
  trace.counters.simplex_iters += SimplexProjectionIterations(
      recover.EstimateGenuineFrequencies(poisoned));
}

// RunTrialWithProtocol (sim/experiment.cc), call for call.
TrialMetrics ReplayGridTrial(const FrequencyProtocol& protocol,
                             const ExperimentConfig& config,
                             const Dataset& dataset, uint64_t trial_seed,
                             TrialTrace& trace) {
  Rng rng(trial_seed);
  TrialMetrics out;

  const TrialOutput t =
      ReplayPoisoningTrial(protocol, config.pipeline, dataset, rng, trace);
  const bool attacked = t.m > 0;
  const bool targeted = !t.attack_targets.empty();

  out.mse_before = Mse(t.true_freqs, t.poisoned_freqs);
  if (targeted) {
    out.fg_before =
        FrequencyGain(t.genuine_freqs, t.poisoned_freqs, t.attack_targets);
  }

  RecoverOptions base_opts;
  base_opts.eta = config.eta;
  base_opts.paper_literal_subdomain_sum = config.paper_literal_subdomain_sum;
  const LdpRecover recover(protocol, base_opts);
  const std::vector<double> recovered = Timed(
      trace, Layer::kRecoverLdprecover,
      [&] { return recover.Recover(t.poisoned_freqs); });
  out.mse_recover = Mse(t.true_freqs, recovered);
  if (targeted) {
    out.fg_recover =
        FrequencyGain(t.genuine_freqs, recovered, t.attack_targets);
  }
  if (attacked) {
    out.mse_malicious_recover = Mse(
        t.malicious_freqs, Timed(trace, Layer::kRecoverLdprecover, [&] {
          return recover.EstimateMaliciousFrequencies(t.poisoned_freqs);
        }));
  }

  if (attacked && (config.run_star || config.run_detection)) {
    std::vector<ItemId> star_targets = t.attack_targets;
    if (star_targets.empty()) {
      const size_t k = std::max<size_t>(1, config.pipeline.num_targets / 2);
      star_targets =
          TopFrequencyGainers(t.genuine_freqs, t.poisoned_freqs, k);
    }

    if (config.run_star && !star_targets.empty() &&
        star_targets.size() < dataset.domain_size()) {
      RecoverOptions star_opts = base_opts;
      star_opts.known_targets = star_targets;
      const LdpRecover star(protocol, star_opts);
      const std::vector<double> recovered_star =
          Timed(trace, Layer::kRecoverStar,
                [&] { return star.Recover(t.poisoned_freqs); });
      out.mse_recover_star = Mse(t.true_freqs, recovered_star);
      if (targeted) {
        out.fg_recover_star =
            FrequencyGain(t.genuine_freqs, recovered_star, t.attack_targets);
      }
      out.mse_malicious_recover_star = Mse(
          t.malicious_freqs, Timed(trace, Layer::kRecoverStar, [&] {
            return star.EstimateMaliciousFrequencies(t.poisoned_freqs);
          }));
    }

    if (config.run_detection && !star_targets.empty()) {
      DetectionFilter filter(protocol, star_targets);
      Timed(trace, Layer::kRecoverDetectGenuine, [&] {
        if (config.pipeline.exact_genuine) {
          filter.OfferExactGenuine(dataset.item_counts, rng);
        } else {
          filter.OfferSampledGenuineSharded(dataset.item_counts, rng.Next(),
                                            config.pipeline.shards);
        }
      });
      Timed(trace, Layer::kRecoverDetectFilter,
            [&] { filter.OfferAll(t.malicious_reports); });
      trace.counters.detect_offered += filter.offered();
      trace.counters.detect_kept += filter.kept();
      if (filter.kept() > 0) {
        const std::vector<double> detected = Timed(
            trace, Layer::kRecoverDetectFilter,
            [&] { return filter.Estimate(); });
        out.mse_detection = Mse(t.true_freqs, detected);
        if (targeted) {
          out.fg_detection =
              FrequencyGain(t.genuine_freqs, detected, t.attack_targets);
        }
      }
    }
  }
  // Counted after the trial's own calls; the counting pass is not
  // part of any layer's time.
  const double counting = Now();
  CountSimplexIterations(recover, t.poisoned_freqs, trace);
  trace.spans.push_back({Layer::kBenchmarkProbe, counting, Now()});
  return out;
}

bool SameBits(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

bool SameMetrics(const TrialMetrics& a, const TrialMetrics& b) {
  return SameBits(a.mse_before, b.mse_before) &&
         SameBits(a.mse_recover, b.mse_recover) &&
         SameBits(a.mse_recover_star, b.mse_recover_star) &&
         SameBits(a.mse_detection, b.mse_detection) &&
         SameBits(a.fg_before, b.fg_before) &&
         SameBits(a.fg_recover, b.fg_recover) &&
         SameBits(a.fg_recover_star, b.fg_recover_star) &&
         SameBits(a.fg_detection, b.fg_detection) &&
         SameBits(a.mse_malicious_recover, b.mse_malicious_recover) &&
         SameBits(a.mse_malicious_recover_star, b.mse_malicious_recover_star);
}

// ------------------------------------------------------- grid scenarios

Status ReplayGrid(ReplayContext& ctx, bool check_trials,
                  ReplayOutput& output) {
  const ScenarioSpec& spec = ctx.spec();
  auto lowered = LowerScenario(spec, ctx.trials, ctx.seed);
  if (!lowered.ok()) return lowered.status();

  // Every config with the dataset (variant) it runs on; row overrides
  // resolve their variant once, as RunGridScenario does.
  struct ConfigRef {
    const ExperimentConfig* config;
    const Dataset* dataset;
    std::unique_ptr<FrequencyProtocol> protocol;
  };
  std::map<std::tuple<size_t, uint64_t, size_t>, std::unique_ptr<Dataset>>
      variants;
  std::vector<ConfigRef> configs;
  for (const LoweredTable& table : lowered->tables) {
    for (const LoweredRow& row : table.rows) {
      const Dataset* dataset = &ctx.datasets[table.dataset_index];
      if (row.n_override != 0 || row.d_override != 0) {
        auto& variant = variants[std::make_tuple(
            table.dataset_index, row.n_override, row.d_override)];
        if (variant == nullptr) {
          auto resolved = Timed(ctx.setup, Layer::kDataResolve, [&] {
            return ResolveBenchDataset(spec.datasets[table.dataset_index],
                                       ctx.scale, row.d_override,
                                       row.n_override);
          });
          if (!resolved.ok()) return resolved.status();
          variant = std::make_unique<Dataset>(std::move(*resolved));
        }
        dataset = variant.get();
      }
      for (const ExperimentConfig& config : row.configs) {
        configs.push_back({&config, dataset,
                           ctx.Protocol(config.protocol,
                                        dataset->domain_size(),
                                        config.epsilon)});
      }
    }
  }

  const size_t trials = ctx.trials;
  const size_t first_trace = ctx.traces.size();
  const std::vector<TrialMetrics> metrics = ctx.RunUnits<TrialMetrics>(
      configs.size() * trials,
      [&](size_t i, size_t shards, TrialTrace& trace) {
        const ConfigRef& ref = configs[i / trials];
        ExperimentConfig config = *ref.config;
        config.pipeline.shards = shards;
        return ReplayGridTrial(*ref.protocol, config, *ref.dataset,
                               DeriveSeed(config.seed, i % trials), trace);
      });

  if (check_trials) {
    const double check_start = Now();
    std::vector<uint8_t> same(metrics.size(), 0);
    const ThreadBudget budget = SplitThreadBudget(ctx.threads, same.size());
    ParallelFor(budget.outer, same.size(), [&](size_t i) {
      const ConfigRef& ref = configs[i / trials];
      same[i] = SameMetrics(
          metrics[i], RunSingleTrial(*ref.config, *ref.dataset,
                                     DeriveSeed(ref.config->seed, i % trials)));
    });
    for (uint8_t ok : same) output.trial_mismatches += ok ? 0 : 1;
    output.check_s = Now() - check_start;
  }

  // Merge per config in trial order, as RunExperiment does, then
  // format the rows in lowering order.
  std::vector<ExperimentResult> results(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    for (size_t t = 0; t < trials; ++t) {
      const size_t i = c * trials + t;
      MergeTrialMetrics(metrics[i], results[c]);
      const TrialTrace& trace = ctx.traces[first_trace + i];
      results[c].trial_seconds.Add(trace.end - trace.start);
    }
    results[c].users_per_trial = configs[c].dataset->num_users();
  }
  size_t next = 0;
  for (const LoweredTable& table : lowered->tables) {
    ctx.sink.BeginTable(table.title, spec.columns);
    for (const LoweredRow& row : table.rows) {
      const std::vector<ExperimentResult> row_results(
          results.begin() + next, results.begin() + next + row.configs.size());
      next += row.configs.size();
      ctx.sink.AddRow(row.label, ctx.scenario.format_row(row_results));
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------- fig9

Status ReplayFig9(ReplayContext& ctx) {
  const ScenarioSpec& spec = ctx.spec();
  const Dataset& ipums = ctx.datasets[0];
  const std::vector<double> truth = ipums.TrueFrequencies();
  const std::vector<double>& xis = spec.sweeps[0].values;

  struct Row {
    double before = 0, kmeans_alone = 0, km = 0;
  };
  size_t protocol_index = 0;
  for (ProtocolKind kind : spec.protocols) {
    const auto protocol =
        ctx.Protocol(kind, ipums.domain_size(), spec.defaults.epsilon);
    const uint64_t protocol_seed = DeriveSeed(ctx.seed, protocol_index++);
    const std::vector<Row> rows = ctx.RunGrid<Row>(
        xis.size(), protocol_seed,
        [&](size_t xi_index, size_t shards, uint64_t trial_seed,
            TrialTrace& trace) {
          Rng rng(trial_seed);
          PipelineConfig pconfig;
          pconfig.attack = AttackKind::kMgaIpa;
          pconfig.beta = spec.defaults.beta;
          const size_t m = MaliciousUserCount(pconfig.beta, ipums.num_users());

          std::vector<Report> reports;
          reports.reserve(ipums.num_users() + m);
          Timed(trace, Layer::kLdpSampleGenuine, [&] {
            for (ItemId item = 0; item < ipums.domain_size(); ++item) {
              for (uint64_t u = 0; u < ipums.item_counts[item]; ++u)
                reports.push_back(protocol->Perturb(item, rng));
            }
          });
          const auto attack = Timed(trace, Layer::kAttackCraft, [&] {
            return MakeAttack(pconfig, ipums.domain_size(), rng);
          });
          Timed(trace, Layer::kAttackCraft, [&] {
            auto crafted = attack->Craft(*protocol, m, rng);
            std::move(crafted.begin(), crafted.end(),
                      std::back_inserter(reports));
          });
          trace.counters.reports_crafted += m;

          Row row;
          Aggregator all(*protocol);
          TimedAggregate(all, *protocol, reports, reports.size(), shards,
                         trace);
          row.before = Mse(truth, Timed(trace, Layer::kLdpEstimate, [&] {
                             return all.EstimateFrequencies();
                           }));

          KMeansDefenseOptions opts;
          opts.sample_rate = xis[xi_index];
          const KMeansDefenseResult defense =
              Timed(trace, Layer::kRecoverKmeans, [&] {
                return RunKMeansDefense(*protocol, reports, opts, rng);
              });
          row.kmeans_alone = Mse(truth, defense.genuine_estimate);
          row.km = Mse(truth, Timed(trace, Layer::kRecoverKmeans, [&] {
                         return LdpRecoverKm(*protocol, reports, opts, 0.2,
                                             rng);
                       }));
          return row;
        });

    ctx.sink.BeginTable(std::string("Figure 9 (IPUMS, MGA-IPA, ") +
                            ProtocolKindName(kind) + "): MSE vs xi",
                        spec.columns);
    for (size_t x = 0; x < xis.size(); ++x) {
      RunningStat before, kmeans_alone, km;
      for (size_t t = 0; t < ctx.trials; ++t) {
        const Row& row = rows[x * ctx.trials + t];
        before.Add(row.before);
        kmeans_alone.Add(row.kmeans_alone);
        km.Add(row.km);
      }
      char name[32];
      std::snprintf(name, sizeof(name), "xi=%g", xis[x]);
      ctx.sink.AddRow(name, {before.mean(), kmeans_alone.mean(), km.mean()});
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------- ext_protocols

Status ReplayExtProtocols(ReplayContext& ctx) {
  const ScenarioSpec& spec = ctx.spec();
  const Dataset& ipums = ctx.datasets[0];

  std::vector<ScenarioCell> cells;
  for (AttackKind attack : spec.attacks) {
    for (ProtocolKind kind : spec.protocols) cells.push_back({attack, kind});
  }
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (const ScenarioCell& cell : cells)
    protocols.push_back(ctx.Protocol(cell.protocol, ipums.domain_size(),
                                     spec.defaults.epsilon));

  struct Row {
    double mse_before = 0, mse_after = 0;
    double hits_before = 0, hits_after = 0;
    bool targeted = false;
  };
  const std::vector<Row> rows = ctx.RunGrid<Row>(
      cells.size(), ctx.seed,
      [&](size_t cell, size_t shards, uint64_t trial_seed, TrialTrace& trace) {
        const FrequencyProtocol& protocol = *protocols[cell];
        PipelineConfig config;
        config.attack = cells[cell].attack;
        config.beta = spec.defaults.beta;
        config.shards = shards;
        Rng rng(trial_seed);
        const TrialOutput t =
            ReplayPoisoningTrial(protocol, config, ipums, rng, trace);
        RecoverOptions opts;
        if (!t.attack_targets.empty()) opts.known_targets = t.attack_targets;
        const LdpRecover recover(protocol, opts);
        const auto recovered = Timed(
            trace,
            opts.known_targets ? Layer::kRecoverStar
                               : Layer::kRecoverLdprecover,
            [&] { return recover.Recover(t.poisoned_freqs); });

        Row row;
        row.mse_before = Mse(t.true_freqs, t.poisoned_freqs);
        row.mse_after = Mse(t.true_freqs, recovered);
        if (!t.attack_targets.empty()) {
          row.targeted = true;
          row.hits_before = static_cast<double>(
              CountInTopK(t.poisoned_freqs, t.attack_targets, 10));
          row.hits_after = static_cast<double>(
              CountInTopK(recovered, t.attack_targets, 10));
        }
        const double counting = Now();
        CountSimplexIterations(recover, t.poisoned_freqs, trace);
        trace.spans.push_back({Layer::kBenchmarkProbe, counting, Now()});
        return row;
      });

  ctx.sink.BeginTable("Extended protocols (IPUMS): MSE and targets in top-10",
                      spec.columns);
  for (size_t cell = 0; cell < cells.size(); ++cell) {
    RunningStat mse_before, mse_after, hits_before, hits_after;
    for (size_t t = 0; t < ctx.trials; ++t) {
      const Row& row = rows[cell * ctx.trials + t];
      mse_before.Add(row.mse_before);
      mse_after.Add(row.mse_after);
      if (row.targeted) {
        hits_before.Add(row.hits_before);
        hits_after.Add(row.hits_after);
      }
    }
    const std::string name =
        std::string(AttackKindName(cells[cell].attack)) + "-" +
        ProtocolKindName(cells[cell].protocol);
    ctx.sink.AddRow(name, {mse_before.mean(), mse_after.mean(),
                           hits_before.count() ? hits_before.mean() : 0.0,
                           hits_after.count() ? hits_after.mean() : 0.0});
  }
  return Status::Ok();
}

// -------------------------------------------------------- streaming

// The window geometry and detection threshold of
// bench/scenario_streaming.cc.
size_t DefaultWindowReports(size_t total) {
  return std::max<size_t>(1, total / 10);
}

StreamEngineOptions OptionsFor(const FrequencyProtocol& protocol,
                               size_t num_targets, double peak_fraction) {
  StreamEngineOptions options;
  const double base = ApproxGenuineSuspicionRate(protocol, num_targets);
  options.detect_fraction = base + peak_fraction * (1.0 - base) / 2.0;
  return options;
}

StreamSummary TimedRunStream(const FrequencyProtocol& protocol,
                             const StreamSpec& stream,
                             const StreamEngineOptions& options,
                             uint64_t seed, TrialTrace& trace) {
  StreamSummary summary = Timed(trace, Layer::kStreamRun, [&] {
    return RunStream(protocol, stream, options, seed);
  });
  trace.counters.stream_windows += summary.windows.size();
  trace.counters.stream_reports += summary.total_reports;
  return summary;
}

std::vector<std::unique_ptr<FrequencyProtocol>> StreamProtocols(
    ReplayContext& ctx) {
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (ProtocolKind kind : ctx.spec().protocols)
    protocols.push_back(ctx.Protocol(kind, ctx.datasets[0].domain_size(),
                                     ctx.spec().defaults.epsilon));
  return protocols;
}

// Adds one row per protocol: the per-trial column vectors averaged in
// trial order.
void AddMeanRows(ReplayContext& ctx,
                 const std::vector<std::vector<double>>& rows) {
  const size_t cells = ctx.spec().protocols.size();
  for (size_t cell = 0; cell < cells; ++cell) {
    std::vector<RunningStat> stats(ctx.spec().columns.size());
    for (size_t t = 0; t < ctx.trials; ++t) {
      const std::vector<double>& row = rows[cell * ctx.trials + t];
      for (size_t c = 0; c < stats.size(); ++c) stats[c].Add(row[c]);
    }
    std::vector<double> values;
    for (const RunningStat& stat : stats) values.push_back(stat.mean());
    ctx.sink.AddRow(ProtocolKindName(ctx.spec().protocols[cell]), values);
  }
}

Status ReplayStreamingEquiv(ReplayContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const auto protocols = StreamProtocols(ctx);
  StreamSpec stream;
  stream.total_reports = data.num_users();
  stream.window_reports = stream.total_reports;
  stream.item_counts = data.item_counts;
  stream.wave = WaveShape::kConstant;
  stream.attacker_fraction = 0.05;
  stream.num_targets = ctx.spec().defaults.num_targets;

  const auto rows = ctx.RunGrid<std::vector<double>>(
      protocols.size(), ctx.seed,
      [&](size_t cell, size_t shards, uint64_t trial_seed, TrialTrace& trace) {
        const FrequencyProtocol& protocol = *protocols[cell];
        StreamEngineOptions options =
            OptionsFor(protocol, stream.num_targets, stream.attacker_fraction);
        options.run_recovery = false;
        const StreamSummary summary =
            TimedRunStream(protocol, stream, options, trial_seed, trace);
        const StreamReplay replay = Timed(trace, Layer::kStreamArrival, [&] {
          return ReplayStream(protocol, stream, trial_seed);
        });
        trace.counters.arrival_reports += replay.reports.size();
        Aggregator aggregator(protocol);
        TimedAggregate(aggregator, protocol, replay.reports,
                       replay.reports.size(), shards, trace);

        uint64_t genuine = 0;
        for (uint64_t c : replay.genuine_item_counts) genuine += c;
        std::vector<double> true_freqs(replay.genuine_item_counts.size());
        for (size_t v = 0; v < true_freqs.size(); ++v)
          true_freqs[v] = static_cast<double>(replay.genuine_item_counts[v]) /
                          static_cast<double>(genuine);
        const double batch_mse =
            Mse(true_freqs, Timed(trace, Layer::kLdpEstimate, [&] {
                  return aggregator.EstimateFrequencies();
                }));
        double drift = 0;
        const std::vector<double>& batch_counts = aggregator.support_counts();
        for (size_t v = 0; v < batch_counts.size(); ++v) {
          drift = std::max(drift, std::abs(summary.final_support_counts[v] -
                                           batch_counts[v]));
        }
        return std::vector<double>{
            summary.mean_mse_estimate, batch_mse, drift,
            static_cast<double>(summary.windows_to_detection)};
      });
  ctx.sink.BeginTable("Streaming vs batch equivalence (Zipf)",
                      ctx.spec().columns);
  AddMeanRows(ctx, rows);
  return Status::Ok();
}

Status ReplayStreamingWave(ReplayContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const auto protocols = StreamProtocols(ctx);
  const size_t total = data.num_users();
  const size_t window = DefaultWindowReports(total);
  const size_t stride = std::max<size_t>(1, window / 2);
  const double peak = 0.25;

  StreamSpec clean;
  clean.total_reports = total;
  clean.window_reports = stride * (window / stride);
  clean.stride_reports = stride;
  clean.item_counts = data.item_counts;
  clean.wave = WaveShape::kNone;
  clean.num_targets = ctx.spec().defaults.num_targets;

  StreamSpec wave = clean;
  wave.wave = WaveShape::kWave;
  wave.attacker_fraction = peak;
  wave.wave_start = total * 3 / 10;
  wave.wave_end = total * 7 / 10;

  const auto rows = ctx.RunGrid<std::vector<double>>(
      protocols.size(), ctx.seed,
      [&](size_t cell, size_t, uint64_t trial_seed, TrialTrace& trace) {
        const FrequencyProtocol& protocol = *protocols[cell];
        const StreamEngineOptions options =
            OptionsFor(protocol, clean.num_targets, peak);
        const StreamSummary clean_run =
            TimedRunStream(protocol, clean, options, trial_seed, trace);
        const StreamSummary wave_run =
            TimedRunStream(protocol, wave, options, trial_seed, trace);
        return std::vector<double>{
            clean_run.mean_mse_estimate,
            wave_run.mean_mse_estimate,
            wave_run.mean_mse_recovered,
            static_cast<double>(clean_run.windows_to_detection),
            static_cast<double>(wave_run.windows_to_detection),
            static_cast<double>(wave_run.windows_to_detection != kNoDetection)};
      });
  ctx.sink.BeginTable("Streaming MGA wave (Zipf): clean vs attacked",
                      ctx.spec().columns);
  AddMeanRows(ctx, rows);
  return Status::Ok();
}

Status ReplayStreamingRamp(ReplayContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const auto protocols = StreamProtocols(ctx);
  StreamSpec stream;
  stream.total_reports = data.num_users();
  stream.window_reports = DefaultWindowReports(stream.total_reports);
  stream.item_counts = data.item_counts;
  stream.wave = WaveShape::kRamp;
  stream.attacker_fraction = 0.3;
  stream.num_targets = ctx.spec().defaults.num_targets;

  const auto rows = ctx.RunGrid<std::vector<double>>(
      protocols.size(), ctx.seed,
      [&](size_t cell, size_t, uint64_t trial_seed, TrialTrace& trace) {
        const FrequencyProtocol& protocol = *protocols[cell];
        const StreamEngineOptions options =
            OptionsFor(protocol, stream.num_targets, stream.attacker_fraction);
        const StreamSummary summary =
            TimedRunStream(protocol, stream, options, trial_seed, trace);
        double first_atk = 0, last_atk = 0;
        if (!summary.windows.empty()) {
          first_atk = static_cast<double>(summary.windows.front().attackers);
          last_atk = static_cast<double>(summary.windows.back().attackers);
        }
        return std::vector<double>{
            summary.mean_mse_estimate, summary.mean_mse_recovered, first_atk,
            last_atk, static_cast<double>(summary.windows_to_detection)};
      });
  ctx.sink.BeginTable("Streaming ramping attacker fraction (Zipf)",
                      ctx.spec().columns);
  AddMeanRows(ctx, rows);
  return Status::Ok();
}

Status ReplayStreamingDrift(ReplayContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const auto protocols = StreamProtocols(ctx);
  const size_t total = data.num_users();
  StreamSpec stream;
  stream.total_reports = total;
  stream.window_reports = DefaultWindowReports(total);
  stream.domain_size = data.domain_size();
  stream.zipf_s_start = 1.6;
  stream.zipf_s_end = 0.6;
  stream.zipf_segments = 8;
  stream.wave = WaveShape::kWave;
  stream.attacker_fraction = 0.2;
  stream.wave_start = total * 4 / 10;
  stream.wave_end = total * 7 / 10;
  stream.num_targets = ctx.spec().defaults.num_targets;

  const auto freqs = [](const WindowResult& w) {
    uint64_t genuine = 0;
    for (uint64_t c : w.genuine_tally) genuine += c;
    std::vector<double> f(w.genuine_tally.size(), 0.0);
    if (genuine > 0) {
      for (size_t v = 0; v < f.size(); ++v)
        f[v] = static_cast<double>(w.genuine_tally[v]) /
               static_cast<double>(genuine);
    }
    return f;
  };
  const auto rows = ctx.RunGrid<std::vector<double>>(
      protocols.size(), ctx.seed,
      [&](size_t cell, size_t, uint64_t trial_seed, TrialTrace& trace) {
        const FrequencyProtocol& protocol = *protocols[cell];
        const StreamEngineOptions options =
            OptionsFor(protocol, stream.num_targets, stream.attacker_fraction);
        const StreamSummary summary =
            TimedRunStream(protocol, stream, options, trial_seed, trace);
        double true_drift = 0;
        if (summary.windows.size() >= 2) {
          true_drift = L1Distance(freqs(summary.windows.front()),
                                  freqs(summary.windows.back()));
        }
        return std::vector<double>{
            summary.mean_mse_estimate, summary.mean_mse_recovered, true_drift,
            static_cast<double>(summary.windows_to_detection)};
      });
  ctx.sink.BeginTable("Streaming drifting Zipf + wave", ctx.spec().columns);
  AddMeanRows(ctx, rows);
  return Status::Ok();
}

// ------------------------------------------------------ shard faults

// The fleet and chunking of bench/scenario_shard_fault.cc.
constexpr uint64_t kFaultWorkers = 8;

ShardTaskSpec MakeFaultSpec(const ReplayContext& ctx, ProtocolKind protocol,
                            AttackKind attack, uint64_t trial_seed) {
  const ScenarioSpec& spec = ctx.spec();
  ShardTaskSpec task;
  task.protocol = protocol;
  task.epsilon = spec.defaults.epsilon;
  task.dataset = "zipf";
  task.scale = ctx.scale;
  task.attack = attack;
  task.beta = spec.defaults.beta;
  task.num_targets = spec.defaults.num_targets;
  task.eta = spec.defaults.eta;
  task.seed = trial_seed;
  const uint64_t n = ctx.datasets[0].num_users();
  const uint64_t m = attack == AttackKind::kNone
                         ? 0
                         : MaliciousUserCount(spec.defaults.beta, n);
  task.chunking.users_per_chunk = std::max<uint64_t>(1, (n + 15) / 16);
  task.chunking.reports_per_chunk = std::max<uint64_t>(1, (m + 7) / 8);
  return task;
}

StatusOr<ShardTaskPlan> TimedPlan(const ShardTaskSpec& spec,
                                  const Dataset& data, TrialTrace& trace) {
  return Timed(trace, Layer::kShardPlan,
               [&] { return BuildShardTaskPlan(spec, data); });
}

// Every worker's partials, encoded; each line is also decoded once
// from outside to time the wire decoder on its own (the merge decodes
// again internally).
std::vector<std::vector<std::string>> TimedWorkerLines(
    const ShardTaskPlan& plan, TrialTrace& trace) {
  std::vector<std::vector<std::string>> lines(kFaultWorkers);
  for (uint64_t w = 0; w < kFaultWorkers; ++w) {
    const std::vector<PartialRecord> records =
        Timed(trace, Layer::kShardPartials,
              [&] { return ComputeWorkerPartials(plan, w, kFaultWorkers); });
    for (const PartialRecord& rec : records) {
      lines[w].push_back(Timed(trace, Layer::kShardEncode,
                               [&] { return EncodePartialLine(rec); }));
      trace.counters.wire_bytes += lines[w].back().size();
    }
  }
  Timed(trace, Layer::kShardDecode, [&] {
    for (const auto& worker : lines) {
      for (const std::string& line : worker) (void)DecodePartialLine(line);
    }
  });
  return lines;
}

struct FaultedMerge {
  StatusOr<MergedPartials> merged = InternalError("unset");
  FaultyDelivery delivery;
};

FaultedMerge TimedMergeUnderFaults(
    const ShardTaskPlan& plan,
    const std::vector<std::vector<std::string>>& worker_lines,
    const FaultSpec& fault_spec, TrialTrace& trace) {
  FaultedMerge result;
  result.delivery = Timed(trace, Layer::kShardFault, [&] {
    return ApplyFaultPlan(MakeFaultPlan(fault_spec, kFaultWorkers),
                          worker_lines);
  });
  MergeOptions options;
  options.allow_missing = true;
  result.merged = Timed(trace, Layer::kShardMerge, [&] {
    return MergeShardPartials(plan, result.delivery.lines, options);
  });
  if (result.merged.ok()) {
    trace.counters.lines_total += result.merged->stats.lines_total;
    trace.counters.lines_rejected += result.merged->stats.lines_rejected;
  }
  return result;
}

ShardOutcome TimedOutcome(const ShardTaskPlan& plan, const Dataset& data,
                          const MergedPartials& merged, TrialTrace& trace) {
  return Timed(trace, Layer::kShardOutcome,
               [&] { return ComputeShardOutcome(plan, data, merged); });
}

Status ReplayShardFaultLoss(ReplayContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const std::vector<ProtocolKind>& kinds = ctx.spec().protocols;
  const double kill_fractions[3] = {0.0, 0.25, 0.5};
  const auto rows = ctx.RunGrid<std::vector<double>>(
      kinds.size(), ctx.seed,
      [&](size_t cell, size_t, uint64_t trial_seed, TrialTrace& trace) {
        std::vector<double> row(8, 0.0);
        auto gen_plan = TimedPlan(
            MakeFaultSpec(ctx, kinds[cell], AttackKind::kNone, trial_seed),
            data, trace);
        auto mga_plan = TimedPlan(
            MakeFaultSpec(ctx, kinds[cell], AttackKind::kMga, trial_seed),
            data, trace);
        if (!gen_plan.ok() || !mga_plan.ok()) return row;
        const auto gen_lines = TimedWorkerLines(*gen_plan, trace);
        const auto mga_lines = TimedWorkerLines(*mga_plan, trace);
        const double nan = std::nan("");
        for (int k = 0; k < 3; ++k) {
          FaultSpec fault;
          fault.kill_fraction = kill_fractions[k];
          fault.seed = DeriveSeed(trial_seed, 9000 + k);
          const FaultedMerge gen =
              TimedMergeUnderFaults(*gen_plan, gen_lines, fault, trace);
          const FaultedMerge mga =
              TimedMergeUnderFaults(*mga_plan, mga_lines, fault, trace);
          row[k] = gen.merged.ok()
                       ? TimedOutcome(*gen_plan, data, *gen.merged, trace)
                             .poisoned_mse
                       : nan;
          row[3 + k] = mga.merged.ok()
                           ? TimedOutcome(*mga_plan, data, *mga.merged, trace)
                                 .poisoned_mse
                           : nan;
          if (k == 0 || k == 2) {
            double rec = nan;
            if (mga.merged.ok())
              rec = TimedOutcome(*mga_plan, data, *mga.merged, trace)
                        .recovered_mse;
            row[k == 0 ? 6 : 7] = rec;
          }
        }
        return row;
      });
  ctx.sink.BeginTable("Shard loss: estimate MSE vs killed-shard fraction "
                      "(Zipf, 8 workers)",
                      ctx.spec().columns);
  AddMeanRows(ctx, rows);
  return Status::Ok();
}

Status ReplayShardFaultMixed(ReplayContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const std::vector<ProtocolKind>& kinds = ctx.spec().protocols;
  const auto rows = ctx.RunGrid<std::vector<double>>(
      kinds.size(), ctx.seed,
      [&](size_t cell, size_t, uint64_t trial_seed, TrialTrace& trace) {
        double dup_drift = 0, torn_rej = 0, flip_rej = 0, straggler_loss = 0,
               fault_mse = 0;
        const auto row = [&] {
          return std::vector<double>{dup_drift, torn_rej, flip_rej,
                                     straggler_loss, fault_mse};
        };
        auto plan = TimedPlan(
            MakeFaultSpec(ctx, kinds[cell], AttackKind::kMga, trial_seed),
            data, trace);
        if (!plan.ok()) return row();
        const auto lines = TimedWorkerLines(*plan, trace);
        const uint64_t total_chunks = plan->total_chunks();
        const auto clean = Timed(trace, Layer::kShardPartials, [&] {
          return RunShardTaskInProcess(*plan, kFaultWorkers);
        });
        if (!clean.ok()) return row();

        FaultSpec dup_fault;
        dup_fault.duplicate_fraction = 0.5;
        dup_fault.seed = DeriveSeed(trial_seed, 9100);
        const FaultedMerge dup =
            TimedMergeUnderFaults(*plan, lines, dup_fault, trace);
        if (dup.merged.ok()) {
          for (size_t v = 0; v < clean->genuine_counts.size(); ++v) {
            dup_drift = std::max(
                dup_drift, std::abs(dup.merged->genuine_counts[v] -
                                    clean->genuine_counts[v]) +
                               std::abs(dup.merged->malicious_counts[v] -
                                        clean->malicious_counts[v]));
          }
        }

        FaultSpec torn_fault;
        torn_fault.torn_fraction = 0.25;
        torn_fault.seed = DeriveSeed(trial_seed, 9200);
        const FaultedMerge torn =
            TimedMergeUnderFaults(*plan, lines, torn_fault, trace);
        if (torn.merged.ok() && torn.delivery.lines_torn > 0) {
          torn_rej = static_cast<double>(torn.merged->stats.lines_rejected) /
                     static_cast<double>(torn.delivery.lines_torn);
        }
        FaultSpec flip_fault;
        flip_fault.bitflip_fraction = 0.25;
        flip_fault.seed = DeriveSeed(trial_seed, 9300);
        const FaultedMerge flip =
            TimedMergeUnderFaults(*plan, lines, flip_fault, trace);
        if (flip.merged.ok() && flip.delivery.lines_flipped > 0) {
          flip_rej = static_cast<double>(flip.merged->stats.lines_rejected) /
                     static_cast<double>(flip.delivery.lines_flipped);
        }

        FaultSpec straggler_fault;
        straggler_fault.straggler_fraction = 0.25;
        straggler_fault.seed = DeriveSeed(trial_seed, 9400);
        const FaultedMerge straggler =
            TimedMergeUnderFaults(*plan, lines, straggler_fault, trace);
        if (straggler.merged.ok() && total_chunks > 0) {
          straggler_loss =
              static_cast<double>(
                  straggler.merged->stats.genuine_chunks_lost +
                  straggler.merged->stats.malicious_chunks_lost) /
              static_cast<double>(total_chunks);
        }

        FaultSpec all_fault;
        all_fault.kill_fraction = 0.125;
        all_fault.straggler_fraction = 0.125;
        all_fault.duplicate_fraction = 0.25;
        all_fault.torn_fraction = 0.125;
        all_fault.bitflip_fraction = 0.125;
        all_fault.seed = DeriveSeed(trial_seed, 9500);
        const FaultedMerge all =
            TimedMergeUnderFaults(*plan, lines, all_fault, trace);
        fault_mse = all.merged.ok()
                        ? TimedOutcome(*plan, data, *all.merged, trace)
                              .poisoned_mse
                        : std::nan("");
        return row();
      });
  ctx.sink.BeginTable("Shard faults: duplicates, torn writes, bit flips, "
                      "stragglers (Zipf, 8 workers, MGA)",
                      ctx.spec().columns);
  AddMeanRows(ctx, rows);
  return Status::Ok();
}

}  // namespace

StatusOr<ReplayOutput> ReplayScenario(const Scenario& scenario, uint64_t seed,
                                      double scale, size_t trials,
                                      size_t threads, bool check_trials) {
  const ScenarioSpec& spec = scenario.spec;
  ReplayContext ctx{scenario, seed,  trials, scale,
                    threads,  {},    {},     {},
                    CollectingSink(spec.timing_columns)};
  ctx.setup.scenario = spec.id;
  for (const std::string& name : spec.datasets) {
    auto dataset = Timed(ctx.setup, Layer::kDataResolve,
                         [&] { return ResolveBenchDataset(name, scale); });
    if (!dataset.ok()) return dataset.status();
    ctx.datasets.push_back(std::move(*dataset));
  }
  ScenarioRunInfo info;
  info.id = spec.id;
  info.title = spec.title;
  info.seed = seed;
  info.scale = scale;
  info.trials = trials;
  info.threads = threads;
  ctx.sink.BeginScenario(info);

  ReplayOutput output;
  Status status = Status::Ok();
  if (!spec.custom) {
    status = ReplayGrid(ctx, check_trials, output);
  } else if (spec.id == "fig9") {
    status = ReplayFig9(ctx);
  } else if (spec.id == "ext_protocols") {
    status = ReplayExtProtocols(ctx);
  } else if (spec.id == "streaming_equiv") {
    status = ReplayStreamingEquiv(ctx);
  } else if (spec.id == "streaming_wave") {
    status = ReplayStreamingWave(ctx);
  } else if (spec.id == "streaming_ramp") {
    status = ReplayStreamingRamp(ctx);
  } else if (spec.id == "streaming_drift") {
    status = ReplayStreamingDrift(ctx);
  } else if (spec.id == "shard_fault_loss") {
    status = ReplayShardFaultLoss(ctx);
  } else if (spec.id == "shard_fault_mixed") {
    status = ReplayShardFaultMixed(ctx);
  } else {
    status = InvalidArgumentError("no traced replay for custom scenario " +
                                  spec.id);
  }
  if (!status.ok()) return status;

  output.rows = ctx.sink.results();
  output.traces.push_back(std::move(ctx.setup));
  std::move(ctx.traces.begin(), ctx.traces.end(),
            std::back_inserter(output.traces));
  return output;
}

}  // namespace perf
}  // namespace ldpr
