#include "sim/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ldp/factory.h"
#include "recover/detection.h"
#include "recover/ldprecover.h"
#include "recover/outlier.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ldpr {

namespace {

// The attacker-selected items LDPRecover* and Detection are given:
// the true target set for targeted attacks, the top-r/2 frequency
// gainers otherwise (Section VI-A4).
std::vector<ItemId> StarTargets(const ExperimentConfig& config,
                                const TrialOutput& trial) {
  if (!trial.attack_targets.empty()) return trial.attack_targets;
  const size_t k = std::max<size_t>(1, config.pipeline.num_targets / 2);
  return TopFrequencyGainers(trial.genuine_freqs, trial.poisoned_freqs, k);
}

// The trial body, parameterized on a prebuilt protocol so the
// parallel fan-out shares one immutable protocol instance across
// workers instead of rebuilding hash families per trial.
TrialMetrics RunTrialWithProtocol(const FrequencyProtocol& protocol,
                                  const ExperimentConfig& config,
                                  const Dataset& dataset,
                                  uint64_t trial_seed) {
  Rng rng(trial_seed);
  TrialMetrics out;

  const TrialOutput t = RunPoisoningTrial(protocol, config.pipeline, dataset,
                                          rng, config.run_detection);
  const bool attacked = t.m > 0;
  const bool targeted = !t.attack_targets.empty();

  out.mse_before = Mse(t.true_freqs, t.poisoned_freqs);
  if (targeted) {
    out.fg_before =
        FrequencyGain(t.genuine_freqs, t.poisoned_freqs, t.attack_targets);
  }

  // LDPRecover (non-knowledge).
  RecoverOptions base_opts;
  base_opts.eta = config.eta;
  base_opts.paper_literal_subdomain_sum = config.paper_literal_subdomain_sum;
  const LdpRecover recover(protocol, base_opts);
  const std::vector<double> recovered = recover.Recover(t.poisoned_freqs);
  out.mse_recover = Mse(t.true_freqs, recovered);
  if (targeted) {
    out.fg_recover =
        FrequencyGain(t.genuine_freqs, recovered, t.attack_targets);
  }
  if (attacked) {
    out.mse_malicious_recover =
        Mse(t.malicious_freqs,
            recover.EstimateMaliciousFrequencies(t.poisoned_freqs));
  }

  // LDPRecover* (partial knowledge) and Detection share the
  // attacker-selected item set.
  if (attacked && (config.run_star || config.run_detection)) {
    const std::vector<ItemId> star_targets = StarTargets(config, t);

    if (config.run_star && !star_targets.empty() &&
        star_targets.size() < dataset.domain_size()) {
      RecoverOptions star_opts = base_opts;
      star_opts.known_targets = star_targets;
      const LdpRecover star(protocol, star_opts);
      const std::vector<double> recovered_star = star.Recover(t.poisoned_freqs);
      out.mse_recover_star = Mse(t.true_freqs, recovered_star);
      if (targeted) {
        out.fg_recover_star =
            FrequencyGain(t.genuine_freqs, recovered_star, t.attack_targets);
      }
      out.mse_malicious_recover_star =
          Mse(t.malicious_freqs,
              star.EstimateMaliciousFrequencies(t.poisoned_freqs));
    }

    if (config.run_detection && !star_targets.empty()) {
      DetectionFilter filter(protocol, star_targets);
      // Genuine reports are re-drawn for the filtered aggregate;
      // detection metrics are averaged across trials, so using an
      // independent realization of the genuine randomness is
      // statistically equivalent (see docs/architecture.md,
      // "Closed-form approximations").
      if (config.pipeline.exact_genuine) {
        filter.OfferExactGenuine(dataset.item_counts, rng);
      } else {
        // One seed drawn from the trial stream keys the sharded
        // filter fan-out, so the trial's draw count — and the filter
        // output — are independent of the shard count.
        filter.OfferSampledGenuineSharded(dataset.item_counts, rng.Next(),
                                          config.pipeline.shards);
      }
      OfferMaliciousReports(t, filter);
      if (filter.kept() > 0) {
        const std::vector<double> detected = filter.Estimate();
        out.mse_detection = Mse(t.true_freqs, detected);
        if (targeted) {
          out.fg_detection =
              FrequencyGain(t.genuine_freqs, detected, t.attack_targets);
        }
      }
    }
  }
  return out;
}

}  // namespace

Status ValidateExperimentInputs(const ExperimentConfig& config,
                                const Dataset& dataset) {
  if (dataset.domain_size() < 2) {
    return InvalidArgumentError("dataset needs a domain of at least 2 items");
  }
  if (dataset.num_users() == 0) {
    return InvalidArgumentError(
        "dataset is empty (zero users): nothing to aggregate");
  }
  if (!(config.epsilon > 0.0)) {  // negated so NaN fails too
    return InvalidArgumentError("epsilon must be > 0");
  }
  if (config.trials < 1 || config.trials > kMaxTrials) {
    return InvalidArgumentError("trials must be in [1, " +
                                std::to_string(kMaxTrials) + "]");
  }
  const PipelineConfig& p = config.pipeline;
  if (!(p.beta >= 0.0 && p.beta < 1.0)) {
    return InvalidArgumentError("beta must be in [0, 1)");
  }
  if (p.attack != AttackKind::kNone) {
    // In doubles, so a beta just below 1 cannot overflow the count.
    const double reports = p.beta * static_cast<double>(dataset.num_users()) /
                           (1.0 - p.beta);
    const double bytes = reports * static_cast<double>(ProtocolReportBytes(
                                       config.protocol, dataset.domain_size()));
    if (bytes > kMaxCraftedReportBytes) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    "the attack's %.3g crafted reports would take %.3g GiB, "
                    "past the %.3g GiB cap: lower beta, n or d",
                    reports, bytes / (1 << 30),
                    kMaxCraftedReportBytes / (1 << 30));
      return InvalidArgumentError(message);
    }
  }
  if (!(config.eta >= 0.0 && std::isfinite(config.eta))) {
    return InvalidArgumentError("eta must be finite and >= 0");
  }
  switch (p.attack) {
    case AttackKind::kMga:
    case AttackKind::kMgaIpa:
      // LDPRecover* splits the malicious mass between the targets and
      // the items outside them (Eq. (30)), so at least one item must
      // stay outside.
      if (p.num_targets < 1 || p.num_targets >= dataset.domain_size()) {
        return InvalidArgumentError(
            "targets must be in [1, domain size - 1] for MGA attacks: "
            "LDPRecover* needs an item outside the targets");
      }
      break;
    case AttackKind::kNone:
    case AttackKind::kManip:
    case AttackKind::kAdaptive:
    case AttackKind::kMultiAdaptive:
      break;
  }
  return Status::Ok();
}

TrialMetrics RunSingleTrial(const ExperimentConfig& config,
                            const Dataset& dataset, uint64_t trial_seed) {
  const std::unique_ptr<FrequencyProtocol> protocol =
      MakeProtocol(config.protocol, dataset.domain_size(), config.epsilon);
  return RunTrialWithProtocol(*protocol, config, dataset, trial_seed);
}

void MergeTrialMetrics(const TrialMetrics& trial, ExperimentResult& result) {
  const auto add = [](const std::optional<double>& value, RunningStat& stat) {
    if (value.has_value()) stat.Add(*value);
  };
  add(trial.mse_before, result.mse_before);
  add(trial.mse_recover, result.mse_recover);
  add(trial.mse_recover_star, result.mse_recover_star);
  add(trial.mse_detection, result.mse_detection);
  add(trial.fg_before, result.fg_before);
  add(trial.fg_recover, result.fg_recover);
  add(trial.fg_recover_star, result.fg_recover_star);
  add(trial.fg_detection, result.fg_detection);
  add(trial.mse_malicious_recover, result.mse_malicious_recover);
  add(trial.mse_malicious_recover_star, result.mse_malicious_recover_star);
}

std::vector<ExperimentResult> RunExperiments(
    const std::vector<ExperimentCell>& cells, size_t threads) {
  if (cells.empty()) return {};
  const size_t trials = cells[0].config->trials;
  LDPR_CHECK(trials >= 1);
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (const ExperimentCell& cell : cells) {
    LDPR_CHECK(cell.config->trials == trials);
    protocols.push_back(MakeProtocol(cell.config->protocol,
                                     cell.dataset->domain_size(),
                                     cell.config->epsilon));
  }

  // Every trial runs on its own counter-derived RNG stream and writes
  // its own slot; the slots merge per cell in trial order below, so
  // the result is bit-identical no matter how trials land on workers.
  // Timing rides along in the slot: wall clocks are machine-dependent,
  // but merging them in trial order keeps the deterministic metrics
  // untouched.
  struct TimedTrial {
    TrialMetrics metrics;
    double seconds = 0;
  };
  const std::vector<TimedTrial> runs = FanOutTrials<TimedTrial>(
      threads, cells.size(), trials,
      [&](size_t c, size_t trial, size_t shards) {
        ExperimentConfig config = *cells[c].config;
        config.pipeline.shards = shards;
        const auto start = std::chrono::steady_clock::now();
        TimedTrial run;
        run.metrics = RunTrialWithProtocol(*protocols[c], config,
                                           *cells[c].dataset,
                                           DeriveSeed(config.seed, trial));
        run.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        return run;
      });

  std::vector<ExperimentResult> results(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    for (size_t trial = 0; trial < trials; ++trial) {
      const TimedTrial& run = runs[c * trials + trial];
      MergeTrialMetrics(run.metrics, results[c]);
      results[c].trial_seconds.Add(run.seconds);
    }
    results[c].users_per_trial = cells[c].dataset->num_users();
  }
  return results;
}

ExperimentResult RunExperiment(const ExperimentConfig& config,
                               const Dataset& dataset) {
  return RunExperiments({{&config, &dataset}}, config.threads)[0];
}

}  // namespace ldpr
