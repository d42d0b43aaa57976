#include "sim/scenario_spec.h"

#include <cstdio>

namespace ldpr {

namespace {

// Display names used in table titles, matching the paper's figures.
std::string DatasetDisplayName(const std::string& name) {
  if (name == "ipums") return "IPUMS";
  if (name == "fire") return "Fire";
  return name;
}

std::string SweepRowLabel(SweepParam param, double value) {
  char buf[48];
  // Dataset axes are integer-valued; "%g" would render 1e6 as
  // "1e+06", which makes a poor join key.
  if (param == SweepParam::kNumUsers || param == SweepParam::kDomainSize) {
    std::snprintf(buf, sizeof(buf), "%s=%llu", SweepParamLabel(param),
                  static_cast<unsigned long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%s=%g", SweepParamLabel(param), value);
  }
  return buf;
}

ExperimentConfig ConfigFromDefaults(const ScenarioSpec& spec,
                                    ProtocolKind protocol, AttackKind attack,
                                    size_t trials, uint64_t seed) {
  ExperimentConfig config;
  config.protocol = protocol;
  config.epsilon = spec.defaults.epsilon;
  config.pipeline.attack = attack;
  config.pipeline.beta = spec.defaults.beta;
  config.pipeline.num_targets = spec.defaults.num_targets;
  config.eta = spec.defaults.eta;
  config.run_detection = spec.defaults.run_detection;
  config.run_star = spec.defaults.run_star;
  config.trials = trials;
  config.seed = seed;
  return config;
}

// Dataset axes re-shape the row's dataset; every other param lands in
// the row's ExperimentConfigs.
bool IsDatasetAxis(SweepParam param) {
  return param == SweepParam::kNumUsers || param == SweepParam::kDomainSize;
}

Status ApplySweepValue(SweepParam param, double value,
                       ExperimentConfig& config) {
  switch (param) {
    case SweepParam::kBeta:
      config.pipeline.beta = value;
      return Status::Ok();
    case SweepParam::kEpsilon:
      config.epsilon = value;
      return Status::Ok();
    case SweepParam::kEta:
      config.eta = value;
      return Status::Ok();
    case SweepParam::kXi:
      return InvalidArgumentError(
          "xi sweeps have no ExperimentConfig lowering (custom scenarios "
          "only)");
    case SweepParam::kNumUsers:
    case SweepParam::kDomainSize:
      return InvalidArgumentError(
          "dataset axes lower to row overrides, not configs");
  }
  return InvalidArgumentError("unknown sweep param");
}

Status ApplyDatasetAxisValue(SweepParam param, double value, LoweredRow& row) {
  if (value < 1.0 || value != static_cast<double>(
                                  static_cast<uint64_t>(value)))
    return InvalidArgumentError(std::string(SweepParamName(param)) +
                                " sweep values must be positive integers");
  if (param == SweepParam::kNumUsers)
    row.n_override = static_cast<uint64_t>(value);
  else
    row.d_override = static_cast<size_t>(value);
  return Status::Ok();
}

}  // namespace

const char* SweepParamName(SweepParam param) {
  switch (param) {
    case SweepParam::kBeta:
      return "beta";
    case SweepParam::kEpsilon:
      return "epsilon";
    case SweepParam::kEta:
      return "eta";
    case SweepParam::kXi:
      return "xi";
    case SweepParam::kNumUsers:
      return "n";
    case SweepParam::kDomainSize:
      return "d";
  }
  return "unknown";
}

const char* SweepParamLabel(SweepParam param) {
  switch (param) {
    case SweepParam::kBeta:
      return "beta";
    case SweepParam::kEpsilon:
      return "eps";
    case SweepParam::kEta:
      return "eta";
    case SweepParam::kXi:
      return "xi";
    case SweepParam::kNumUsers:
      return "n";
    case SweepParam::kDomainSize:
      return "d";
  }
  return "unknown";
}

Status ValidateScenarioSpec(const ScenarioSpec& spec) {
  if (spec.id.empty()) return InvalidArgumentError("scenario id is empty");
  if (spec.title.empty())
    return InvalidArgumentError(spec.id + ": title is empty");
  if (spec.datasets.empty())
    return InvalidArgumentError(spec.id + ": no datasets");
  if (spec.columns.empty())
    return InvalidArgumentError(spec.id + ": no output columns");
  if (!spec.cells.empty() && !spec.sweeps.empty())
    return InvalidArgumentError(spec.id +
                                ": cells and sweeps are mutually exclusive");
  for (const std::string& timing : spec.timing_columns) {
    bool found = false;
    for (const std::string& column : spec.columns) {
      if (column == timing) {
        found = true;
        break;
      }
    }
    if (!found)
      return InvalidArgumentError(spec.id + ": timing column '" + timing +
                                  "' is not a declared column");
  }
  if (spec.custom) return Status::Ok();
  if (spec.cells.empty()) {
    if (spec.protocols.empty())
      return InvalidArgumentError(spec.id + ": no protocols");
    if (spec.attacks.empty())
      return InvalidArgumentError(spec.id + ": no attacks");
  }
  for (const SweepSpec& sweep : spec.sweeps) {
    if (sweep.values.empty())
      return InvalidArgumentError(spec.id + ": empty sweep over " +
                                  SweepParamName(sweep.param));
    if (sweep.param == SweepParam::kXi)
      return InvalidArgumentError(spec.id +
                                  ": xi sweeps require a custom scenario");
  }
  return Status::Ok();
}

StatusOr<LoweredScenario> LowerScenario(const ScenarioSpec& spec,
                                        size_t trials, uint64_t seed) {
  if (spec.custom)
    return InvalidArgumentError(spec.id +
                                ": custom scenarios own their run loop and "
                                "do not lower to a config grid");
  Status valid = ValidateScenarioSpec(spec);
  if (!valid.ok()) return valid;
  if (trials < 1) return InvalidArgumentError(spec.id + ": trials < 1");

  const std::string label =
      spec.table_label.empty() ? spec.artifact : spec.table_label;
  LoweredScenario lowered;

  for (size_t ds = 0; ds < spec.datasets.size(); ++ds) {
    const std::string ds_name = DatasetDisplayName(spec.datasets[ds]);

    if (!spec.cells.empty()) {
      // Explicit (attack, protocol) rows, one table per dataset.
      LoweredTable table;
      table.title = label + " (" + ds_name + "): " + spec.metric_desc;
      table.dataset_index = ds;
      for (const ScenarioCell& cell : spec.cells) {
        LoweredRow row;
        row.label = std::string(AttackKindName(cell.attack)) + "-" +
                    ProtocolKindName(cell.protocol);
        row.configs.push_back(
            ConfigFromDefaults(spec, cell.protocol, cell.attack, trials, seed));
        table.rows.push_back(std::move(row));
        ++lowered.config_count;
      }
      lowered.tables.push_back(std::move(table));
      continue;
    }

    if (spec.sweeps.empty()) {
      // One table per dataset, one row per protocol.
      LoweredTable table;
      table.title = label + " (" + ds_name + "): " + spec.metric_desc;
      table.dataset_index = ds;
      for (ProtocolKind protocol : spec.protocols) {
        LoweredRow row;
        row.label = spec.row_label_prefix + ProtocolKindName(protocol);
        for (AttackKind attack : spec.attacks) {
          row.configs.push_back(
              ConfigFromDefaults(spec, protocol, attack, trials, seed));
          ++lowered.config_count;
        }
        table.rows.push_back(std::move(row));
      }
      lowered.tables.push_back(std::move(table));
      continue;
    }

    // One table per (protocol x sweep), one row per swept value.
    for (ProtocolKind protocol : spec.protocols) {
      for (const SweepSpec& sweep : spec.sweeps) {
        LoweredTable table;
        table.title = label + " (" + ds_name + ", " + spec.protocol_tag +
                      ProtocolKindName(protocol) + spec.protocol_tag_suffix +
                      "): " + spec.metric_desc;
        if (spec.title_appends_param)
          table.title += std::string(" vs ") + SweepParamName(sweep.param);
        table.dataset_index = ds;
        for (double value : sweep.values) {
          LoweredRow row;
          // Dataset axes validate before the label renders: the
          // label's integer cast is only defined for values the
          // override check accepted.
          if (IsDatasetAxis(sweep.param)) {
            Status applied = ApplyDatasetAxisValue(sweep.param, value, row);
            if (!applied.ok()) return applied;
          }
          row.label = SweepRowLabel(sweep.param, value);
          for (AttackKind attack : spec.attacks) {
            ExperimentConfig config =
                ConfigFromDefaults(spec, protocol, attack, trials, seed);
            if (!IsDatasetAxis(sweep.param)) {
              Status applied = ApplySweepValue(sweep.param, value, config);
              if (!applied.ok()) return applied;
            }
            row.configs.push_back(std::move(config));
            ++lowered.config_count;
          }
          table.rows.push_back(std::move(row));
        }
        lowered.tables.push_back(std::move(table));
      }
    }
  }
  return lowered;
}

}  // namespace ldpr
