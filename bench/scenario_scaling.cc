// Scaling-law scenarios (beyond the paper): how accuracy and
// wall-time behave as the deployment grows along the two axes the
// paper holds fixed.
//
//   scaling_n — user count n ∈ {1e4 … 1e6} (times --scale) at the
//               default domain size;
//   scaling_d — domain size d ∈ {32 … 4096} at the default user
//               count;
//
// both swept across all five factory protocols under a genuine
// workload and under MGA, on the resizable synthetic zipf/uniform
// generators (the dataset axes resolve by generator name — fixed-
// shape datasets reject overrides).
//
// Expected trends: MSE shrinks ~1/n along the n axis (LDP estimator
// variance) and grows with d for the unary-encoding family; trial
// wall time is ~O(d) for the closed-form aggregation paths plus
// O(beta·n) for materialized malicious reports.  The timing columns
// ("secs/trial", "users/s") are wall-clock measurements and are
// declared in timing_columns, which keeps them out of exact result
// comparisons (`ldpr diff`, the determinism ctest entries).

#include <iterator>

#include "ldp/factory.h"
#include "scenarios.h"

namespace ldpr {
namespace bench {
namespace {

// Shared column layout of both scaling scenarios: accuracy for the
// genuine and MGA workloads plus wall-time/throughput.  Rows carry
// two configs, r[0] = genuine (AttackKind::kNone), r[1] = MGA.
void FillScalingSpec(ScenarioSpec& spec) {
  spec.artifact = "extension";
  spec.protocols.assign(std::begin(kExtendedProtocolKinds),
                        std::end(kExtendedProtocolKinds));
  spec.attacks = {AttackKind::kNone, AttackKind::kMga};
  spec.columns = {"genuine-MSE", "MGA-MSE", "MGA-Rec-MSE", "secs/trial",
                  "users/s"};
  spec.timing_columns = {"secs/trial", "users/s"};
  // Keep the grid focused on recovery + scaling: the Detection and
  // LDPRecover* baselines have their own scenarios (fig3, fig4).
  spec.defaults.run_detection = false;
  spec.defaults.run_star = false;
}

std::vector<double> FormatScalingRow(const std::vector<ExperimentResult>& r) {
  const ExperimentResult& genuine = r[0];
  const ExperimentResult& mga = r[1];
  const double secs =
      genuine.trial_seconds.mean() + mga.trial_seconds.mean();
  const double users =
      static_cast<double>(genuine.users_per_trial + mga.users_per_trial);
  return {genuine.mse_before.mean(), mga.mse_before.mean(),
          mga.mse_recover.mean(), secs, secs > 0 ? users / secs : 0.0};
}

}  // namespace

void RegisterScalingN(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "scaling_n";
  spec.title = "scaling_n: accuracy/throughput scaling with user count";
  spec.metric_desc = "genuine vs MGA accuracy + throughput";
  spec.table_label = "Scaling";
  spec.title_appends_param = true;
  spec.datasets = {"zipf", "uniform"};
  FillScalingSpec(spec);
  spec.sweeps = {{SweepParam::kNumUsers, {1e4, 3e4, 1e5, 3e5, 1e6}}};
  scenario.format_row = FormatScalingRow;
  registry.Register(std::move(scenario));
}

void RegisterScalingD(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "scaling_d";
  spec.title = "scaling_d: accuracy/throughput scaling with domain size";
  spec.metric_desc = "genuine vs MGA accuracy + throughput";
  spec.table_label = "Scaling";
  spec.title_appends_param = true;
  spec.datasets = {"zipf"};
  FillScalingSpec(spec);
  spec.sweeps = {{SweepParam::kDomainSize, {32, 128, 512, 2048, 4096}}};
  scenario.format_row = FormatScalingRow;
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
