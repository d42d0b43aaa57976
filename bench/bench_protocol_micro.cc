// Engineering micro-benchmarks (google-benchmark): protocol perturb /
// aggregate throughput, closed-form vs exact aggregation sampling,
// the local-hashing kernels per SIMD backend (MGA's OLH/BLH seed
// search, OLH support counting), and the recovery solve itself.  Not a paper figure; quantifies the
// fast-path trade-off of docs/architecture.md ("Closed-form
// approximations").

#include <benchmark/benchmark.h>

#include "attack/mga.h"
#include "data/synthetic.h"
#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "recover/simplex_projection.h"
#include "util/random.h"
#include "util/simd.h"

namespace ldpr {
namespace {

std::unique_ptr<FrequencyProtocol> Proto(int kind, size_t d) {
  return MakeProtocol(static_cast<ProtocolKind>(kind), d, 0.5);
}

// Pinned per-bench seeds (lint R8): each bench gets its own stream so
// adding or reordering benches never perturbs another's inputs.
constexpr uint64_t kPerturbSeed = 1;
constexpr uint64_t kAccumulateSeed = 2;
constexpr uint64_t kSampleSeed = 3;
constexpr uint64_t kExactAggSeed = 4;
constexpr uint64_t kProjectionSeed = 5;
constexpr uint64_t kRecoverSeed = 6;
constexpr uint64_t kCraftSeed = 7;
constexpr uint64_t kOlhSupportSeed = 8;

// Reports per generated / accumulated batch: one flush buffer.
constexpr uint64_t kBatchReports = kBatchFlushReports;

void BM_AppendGenuineReports(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(1));
  const auto proto = Proto(static_cast<int>(state.range(0)), d);
  Rng rng(kPerturbSeed);
  ReportBatch batch;
  ItemId item = 0;
  for (auto _ : state) {
    batch.Clear();
    ReportBatch::Builder builder(batch);
    proto->AppendGenuineReports(item, kBatchReports, rng, builder);
    benchmark::DoNotOptimize(batch.values());
    benchmark::ClobberMemory();
    item = (item + 1) % d;
  }
  state.SetItemsProcessed(state.iterations() * kBatchReports);
}
BENCHMARK(BM_AppendGenuineReports)
    ->ArgsProduct({{0, 1, 2}, {102, 490}})
    ->ArgNames({"protocol", "d"});

void BM_AccumulateSupportsBatch(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(1));
  const auto proto = Proto(static_cast<int>(state.range(0)), d);
  Rng rng(kAccumulateSeed);
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  proto->AppendGenuineReports(0, kBatchReports, rng, builder);
  std::vector<double> counts(d, 0.0);
  for (auto _ : state) {
    proto->AccumulateSupportsBatch(batch, counts);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatchReports);
}
BENCHMARK(BM_AccumulateSupportsBatch)
    ->ArgsProduct({{0, 1, 2}, {102, 490}})
    ->ArgNames({"protocol", "d"});

void BM_SampleSupportCountsFast(benchmark::State& state) {
  const auto proto = Proto(static_cast<int>(state.range(0)), 102);
  const Dataset ds = ScaleDataset(MakeIpumsLike(), 0.1);
  Rng rng(kSampleSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto->SampleSupportCounts(ds.item_counts, rng));
  }
  state.SetItemsProcessed(state.iterations() * ds.num_users());
}
BENCHMARK(BM_SampleSupportCountsFast)
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->ArgNames({"protocol"});

void BM_ExactGenuineAggregation(benchmark::State& state) {
  const auto proto = Proto(static_cast<int>(state.range(0)), 102);
  const Dataset ds = ScaleDataset(MakeIpumsLike(), 0.01);
  Rng rng(kExactAggSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto->ExactSupportCounts(ds.item_counts, rng));
  }
  state.SetItemsProcessed(state.iterations() * ds.num_users());
}
BENCHMARK(BM_ExactGenuineAggregation)
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->ArgNames({"protocol"});

// Pins the SIMD backend named by a benchmark argument (a SimdBackend
// value) for the scope; false, with the run skipped, when the machine
// cannot run it.
class ScopedBenchBackend {
 public:
  ScopedBenchBackend(benchmark::State& state, int64_t backend)
      : backend_(static_cast<SimdBackend>(backend)),
        ok_(SimdBackendAvailable(backend_)) {
    if (ok_) {
      SetSimdBackendForTest(backend_);
      state.SetLabel(SimdBackendName(backend_));
    } else {
      state.SkipWithError("SIMD backend not available on this machine");
    }
  }
  ~ScopedBenchBackend() {
    if (ok_) ClearSimdBackendForTest();
  }
  bool ok() const { return ok_; }

 private:
  SimdBackend backend_;
  bool ok_;
};

constexpr int64_t kScalarArg = static_cast<int64_t>(SimdBackend::kScalar);
constexpr int64_t kPortableArg = static_cast<int64_t>(SimdBackend::kPortable);
constexpr int64_t kAvx2Arg = static_cast<int64_t>(SimdBackend::kAvx2);
constexpr int64_t kAvx512Arg = static_cast<int64_t>(SimdBackend::kAvx512);

// MGA's OLH/BLH seed search (64 tries per report) at the paper's
// d = 102 and r = 10, for epsilon = 0.5 and 1.6 (OLH g = 3 and 6;
// BLH g = 2).
void BM_MgaCraftBatch(benchmark::State& state) {
  const ScopedBenchBackend backend(state, state.range(2));
  if (!backend.ok()) return;
  constexpr size_t kD = 102;
  constexpr size_t kReports = 1024;
  const auto proto =
      MakeProtocol(static_cast<ProtocolKind>(state.range(0)), kD,
                   static_cast<double>(state.range(1)) / 10.0);
  Rng rng(kCraftSeed);
  const MgaAttack attack(MgaAttack::SampleTargets(kD, 10, rng));
  ReportBatch batch;
  for (auto _ : state) {
    batch.Clear();
    ReportBatch::Builder builder(batch);
    attack.CraftBatch(*proto, kReports, rng, builder);
    benchmark::DoNotOptimize(batch.seeds());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kReports);
}
BENCHMARK(BM_MgaCraftBatch)
    ->ArgsProduct({{static_cast<int64_t>(ProtocolKind::kOlh),
                    static_cast<int64_t>(ProtocolKind::kBlh)},
                   {5, 16},
                   {kScalarArg, kPortableArg, kAvx2Arg, kAvx512Arg}})
    ->ArgNames({"protocol", "eps_x10", "backend"});

// SimdOlhSupportAdd over one flush buffer of OLH reports at d = 490.
void BM_OlhSupportAdd(benchmark::State& state) {
  const ScopedBenchBackend backend(state, state.range(1));
  if (!backend.ok()) return;
  constexpr size_t kD = 490;
  const auto olh = MakeProtocol(ProtocolKind::kOlh, kD,
                                static_cast<double>(state.range(0)) / 10.0);
  Rng rng(kOlhSupportSeed);
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  for (ItemId v = 0; v < kBatchReports; ++v)
    olh->AppendGenuineReports(v % kD, 1, rng, builder);
  std::vector<double> counts(kD, 0.0);
  for (auto _ : state) {
    olh->AccumulateSupportsBatch(batch, counts);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatchReports);
}
BENCHMARK(BM_OlhSupportAdd)
    ->ArgsProduct(
        {{5, 16}, {kScalarArg, kPortableArg, kAvx2Arg, kAvx512Arg}})
    ->ArgNames({"eps_x10", "backend"});

void BM_SimplexProjection(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(kProjectionSeed);
  std::vector<double> est(d);
  for (double& x : est) x = rng.UniformDouble() * 0.05 - 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProjectToSimplexKkt(est));
  }
}
BENCHMARK(BM_SimplexProjection)->Arg(102)->Arg(490)->Arg(4096);

void BM_LdpRecoverEndToEnd(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto proto = MakeProtocol(ProtocolKind::kOue, d, 0.5);
  Rng rng(kRecoverSeed);
  std::vector<double> poisoned(d);
  for (double& x : poisoned) x = rng.UniformDouble() * 0.05 - 0.01;
  const LdpRecover recover(*proto);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recover.Recover(poisoned));
  }
}
BENCHMARK(BM_LdpRecoverEndToEnd)->Arg(102)->Arg(490);

}  // namespace
}  // namespace ldpr

BENCHMARK_MAIN();
