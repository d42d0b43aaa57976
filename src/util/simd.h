// Portable SIMD layer for the batched aggregation kernels.
//
// Three hot kernels dominate report-heavy aggregation (see
// docs/architecture.md):
//
//   * column sums over packed unary 0/1 bit rows (OUE/SUE),
//   * the GRR value histogram,
//   * batched SeededHash evaluation for OLH/BLH report tiles.
//
// Each kernel ships a scalar reference implementation (always
// compiled, the exact shape of the pre-SIMD per-report code) plus
// accelerated paths: AVX2/SSE2 byte-lane accumulation for the unary
// columns, bank-interleaved counting for the histogram, and the
// inline split-xxHash + FastMod evaluation of util/hash_family.h for
// local hashing.  Dispatch is compile-time (only backends the target
// architecture can express are compiled; see the LDPR_SIMD CMake
// option) narrowed at runtime by cpuid, and every kernel is bit-exact
// across backends: support counts are integer sums, so regrouped or
// vectorized accumulation yields byte-identical doubles
// (tests/report_gen_batch_test.cc locks each kernel to its scalar
// reference).
//
// Setting LDPR_FORCE_SCALAR=1 in the environment pins the scalar
// reference paths — the lever the CI determinism job uses to prove
// SIMD-vs-scalar result trees `ldpr_diff --exact`-identical.

#ifndef LDPR_UTIL_SIMD_H_
#define LDPR_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace ldpr {

/// The kernel implementations this build can dispatch to.  kScalar is
/// always available; the others require both compile-time support and
/// (on x86) a runtime cpuid check.
enum class SimdBackend {
  kScalar,
  kSse2,
  kAvx2,
  kNeon,
};

const char* SimdBackendName(SimdBackend backend);

/// The backend every kernel currently dispatches to: the best
/// available one, unless the LDPR_SIMD CMake option pinned or
/// disabled dispatch, LDPR_FORCE_SCALAR=1 is set in the environment
/// (checked once, at first use), or a test override is active.
SimdBackend ActiveSimdBackend();
const char* ActiveSimdBackendName();

/// Test hooks: pin dispatch to `backend` / restore auto-detection.
/// The caller must only pin backends available on the running
/// machine (kScalar always is).
void SetSimdBackendForTest(SimdBackend backend);
void ClearSimdBackendForTest();

// ------------------------------------------------------------------
// Kernels.  All "Add" kernels accumulate into their output (callers
// zero or carry totals); all are bit-exact across backends.

/// Unary column sums, packed rows: for each column v < d, adds the
/// number of rows whose byte row[v] is nonzero to acc[v].  `rows`
/// holds n contiguous d-byte rows.  Requires n < 2^32 per call.
void SimdUnaryColumnsAddPacked(const uint8_t* rows, size_t n, size_t d,
                               uint32_t* acc);

/// GRR value histogram: adds the occurrence count of each value v to
/// hist[v].  Checks every value against d.
void SimdValueHistogramAdd(const uint32_t* values, size_t n, size_t d,
                           uint64_t* hist);

/// Batched OLH/BLH support counting: for each item v < d, adds
/// |{ i : H_{seeds[i]}(v) == values[i] }| to counts[v], where H is
/// the SeededHash family with range g.  Bit-identical to the
/// per-report SeededHash loop.  Intended for report tiles (a few
/// hundred reports) so seeds/values stay L1-resident across the item
/// sweep; any n works.
void SimdOlhSupportAdd(const uint64_t* seeds, const uint32_t* values,
                       size_t n, size_t d, uint32_t g, double* counts);

}  // namespace ldpr

#endif  // LDPR_UTIL_SIMD_H_
