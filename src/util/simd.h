// Portable SIMD layer for the batched aggregation kernels.
//
// Three kernels dominate report-heavy aggregation and crafting (see
// docs/architecture.md):
//
//   * column sums over packed unary 0/1 bit rows (OUE/SUE),
//   * the GRR value histogram,
//   * local hashing H_seed(item) = XXH64(item, seed) mod g for OLH/BLH:
//     support counting over report tiles, and the per-seed max load
//     of MGA's seed search (attack/mga.h).
//
// Each kernel ships a scalar reference implementation (always
// compiled, the exact shape of the pre-SIMD per-report code) plus one
// accelerated path: byte-lane accumulation for the unary columns,
// bank-interleaved counting for the histogram, and for local hashing
// the inline split-xxHash + FastMod evaluation of util/hash_family.h,
// with an 8-lane AVX-512 routine on machines that have it: a vpmullq
// xxHash finish, then an exact congruence test of the 64-bit hash
// against each report's bucket for support counting (every g), or an
// exact double-precision `mod g` for MGA's per-seed max loads, which
// then count each bucket over 16 seeds per vector (g <= 64).  The unary
// kernel is one portable C++ loop the compiler vectorizes for the
// baseline ISA; only the AVX-512 local hashing is written in
// intrinsics.  Dispatch follows the running CPU alone (cpuid, at
// first use), and every kernel is bit-exact across backends: support
// counts are integer sums, so regrouped or vectorized accumulation
// yields byte-identical doubles, every hash bucket is the exact
// remainder and every support test the exact congruence
// (tests/report_gen_batch_test.cc locks each kernel to its scalar
// reference on every backend the machine runs).
//
// Setting LDPR_FORCE_SCALAR=1 in the environment pins the scalar
// reference paths — the lever of the `ci_baseline_exact_scalar` ctest
// entry, which proves the scalar result tree identical to ci/baseline
// under `ldpr diff`.

#ifndef LDPR_UTIL_SIMD_H_
#define LDPR_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash_family.h"

namespace ldpr {

/// The kernel implementations dispatch can pick.  kScalar and
/// kPortable run on every machine; kAvx512 (avx512f + avx512dq) needs
/// the running x86 CPU to report it, and adds the 8-lane local-hashing
/// routine to the portable code of the other kernels.  Dispatch picks
/// kAvx512 when it is available and kPortable otherwise.
enum class SimdBackend {
  kScalar,
  kPortable,
  kAvx512,
};

const char* SimdBackendName(SimdBackend backend);

/// The backend every kernel currently dispatches to: the best
/// available one, unless LDPR_FORCE_SCALAR=1 is set in the
/// environment (checked once, at first use) or a test override is
/// active.
SimdBackend ActiveSimdBackend();
const char* ActiveSimdBackendName();

/// True iff the running machine can execute `backend` (kScalar and
/// kPortable always can) — whether or not dispatch picks it.
bool SimdBackendAvailable(SimdBackend backend);

/// Test hooks: pin dispatch to `backend` / restore auto-detection.
/// The caller must only pin backends for which SimdBackendAvailable
/// holds.
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
/// per-report SeededHash loop; a value >= g supports no item.  On
/// kAvx512 every g takes the 8-lane routine.  Intended for report
/// tiles (a few hundred reports) so seeds/values stay L1-resident
/// across the item sweep; any n works.
void SimdOlhSupportAdd(const uint64_t* seeds, const uint32_t* values,
                       size_t n, size_t d, uint32_t g, double* counts);

/// Local hashing of a fixed item set, reduced per seed to its fullest
/// bucket — the per-try work of MGA's OLH/BLH seed search
/// (attack/mga.h), which hashes its r targets under each candidate
/// seed.  The per-item xxHash halves and the `mod g` constants are
/// computed once, at construction, which also fixes the dispatched
/// backend.  MaxLoads is const and keeps its scratch per call, so
/// threads may share one LocalHashBlock.
class LocalHashBlock {
 public:
  /// Hashes `items[0..r)`, r >= 1, into range g >= 1.
  LocalHashBlock(const uint32_t* items, size_t r, uint32_t g);

  /// For each i < n, with c_b = |{ j : H_{seeds[i]}(items[j]) == b }|
  /// (H bit-identical to SeededHash): max_hits[i] = max_b c_b, and
  /// first_bucket[i] = the lowest b with c_b == max_hits[i] — what
  /// std::max_element returns on the count table.  Any n works.
  void MaxLoads(const uint64_t* seeds, size_t n, uint32_t* max_hits,
                uint32_t* first_bucket) const;

 private:
  SimdBackend backend_;
  uint32_t g_;
  FastMod mod_;                   // portable path
  uint64_t fold_;                 // 2^32 mod g: AVX-512 path
  double inv_g_;                  // fl(1/g): AVX-512 path
  std::vector<uint32_t> items_;   // the scalar reference hashes these
  std::vector<uint64_t> round0_;  // XxHash64Round0 of each item
};

/// Test hook: out[i] = x[i] mod g (g >= 1) through the reduction the
/// active backend's max loads use — the exact AVX-512 vector
/// reduction for g < 2^21 on kAvx512, FastMod otherwise.
void SimdReduceModForTest(const uint64_t* x, size_t n, uint32_t g,
                          uint32_t* out);

}  // namespace ldpr

#endif  // LDPR_UTIL_SIMD_H_
