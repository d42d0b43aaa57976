#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/hash_family.h"
#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define LDPR_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define LDPR_SIMD_NEON 1
#include <arm_neon.h>
#endif

// The LDPR_SIMD CMake option narrows what DetectBackend may pick:
// LDPR_SIMD_MODE 0=off 1=auto 2=avx2 3=sse2 4=neon.  Pinning an
// unavailable backend degrades to scalar (the manifest's `simd` field
// records what actually ran).
#ifndef LDPR_SIMD_MODE
#define LDPR_SIMD_MODE 1
#endif

namespace ldpr {

namespace {

bool ForceScalarEnv() {
  const char* env = std::getenv("LDPR_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

bool Avx2Available() {
#if defined(LDPR_SIMD_X86)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool Sse2Available() {
#if defined(__x86_64__)
  return true;  // baseline of the x86-64 ABI
#elif defined(__i386__)
  return __builtin_cpu_supports("sse2");
#else
  return false;
#endif
}

bool NeonAvailable() {
#if defined(LDPR_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

SimdBackend DetectBackend() {
  if (LDPR_SIMD_MODE == 0 || ForceScalarEnv()) return SimdBackend::kScalar;
  if (LDPR_SIMD_MODE == 2)
    return Avx2Available() ? SimdBackend::kAvx2 : SimdBackend::kScalar;
  if (LDPR_SIMD_MODE == 3)
    return Sse2Available() ? SimdBackend::kSse2 : SimdBackend::kScalar;
  if (LDPR_SIMD_MODE == 4)
    return NeonAvailable() ? SimdBackend::kNeon : SimdBackend::kScalar;
  if (Avx2Available()) return SimdBackend::kAvx2;
  if (Sse2Available()) return SimdBackend::kSse2;
  if (NeonAvailable()) return SimdBackend::kNeon;
  return SimdBackend::kScalar;
}

// -1 = no override; else the pinned SimdBackend.
std::atomic<int> g_backend_override{-1};

}  // namespace

const char* SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kSse2:
      return "sse2";
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

SimdBackend ActiveSimdBackend() {
  static const SimdBackend detected = DetectBackend();
  const int override_value = g_backend_override.load(std::memory_order_relaxed);
  return override_value < 0 ? detected
                            : static_cast<SimdBackend>(override_value);
}

const char* ActiveSimdBackendName() {
  return SimdBackendName(ActiveSimdBackend());
}

void SetSimdBackendForTest(SimdBackend backend) {
  g_backend_override.store(static_cast<int>(backend),
                           std::memory_order_relaxed);
}

void ClearSimdBackendForTest() {
  g_backend_override.store(-1, std::memory_order_relaxed);
}

// ==================================================================
// Unary column sums.
//
// The accelerated paths accumulate nonzero indicators in 8-bit lanes
// (32 columns per AVX2 add, 16 per SSE2/NEON) and widen into the
// 32-bit accumulator every kByteLaneRows rows — before a lane can
// overflow.  min(row[v], 1) turns any nonzero byte into exactly 1,
// matching the scalar `row[v] != 0` indicator bit for bit.

namespace {

constexpr size_t kByteLaneRows = 255;

template <typename RowAt>
void UnaryColumnsScalar(RowAt row_at, size_t n, size_t d, uint32_t* acc) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* row = row_at(i);
    for (size_t v = 0; v < d; ++v) acc[v] += (row[v] != 0);
  }
}

#if defined(LDPR_SIMD_X86)

template <typename RowAt>
void UnaryColumnsSse2(RowAt row_at, size_t n, size_t d, uint32_t* acc) {
  std::vector<uint8_t> acc8(d);
  const __m128i one = _mm_set1_epi8(1);
  for (size_t base = 0; base < n; base += kByteLaneRows) {
    const size_t rows = std::min(n - base, kByteLaneRows);
    std::memset(acc8.data(), 0, d);
    for (size_t i = 0; i < rows; ++i) {
      const uint8_t* row = row_at(base + i);
      size_t v = 0;
      for (; v + 16 <= d; v += 16) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(row + v));
        __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(acc8.data() + v));
        a = _mm_add_epi8(a, _mm_min_epu8(x, one));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(acc8.data() + v), a);
      }
      for (; v < d; ++v) acc8[v] += (row[v] != 0);
    }
    for (size_t v = 0; v < d; ++v) acc[v] += acc8[v];
  }
}

template <typename RowAt>
__attribute__((target("avx2"))) void UnaryColumnsAvx2(RowAt row_at, size_t n,
                                                      size_t d,
                                                      uint32_t* acc) {
  std::vector<uint8_t> acc8(d);
  const __m256i one = _mm256_set1_epi8(1);
  for (size_t base = 0; base < n; base += kByteLaneRows) {
    const size_t rows = std::min(n - base, kByteLaneRows);
    std::memset(acc8.data(), 0, d);
    for (size_t i = 0; i < rows; ++i) {
      const uint8_t* row = row_at(base + i);
      size_t v = 0;
      for (; v + 32 <= d; v += 32) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + v));
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(acc8.data() + v));
        a = _mm256_add_epi8(a, _mm256_min_epu8(x, one));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc8.data() + v), a);
      }
      for (; v < d; ++v) acc8[v] += (row[v] != 0);
    }
    for (size_t v = 0; v < d; ++v) acc[v] += acc8[v];
  }
}

#endif  // LDPR_SIMD_X86

#if defined(LDPR_SIMD_NEON)

template <typename RowAt>
void UnaryColumnsNeon(RowAt row_at, size_t n, size_t d, uint32_t* acc) {
  std::vector<uint8_t> acc8(d);
  const uint8x16_t one = vdupq_n_u8(1);
  for (size_t base = 0; base < n; base += kByteLaneRows) {
    const size_t rows = std::min(n - base, kByteLaneRows);
    std::memset(acc8.data(), 0, d);
    for (size_t i = 0; i < rows; ++i) {
      const uint8_t* row = row_at(base + i);
      size_t v = 0;
      for (; v + 16 <= d; v += 16) {
        const uint8x16_t x = vld1q_u8(row + v);
        uint8x16_t a = vld1q_u8(acc8.data() + v);
        a = vaddq_u8(a, vminq_u8(x, one));
        vst1q_u8(acc8.data() + v, a);
      }
      for (; v < d; ++v) acc8[v] += (row[v] != 0);
    }
    for (size_t v = 0; v < d; ++v) acc[v] += acc8[v];
  }
}

#endif  // LDPR_SIMD_NEON

template <typename RowAt>
void UnaryColumnsDispatch(RowAt row_at, size_t n, size_t d, uint32_t* acc) {
  switch (ActiveSimdBackend()) {
#if defined(LDPR_SIMD_X86)
    case SimdBackend::kAvx2:
      UnaryColumnsAvx2(row_at, n, d, acc);
      return;
    case SimdBackend::kSse2:
      UnaryColumnsSse2(row_at, n, d, acc);
      return;
#endif
#if defined(LDPR_SIMD_NEON)
    case SimdBackend::kNeon:
      UnaryColumnsNeon(row_at, n, d, acc);
      return;
#endif
    default:
      UnaryColumnsScalar(row_at, n, d, acc);
      return;
  }
}

}  // namespace

void SimdUnaryColumnsAddPacked(const uint8_t* rows, size_t n, size_t d,
                               uint32_t* acc) {
  LDPR_CHECK(n < (uint64_t{1} << 32));
  UnaryColumnsDispatch([rows, d](size_t i) { return rows + i * d; }, n, d,
                       acc);
}

// ==================================================================
// GRR value histogram.
//
// A scatter histogram does not vectorize without conflict detection,
// but the MGA report stream concentrates on a handful of targets, so
// the scalar loop stalls on store-to-load forwarding of the same hot
// counter.  The accelerated path interleaves four independent
// 32-bit count banks (one per unrolled lane) and merges them once —
// the same integer total in a different grouping, hence bit-exact.

void SimdValueHistogramAdd(const uint32_t* values, size_t n, size_t d,
                           uint64_t* hist) {
  if (ActiveSimdBackend() == SimdBackend::kScalar) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t v = values[i];
      LDPR_CHECK(v < d);
      ++hist[v];
    }
    return;
  }
  std::vector<uint32_t> banks(4 * d, 0);
  // Flush banks before any 32-bit counter can wrap.
  constexpr size_t kFlushEvery = size_t{1} << 31;
  for (size_t base = 0; base < n; base += kFlushEvery) {
    const size_t count = std::min(n - base, kFlushEvery);
    const uint32_t* chunk = values + base;
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      const uint32_t v0 = chunk[i + 0];
      const uint32_t v1 = chunk[i + 1];
      const uint32_t v2 = chunk[i + 2];
      const uint32_t v3 = chunk[i + 3];
      LDPR_CHECK(v0 < d && v1 < d && v2 < d && v3 < d);
      ++banks[v0];
      ++banks[d + v1];
      ++banks[2 * d + v2];
      ++banks[3 * d + v3];
    }
    for (; i < count; ++i) {
      const uint32_t v = chunk[i];
      LDPR_CHECK(v < d);
      ++banks[v];
    }
    for (size_t v = 0; v < d; ++v) {
      const uint64_t total = uint64_t{banks[v]} + banks[d + v] +
                             banks[2 * d + v] + banks[3 * d + v];
      if (total != 0) hist[v] += total;
    }
    if (base + kFlushEvery < n) std::fill(banks.begin(), banks.end(), 0u);
  }
}

// ==================================================================
// OLH/BLH batched support counting.
//
// The scalar reference evaluates the canonical SeededHash per
// (report, item) pair — an out-of-line XxHash64 call plus a hardware
// modulo.  The accelerated path is the algebraically identical
// split-hash evaluation of util/hash_family.h: the item-only xxHash
// round hoists out of the per-seed loop, the per-seed finish inlines
// to four multiplies, and FastMod strength-reduces `% g` (a mask for
// the power-of-two g of the default OLH/BLH parameterizations).  The
// four-way unrolled loop keeps those multiply chains pipelined.

namespace {

void OlhSupportScalar(const uint64_t* seeds, const uint32_t* values, size_t n,
                      size_t d, uint32_t g, double* counts) {
  constexpr size_t kReportTile = 256;
  for (size_t i0 = 0; i0 < n; i0 += kReportTile) {
    const size_t i1 = std::min(n, i0 + kReportTile);
    for (size_t v = 0; v < d; ++v) {
      uint32_t supported = 0;
      for (size_t i = i0; i < i1; ++i) {
        supported += (SeededHash(seeds[i], g)(v) == values[i]);
      }
      if (supported != 0) counts[v] += static_cast<double>(supported);
    }
  }
}

void OlhSupportFast(const uint64_t* seeds, const uint32_t* values, size_t n,
                    size_t d, uint32_t g, double* counts) {
  const FastMod mod(g);
  constexpr size_t kReportTile = 256;
  uint64_t seed_accs[kReportTile];
  for (size_t i0 = 0; i0 < n; i0 += kReportTile) {
    const size_t tn = std::min(n - i0, kReportTile);
    const uint32_t* tile_values = values + i0;
    for (size_t i = 0; i < tn; ++i)
      seed_accs[i] = XxHash64SeedAcc(seeds[i0 + i]);
    for (size_t v = 0; v < d; ++v) {
      const SeededHashTileEval eval(v, seed_accs, mod);
      uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      size_t i = 0;
      for (; i + 4 <= tn; i += 4) {
        s0 += (eval.Eval(i + 0) == tile_values[i + 0]);
        s1 += (eval.Eval(i + 1) == tile_values[i + 1]);
        s2 += (eval.Eval(i + 2) == tile_values[i + 2]);
        s3 += (eval.Eval(i + 3) == tile_values[i + 3]);
      }
      for (; i < tn; ++i) s0 += (eval.Eval(i) == tile_values[i]);
      const uint32_t supported = s0 + s1 + s2 + s3;
      if (supported != 0) counts[v] += static_cast<double>(supported);
    }
  }
}

}  // namespace

void SimdOlhSupportAdd(const uint64_t* seeds, const uint32_t* values,
                       size_t n, size_t d, uint32_t g, double* counts) {
  if (ActiveSimdBackend() == SimdBackend::kScalar) {
    OlhSupportScalar(seeds, values, n, d, g, counts);
  } else {
    OlhSupportFast(seeds, values, n, d, g, counts);
  }
}

}  // namespace ldpr
