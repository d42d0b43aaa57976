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

namespace ldpr {

namespace {

bool ForceScalarEnv() {
  const char* env = std::getenv("LDPR_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

// avx512f + avx512dq (vpmullq, vcvtuqq2pd); libgcc's cpuid probe also
// checks that the OS saves the zmm state.
bool Avx512Available() {
#if defined(LDPR_SIMD_X86)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

// -1 = no override; else the pinned SimdBackend.
std::atomic<int> g_backend_override{-1};

}  // namespace

const char* SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kPortable:
      return "portable";
    case SimdBackend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdBackendAvailable(SimdBackend backend) {
  return backend != SimdBackend::kAvx512 || Avx512Available();
}

SimdBackend ActiveSimdBackend() {
  static const SimdBackend detected =
      ForceScalarEnv()    ? SimdBackend::kScalar
      : Avx512Available() ? SimdBackend::kAvx512
                          : SimdBackend::kPortable;
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
// The accelerated path counts nonzero bytes in 8-bit lanes and widens
// them into the 32-bit accumulator every kByteLaneRows rows — before a
// lane can overflow.  It is one plain loop the compiler vectorizes for
// the baseline ISA, shared by kPortable and kAvx512.  `row[v] != 0` is
// the scalar reference's indicator, so it matches it bit for bit.

namespace {

constexpr size_t kByteLaneRows = 255;

void UnaryColumnsScalar(const uint8_t* rows, size_t n, size_t d,
                        uint32_t* acc) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* row = rows + i * d;
    for (size_t v = 0; v < d; ++v) acc[v] += (row[v] != 0);
  }
}

void UnaryColumnsByteLanes(const uint8_t* rows, size_t n, size_t d,
                           uint32_t* acc) {
  std::vector<uint8_t> lane_buffer(d);
  uint8_t* __restrict lanes = lane_buffer.data();
  for (size_t base = 0; base < n; base += kByteLaneRows) {
    const size_t tile = std::min(n - base, kByteLaneRows);
    std::memset(lanes, 0, d);
    for (size_t i = 0; i < tile; ++i) {
      const uint8_t* __restrict row = rows + (base + i) * d;
      for (size_t v = 0; v < d; ++v) lanes[v] += (row[v] != 0);
    }
    for (size_t v = 0; v < d; ++v) acc[v] += lanes[v];
  }
}

}  // namespace

void SimdUnaryColumnsAddPacked(const uint8_t* rows, size_t n, size_t d,
                               uint32_t* acc) {
  LDPR_CHECK(n < (uint64_t{1} << 32));
  if (ActiveSimdBackend() == SimdBackend::kScalar) {
    UnaryColumnsScalar(rows, n, d, acc);
  } else {
    UnaryColumnsByteLanes(rows, n, d, acc);
  }
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
// Local hashing (OLH/BLH): H_seed(item) = XXH64(item, seed) mod g.
//
// Three implementations, bit-identical:
//
//  * scalar — the canonical SeededHash per (seed, item) pair, an
//    out-of-line XxHash64 call plus a hardware modulo;
//  * portable — the split evaluation of util/hash_family.h: the
//    item-only xxHash round hoists out of the per-seed loop, the
//    per-seed finish inlines to four multiplies, and FastMod
//    strength-reduces `% g`;
//  * AVX-512 — the same split finish on 8 seeds at once (vpmullq).
//    Support counting never forms H: each lane tests whether the
//    64-bit hash h is congruent to the report's bucket b (mod g),
//    which is exact for every 32-bit g.  MGA's max loads need the
//    bucket itself and take an exact vector `mod g` when g <=
//    kAvx512MaxCountG (larger g takes the portable path).
//
// The congruence test (Granlund & Montgomery, PLDI 1994).  A
// power-of-two g is a mask: h & (g - 1) == b.  Otherwise write
// g = 2^s·o with o odd, inv = o^-1 mod 2^64 and L = floor((2^64-1)/g);
// products and differences are taken mod 2^64.  For b < g,
//     h ≡ b (mod g)  <=>  h >= b  and  ror_s((h - b)·inv) <= L.
// h >= b is necessary: h < b < g means h mod g = h != b.  Given it,
// x = h - b does not wrap, and g divides x iff ror_s(x·inv) <= L:
//  * if 2^s does not divide x, it does not divide x·inv either (inv
//    is odd), so nonzero low bits rotate into the top s bits and
//    ror_s(x·inv) >= 2^(64-s) > L;
//  * if x = 2^s·x', then ror_s(x·inv) = x'·inv mod 2^(64-s).
//    Multiplying by inv permutes the residues mod 2^(64-s) and maps
//    the multiples k·o below 2^(64-s) to k, so they fill exactly
//    [0, floor((2^(64-s) - 1)/o)] = [0, L]: x'·inv mod 2^(64-s) <= L
//    iff o divides x'.
// Every b is the residue of some h, so no padding bucket is safe: a
// lane past the last report, or with b >= g (a bucket no hash
// reaches), is masked off instead.
//
// The exact vector `mod g` of MGA's max loads, g < kAvx512MaxG.  A
// power-of-two g is a mask.  Otherwise, with h = 2^32·hi + lo and
// c = 2^32 mod g,
//     y = hi·c + lo ≡ h (mod g),  0 <= y <= (2^32 - 1)·g < 2^53,
// so y converts to a double exactly.  With u = 2^-53, fl(1/g) and the
// product each add a relative error of at most u, so
// |fl(y·fl(1/g)) - y/g| <= (y/g)·(2u + u^2) < 2^32·2^-51 < 1, and
// q = floor(fl(y·fl(1/g))) is floor(y/g) - 1, floor(y/g) or
// floor(y/g) + 1 — and below 2^32, since y/g <= 2^32 - 1.
// r = y - q·g is then exact in 64-bit integer arithmetic and lies in
// [-g, 2g): one correction on each side gives y mod g = h mod g.

namespace {

constexpr size_t kReportTile = 256;

// 64-bit lanes of one __m512i: the seeds or reports the AVX-512
// routines hash at once.
constexpr size_t kLanes = 8;

// 2^32 mod g, the fold constant of the AVX-512 reduction.
uint64_t Fold32(uint32_t g) { return (uint64_t{1} << 32) % g; }

void OlhSupportScalar(const uint64_t* seeds, const uint32_t* values, size_t n,
                      size_t d, uint32_t g, double* counts) {
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

void OlhSupportPortable(const uint64_t* seeds, const uint32_t* values,
                        size_t n, size_t d, uint32_t g, double* counts) {
  const FastMod mod(g);
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

// LocalHashBlock::MaxLoads off AVX-512.  hasher(i) returns seed i's
// bucket_of(j), item j's bucket.  The max and its lowest bucket rise
// as each count grows — a bucket reaches the final max exactly when
// its count first equals it — and only the touched counts are
// cleared, so a seed costs O(r) whatever g is.
template <typename SeedHasher>
void MaxLoadsByCounting(size_t n, size_t r, uint32_t g,
                        const SeedHasher& hasher, uint32_t* max_hits,
                        uint32_t* first_bucket) {
  std::vector<uint32_t> scratch(size_t{g} + r);
  uint32_t* counts = scratch.data();
  uint32_t* buckets = counts + g;
  for (size_t i = 0; i < n; ++i) {
    const auto bucket_of = hasher(i);
    uint32_t best = 0;
    uint32_t first = 0;
    for (size_t j = 0; j < r; ++j) {
      const uint32_t b = bucket_of(j);
      buckets[j] = b;
      const uint32_t c = ++counts[b];
      if (c > best || (c == best && b < first)) {
        best = c;
        first = b;
      }
    }
    for (size_t j = 0; j < r; ++j) counts[buckets[j]] = 0;
    max_hits[i] = best;
    first_bucket[i] = first;
  }
}

#if defined(LDPR_SIMD_X86)

// The AVX-512 `mod g` needs (2^32 - 1)·g < 2^53.
constexpr uint32_t kAvx512MaxG = uint32_t{1} << 21;

// The AVX-512 max-load counter compares every bucket against every
// hashed target, r·g compares per 16 seeds; up to this g that beats
// the portable path's scalar hashing and scattered increments.
constexpr uint32_t kAvx512MaxCountG = 64;

// Targets hashed per stack tile by the AVX-512 max-load counter.
constexpr size_t kTargetTile = 32;

// o^-1 mod 2^64 for odd o, by Newton's iteration: o·o ≡ 1 (mod 8), and
// each step doubles the number of correct low bits (3, 6, ..., 96).
uint64_t InverseOdd(uint64_t o) {
  uint64_t inv = o;
  for (int i = 0; i < 5; ++i) inv *= 2 - o * inv;
  return inv;
}

#define LDPR_AVX512 __attribute__((target("avx512f,avx512dq")))

// GCC 12's AVX-512 intrinsics seed their unused pass-through operand
// with a self-initialized placeholder that -Wmaybe-uninitialized
// flags once inlined (GCC bug 105593, fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

LDPR_AVX512 inline __m512i Broadcast(uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

// Lane-broadcast constants of the exact `mod g`, g < kAvx512MaxG.
struct Avx512Mod {
  bool pow2;
  __m512i mask;  // g - 1
  __m512i fold;  // 2^32 mod g
  __m512i g;
  __m512d inv_g;  // fl(1/g)
};

LDPR_AVX512 inline Avx512Mod MakeAvx512Mod(uint32_t g, uint64_t fold,
                                           double inv_g) {
  Avx512Mod mod;
  mod.pow2 = (g & (g - 1)) == 0;
  mod.mask = Broadcast(g - 1);
  mod.fold = Broadcast(fold);
  mod.g = Broadcast(g);
  mod.inv_g = _mm512_set1_pd(inv_g);
  return mod;
}

// h mod g in every lane: the exact reduction of the section comment.
LDPR_AVX512 inline __m512i Reduce8(__m512i h, const Avx512Mod& mod) {
  if (mod.pow2) return _mm512_and_si512(h, mod.mask);
  const __m512i y = _mm512_add_epi64(
      _mm512_mul_epu32(_mm512_srli_epi64(h, 32), mod.fold),
      _mm512_and_si512(h, Broadcast(0xffffffffu)));
  const __m512i q = _mm512_cvt_roundpd_epu64(
      _mm512_mul_pd(_mm512_cvtepu64_pd(y), mod.inv_g),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  // q < 2^32, so the 32x32-bit multiply forms q·g exactly.  Each
  // correction is an unsigned min that keeps whichever operand is in
  // range: r + g for a negative (wrapped) r, r - g for r >= g.
  __m512i rem = _mm512_sub_epi64(y, _mm512_mul_epu32(q, mod.g));
  rem = _mm512_min_epu64(rem, _mm512_add_epi64(rem, mod.g));
  return _mm512_min_epu64(rem, _mm512_sub_epi64(rem, mod.g));
}

// The 8-lane routine: XXH64(item, seed) for 8 seeds, given the seeds'
// XxHash64SeedAcc lanes and the item's broadcast XxHash64Round0 —
// XxHash64Key8WithRound0 lane for lane.  The last xorshift's h >> 32
// is a dword shuffle, which runs on port 5, not on the ports where the
// 512-bit multiplies and shifts queue.
LDPR_AVX512 inline __m512i XxHash8(__m512i seed_acc, __m512i round0) {
  using namespace xxhash_detail;
  __m512i h = _mm512_rol_epi64(_mm512_xor_si512(seed_acc, round0), 27);
  h = _mm512_add_epi64(_mm512_mullo_epi64(h, Broadcast(kPrime1)),
                       Broadcast(kPrime4));
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
  h = _mm512_mullo_epi64(h, Broadcast(kPrime2));
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 29));
  h = _mm512_mullo_epi64(h, Broadcast(kPrime3));
  return _mm512_xor_si512(
      h, _mm512_maskz_shuffle_epi32(0x5555, h, _MM_PERM_DDBB));
}

// Lane-broadcast constants of the congruence test, g = 2^s·o, o odd.
struct Avx512Congruence {
  __m512i mask;   // g - 1, for a power-of-two g
  __m512i inv;    // o^-1 mod 2^64
  __m512i shift;  // s
  __m512i limit;  // floor((2^64 - 1) / g)
};

// The lanes of `live` whose hash h is congruent to their bucket b mod
// g: the test of the section comment, which needs b < g in every live
// lane.
template <bool kPow2>
LDPR_AVX512 inline __mmask8 Supports8(__m512i h, __m512i b, __mmask8 live,
                                      const Avx512Congruence& c) {
  if (kPow2) {
    return _mm512_mask_cmpeq_epi64_mask(live, _mm512_and_si512(h, c.mask), b);
  }
  const __mmask8 at_least_b = _mm512_mask_cmpge_epu64_mask(live, h, b);
  const __m512i rotated = _mm512_rorv_epi64(
      _mm512_mullo_epi64(_mm512_sub_epi64(h, b), c.inv), c.shift);
  return _mm512_mask_cmple_epu64_mask(at_least_b, rotated, c.limit);
}

// `supported` plus one in each lane whose report supports the item
// with XxHash64Round0 `round0`.
template <bool kPow2>
LDPR_AVX512 inline __m512i CountSupports8(__m512i supported, __m512i seed_acc,
                                          __m512i b, __mmask8 live,
                                          __m512i round0,
                                          const Avx512Congruence& c) {
  return _mm512_mask_add_epi64(
      supported, Supports8<kPow2>(XxHash8(seed_acc, round0), b, live, c),
      supported, Broadcast(1));
}

// *count += the lane sum of `supported`.
LDPR_AVX512 inline void AddSupport(__m512i supported, double* count) {
  const long long total = _mm512_reduce_add_epi64(supported);
  if (total != 0) *count += static_cast<double>(total);
}

// The support kernel over 256-report tiles.  Each tile stores its seed
// accumulators, buckets and live-lane masks once; the item sweep then
// hashes two items per pass over it, loading each vector of seeds and
// buckets once per pair.
template <bool kPow2>
LDPR_AVX512 void OlhSupportTiles(const uint64_t* seeds, const uint32_t* values,
                                 size_t n, size_t d, uint32_t g,
                                 const Avx512Congruence& c, double* counts) {
  const uint64_t seed_acc_offset = XxHash64SeedAcc(0);
  alignas(64) uint64_t tile_accs[kReportTile];
  alignas(64) uint64_t tile_values[kReportTile];
  __mmask8 live[kReportTile / kLanes] = {};
  for (size_t i0 = 0; i0 < n; i0 += kReportTile) {
    const size_t tn = std::min(n - i0, kReportTile);
    const size_t vectors = (tn + kLanes - 1) / kLanes;
    // The lanes past tn hold zeros only so that they are defined; the
    // live masks keep them, and buckets no hash reaches, from counting.
    std::fill(live, live + vectors, __mmask8{0});
    for (size_t i = 0; i < vectors * kLanes; ++i) {
      const bool real = i < tn;
      tile_accs[i] = real ? seeds[i0 + i] + seed_acc_offset : 0;
      tile_values[i] = real ? values[i0 + i] : 0;
      if (real && values[i0 + i] < g)
        live[i / kLanes] |= static_cast<__mmask8>(1u << (i % kLanes));
    }
    size_t v = 0;
    for (; v + 2 <= d; v += 2) {
      const __m512i round0_a = Broadcast(XxHash64Round0(v));
      const __m512i round0_b = Broadcast(XxHash64Round0(v + 1));
      __m512i supported_a = _mm512_setzero_si512();
      __m512i supported_b = _mm512_setzero_si512();
      for (size_t j = 0; j < vectors; ++j) {
        const __m512i seed_acc = _mm512_load_si512(tile_accs + j * kLanes);
        const __m512i b = _mm512_load_si512(tile_values + j * kLanes);
        supported_a = CountSupports8<kPow2>(supported_a, seed_acc, b,
                                            live[j], round0_a, c);
        supported_b = CountSupports8<kPow2>(supported_b, seed_acc, b,
                                            live[j], round0_b, c);
      }
      AddSupport(supported_a, counts + v);
      AddSupport(supported_b, counts + v + 1);
    }
    if (v < d) {
      const __m512i round0 = Broadcast(XxHash64Round0(v));
      __m512i supported = _mm512_setzero_si512();
      for (size_t j = 0; j < vectors; ++j) {
        const __m512i seed_acc = _mm512_load_si512(tile_accs + j * kLanes);
        const __m512i b = _mm512_load_si512(tile_values + j * kLanes);
        supported = CountSupports8<kPow2>(supported, seed_acc, b, live[j],
                                          round0, c);
      }
      AddSupport(supported, counts + v);
    }
  }
}

LDPR_AVX512 void OlhSupportAvx512(const uint64_t* seeds,
                                  const uint32_t* values, size_t n, size_t d,
                                  uint32_t g, double* counts) {
  const int s = __builtin_ctz(g);
  const uint64_t o = uint64_t{g} >> s;
  Avx512Congruence c;
  c.mask = Broadcast(g - 1);
  c.inv = Broadcast(InverseOdd(o));
  c.shift = Broadcast(static_cast<uint64_t>(s));
  c.limit = Broadcast(~uint64_t{0} / g);
  if (o == 1) {
    OlhSupportTiles<true>(seeds, values, n, d, g, c, counts);
  } else {
    OlhSupportTiles<false>(seeds, values, n, d, g, c, counts);
  }
}

// The 32-bit buckets of the item with XxHash64Round0 `round0` under 8
// seeds.
LDPR_AVX512 inline __m256i Buckets8(__m512i seed_acc, uint64_t round0,
                                    const Avx512Mod& mod) {
  return _mm512_cvtepi64_epi32(
      Reduce8(XxHash8(seed_acc, Broadcast(round0)), mod));
}

// LocalHashBlock::MaxLoads on AVX-512, g <= kAvx512MaxCountG, for 16
// seeds per pass.  Each target's buckets under the 16 seeds — two
// 8-lane hashes — are stored with one aligned 512-bit store, which the
// bucket loop reloads whole, so every load forwards from a single
// store.  Each bucket b is then counted with one compare per target,
// and the running max and its lowest bucket stay in registers:
// scanning b upward and taking b only on a strict rise keeps
// max_element's choice.  r past one tile carries the per-bucket counts
// of the earlier tiles in a stack table.
LDPR_AVX512 void MaxLoadsAvx512(const uint64_t* seeds, size_t n,
                                const uint64_t* round0, size_t r, uint32_t g,
                                uint64_t fold, double inv_g,
                                uint32_t* max_hits, uint32_t* first_bucket) {
  constexpr size_t kSeeds = 2 * kLanes;
  const Avx512Mod mod = MakeAvx512Mod(g, fold, inv_g);
  const __m512i seed_acc_offset = Broadcast(XxHash64SeedAcc(0));
  const __m512i one = _mm512_set1_epi32(1);
  alignas(64) uint32_t tile[kTargetTile * kSeeds];
  alignas(64) uint32_t carried[kAvx512MaxCountG * kSeeds];
  for (size_t i0 = 0; i0 < n; i0 += kSeeds) {
    const size_t sn = std::min(n - i0, kSeeds);
    const __mmask16 live = static_cast<__mmask16>((1u << sn) - 1);
    const __m512i acc_lo = _mm512_add_epi64(
        _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live), seeds + i0),
        seed_acc_offset);
    const __m512i acc_hi = _mm512_add_epi64(
        _mm512_maskz_loadu_epi64(static_cast<__mmask8>(live >> kLanes),
                                 seeds + i0 + kLanes),
        seed_acc_offset);
    __m512i best = _mm512_setzero_si512();
    __m512i first = _mm512_setzero_si512();
    for (size_t j0 = 0; j0 < r; j0 += kTargetTile) {
      const size_t tn = std::min(r - j0, kTargetTile);
      const bool carry_in = j0 != 0;
      const bool carry_out = j0 + tn < r;
      for (size_t j = 0; j < tn; ++j) {
        _mm512_store_si512(
            tile + j * kSeeds,
            _mm512_inserti64x4(
                _mm512_castsi256_si512(Buckets8(acc_lo, round0[j0 + j], mod)),
                Buckets8(acc_hi, round0[j0 + j], mod), 1));
      }
      for (uint32_t b = 0; b < g; ++b) {
        const __m512i bucket = _mm512_set1_epi32(static_cast<int>(b));
        __m512i count = _mm512_setzero_si512();
        for (size_t j = 0; j < tn; ++j) {
          const __mmask16 eq = _mm512_cmpeq_epi32_mask(
              _mm512_load_si512(tile + j * kSeeds), bucket);
          count = _mm512_mask_add_epi32(count, eq, count, one);
        }
        uint32_t* carry = carried + b * kSeeds;
        if (carry_in) count = _mm512_add_epi32(count, _mm512_load_si512(carry));
        if (carry_out) {
          _mm512_store_si512(carry, count);
          continue;
        }
        const __mmask16 rises = _mm512_cmpgt_epu32_mask(count, best);
        first = _mm512_mask_mov_epi32(first, rises, bucket);
        best = _mm512_max_epu32(best, count);
      }
    }
    _mm512_mask_storeu_epi32(max_hits + i0, live, best);
    _mm512_mask_storeu_epi32(first_bucket + i0, live, first);
  }
}

LDPR_AVX512 void ReduceModAvx512(const uint64_t* x, size_t n, uint32_t g,
                                 uint32_t* out) {
  const Avx512Mod mod = MakeAvx512Mod(g, Fold32(g), 1.0 / g);
  alignas(64) uint64_t lanes[kLanes];
  for (size_t i0 = 0; i0 < n; i0 += kLanes) {
    const size_t tn = std::min(n - i0, kLanes);
    for (size_t k = 0; k < kLanes; ++k) lanes[k] = k < tn ? x[i0 + k] : 0;
    _mm512_store_si512(lanes, Reduce8(_mm512_load_si512(lanes), mod));
    for (size_t k = 0; k < tn; ++k) out[i0 + k] = static_cast<uint32_t>(lanes[k]);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#undef LDPR_AVX512

#endif  // LDPR_SIMD_X86

}  // namespace

void SimdOlhSupportAdd(const uint64_t* seeds, const uint32_t* values,
                       size_t n, size_t d, uint32_t g, double* counts) {
  const SimdBackend backend = ActiveSimdBackend();
  if (backend == SimdBackend::kScalar) {
    OlhSupportScalar(seeds, values, n, d, g, counts);
    return;
  }
#if defined(LDPR_SIMD_X86)
  if (backend == SimdBackend::kAvx512) {
    OlhSupportAvx512(seeds, values, n, d, g, counts);
    return;
  }
#endif
  OlhSupportPortable(seeds, values, n, d, g, counts);
}

void SimdReduceModForTest(const uint64_t* x, size_t n, uint32_t g,
                          uint32_t* out) {
  LDPR_CHECK(g >= 1);
#if defined(LDPR_SIMD_X86)
  if (ActiveSimdBackend() == SimdBackend::kAvx512 && g < kAvx512MaxG) {
    ReduceModAvx512(x, n, g, out);
    return;
  }
#endif
  const FastMod mod(g);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint32_t>(mod(x[i]));
}

LocalHashBlock::LocalHashBlock(const uint32_t* items, size_t r, uint32_t g)
    : backend_(ActiveSimdBackend()),
      g_(g),
      mod_(g),
      fold_(Fold32(g)),
      inv_g_(1.0 / g),
      items_(items, items + r) {
  LDPR_CHECK(g >= 1);
  round0_.reserve(r);
  for (uint32_t item : items_) round0_.push_back(XxHash64Round0(item));
}

void LocalHashBlock::MaxLoads(const uint64_t* seeds, size_t n,
                              uint32_t* max_hits,
                              uint32_t* first_bucket) const {
  const size_t r = items_.size();
#if defined(LDPR_SIMD_X86)
  if (backend_ == SimdBackend::kAvx512 && g_ <= kAvx512MaxCountG) {
    MaxLoadsAvx512(seeds, n, round0_.data(), r, g_, fold_, inv_g_, max_hits,
                   first_bucket);
    return;
  }
#endif
  if (backend_ == SimdBackend::kScalar) {
    MaxLoadsByCounting(
        n, r, g_,
        [&](size_t i) {
          const SeededHash hash(seeds[i], g_);
          return [this, hash](size_t j) { return hash(items_[j]); };
        },
        max_hits, first_bucket);
    return;
  }
  MaxLoadsByCounting(
      n, r, g_,
      [&](size_t i) {
        const uint64_t seed_acc = XxHash64SeedAcc(seeds[i]);
        return [this, seed_acc](size_t j) {
          return static_cast<uint32_t>(
              mod_(XxHash64Key8WithRound0(round0_[j], seed_acc)));
        };
      },
      max_hits, first_bucket);
}

}  // namespace ldpr
