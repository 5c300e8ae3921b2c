// Portable SIMD abstraction — one vec<double, W> type over AVX-512, AVX2,
// NEON, and a generic array fallback, selected at compile time by the
// TME_SIMD_ARCH build option (see the top-level CMakeLists).
//
// The software reproduction mirrors MDGRAPE-4A's wide arithmetic pipelines
// here: the hot inner loops (short-range pair kernel, B-spline charge
// spreading/gathering, separable axis convolutions) are written once against
// this type and instantiated at two widths — W = kNativeWidth (the "native"
// kernel) and W = 1 (its scalar twin).  The runtime TME_SIMD=scalar|native
// environment knob A/B-switches between the two instantiations behind the
// same function signatures.
//
// Determinism contract (asserted by tests/test_simd.cpp):
//  - every lane op (add/sub/mul/div/sqrt/round/fma/fnma) is the IEEE-754
//    double operation, so per-lane results are bitwise identical to the
//    scalar instantiation executing the same op sequence;
//  - fma() and fnma() are *fused* exactly when kFmaFused is true
//    (hardware-FMA backends), and the W = 1 twin then routes through
//    std::fma, so scalar and native kernels stay bitwise identical per build;
//  - gathers, scatter and left-pack (compress) move bits without arithmetic;
//  - kernels that only combine lane ops with a shared (scalar) accumulation
//    order are therefore bitwise invariant under TME_SIMD.  Horizontal
//    reduce_add uses a fixed pairwise tree — deterministic per W, but a
//    different association than a serial loop; kernels that need bitwise
//    scalar parity must not use it on values that feed results.
//
// Translation units that instantiate kernels at both widths are compiled
// with -ffp-contract=off (set in src/CMakeLists.txt) so the compiler cannot
// fuse a*b+c behind the abstraction's back and break the parity contract.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define TME_SIMD_ISA_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && defined(__FMA__)
#define TME_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__aarch64__)
#define TME_SIMD_ISA_NEON 1
#include <arm_neon.h>
#else
#define TME_SIMD_ISA_GENERIC 1
#endif

namespace tme::simd {

// ---------------------------------------------------------------------------
// Compile-time ISA facts.

#if defined(TME_SIMD_ISA_AVX512)
inline constexpr int kNativeWidth = 8;
inline constexpr bool kFmaFused = true;
inline constexpr const char* kIsaName = "avx512";
#elif defined(TME_SIMD_ISA_AVX2)
inline constexpr int kNativeWidth = 4;
inline constexpr bool kFmaFused = true;
inline constexpr const char* kIsaName = "avx2";
#elif defined(TME_SIMD_ISA_NEON)
inline constexpr int kNativeWidth = 2;
inline constexpr bool kFmaFused = true;
inline constexpr const char* kIsaName = "neon";
#else
// No vector ISA enabled at compile time: the "native" kernel instantiates
// the generic array vec below (plain unfused lane loops the autovectorizer
// may still widen), which is bitwise identical to the scalar twin.
inline constexpr int kNativeWidth = 4;
inline constexpr bool kFmaFused = false;
inline constexpr const char* kIsaName = "generic";
#endif

// ---------------------------------------------------------------------------
// Generic array-backed vec<double, W>: the always-available fallback and the
// W = 1 scalar twin.  Lane ops are written as plain loops; fma honours
// kFmaFused so the twin matches whichever native backend this build carries.

template <typename T, int W>
struct vec;

template <int W>
struct vec<double, W> {
  static_assert(W >= 1);
  static constexpr int width = W;
  std::array<double, W> lane{};

  // Comparison mask: all-ones (true) / all-zeros per lane, stored as double
  // bit patterns so blend() is pure bit logic on every backend.
  struct mask {
    std::array<bool, W> lane{};
  };

  static vec zero() { return vec{}; }
  static vec broadcast(double x) {
    vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = x;
    return v;
  }
  static vec load(const double* p) {
    vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = p[i];
    return v;
  }
  // First `n` lanes from p, remaining lanes zero (masked tail load).
  static vec load_partial(const double* p, int n) {
    vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = i < n ? p[i] : 0.0;
    return v;
  }
  // Lane i reads base[idx[i]].
  static vec gather(const double* base, const std::uint32_t* idx) {
    vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = base[idx[i]];
    return v;
  }
  // Lane i reads base[k[i]]; the lanes of k hold integers in [0, 2^31).
  static vec gather_at(const double* base, vec k) {
    vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = base[static_cast<std::int64_t>(k.lane[i])];
    return v;
  }
  void store(double* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  void store_partial(double* p, int n) const {
    for (int i = 0; i < W && i < n; ++i) p[i] = lane[i];
  }
  double extract(int i) const { return lane[i]; }

  friend vec operator+(vec a, vec b) {
    for (int i = 0; i < W; ++i) a.lane[i] += b.lane[i];
    return a;
  }
  friend vec operator-(vec a, vec b) {
    for (int i = 0; i < W; ++i) a.lane[i] -= b.lane[i];
    return a;
  }
  friend vec operator*(vec a, vec b) {
    for (int i = 0; i < W; ++i) a.lane[i] *= b.lane[i];
    return a;
  }
  friend vec operator/(vec a, vec b) {
    for (int i = 0; i < W; ++i) a.lane[i] /= b.lane[i];
    return a;
  }

  // a*b + c, fused exactly when the build's native backend fuses.
  static vec fma(vec a, vec b, vec c) {
    vec r;
    for (int i = 0; i < W; ++i) {
      if constexpr (kFmaFused) {
        r.lane[i] = std::fma(a.lane[i], b.lane[i], c.lane[i]);
      } else {
        r.lane[i] = a.lane[i] * b.lane[i] + c.lane[i];
      }
    }
    return r;
  }
  // c - a*b, fused exactly when fma() is.
  static vec fnma(vec a, vec b, vec c) {
    vec r;
    for (int i = 0; i < W; ++i) {
      if constexpr (kFmaFused) {
        r.lane[i] = std::fma(-a.lane[i], b.lane[i], c.lane[i]);
      } else {
        r.lane[i] = c.lane[i] - a.lane[i] * b.lane[i];
      }
    }
    return r;
  }

  static vec sqrt(vec a) {
    for (int i = 0; i < W; ++i) a.lane[i] = std::sqrt(a.lane[i]);
    return a;
  }
  // Round to nearest even — the vector twin of std::nearbyint in the default
  // rounding mode (what min_image uses).
  static vec nearbyint(vec a) {
    for (int i = 0; i < W; ++i) a.lane[i] = std::nearbyint(a.lane[i]);
    return a;
  }
  static vec floor(vec a) {
    for (int i = 0; i < W; ++i) a.lane[i] = std::floor(a.lane[i]);
    return a;
  }
  static vec min(vec a, vec b) {
    for (int i = 0; i < W; ++i) a.lane[i] = b.lane[i] < a.lane[i] ? b.lane[i] : a.lane[i];
    return a;
  }
  static vec max(vec a, vec b) {
    for (int i = 0; i < W; ++i) a.lane[i] = a.lane[i] < b.lane[i] ? b.lane[i] : a.lane[i];
    return a;
  }

  static mask cmp_lt(vec a, vec b) {
    mask m;
    for (int i = 0; i < W; ++i) m.lane[i] = a.lane[i] < b.lane[i];
    return m;
  }
  static mask cmp_ge(vec a, vec b) {
    mask m;
    for (int i = 0; i < W; ++i) m.lane[i] = a.lane[i] >= b.lane[i];
    return m;
  }
  static vec blend(mask m, vec a, vec b) {  // lane i: m ? a : b
    vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = m.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }
  // Bit i set iff lane i of the mask is true.
  static unsigned mask_bits(mask m) {
    unsigned bits = 0;
    for (int i = 0; i < W; ++i) bits |= m.lane[i] ? (1u << i) : 0u;
    return bits;
  }

  // Horizontal sum with a fixed pairwise tree (pad odd tails with +0.0):
  // deterministic for a given W, independent of the backend.
  double reduce_add() const {
    std::array<double, W> acc = lane;
    int n = W;
    while (n > 1) {
      const int half = (n + 1) / 2;
      for (int i = 0; i < n / 2; ++i) acc[i] = acc[i] + acc[i + half];
      n = half;
    }
    return acc[0];
  }
};

// ---------------------------------------------------------------------------
// AVX2 specialization: vec<double, 4> on __m256d.

#if defined(TME_SIMD_ISA_AVX2)

template <>
struct vec<double, 4> {
  static constexpr int width = 4;
  __m256d v;

  struct mask {
    __m256d m;  // all-ones / all-zeros per lane
  };

  static vec zero() { return {_mm256_setzero_pd()}; }
  static vec broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static vec load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static vec load_partial(const double* p, int n) {
    const __m256i lane_mask = partial_mask(n);
    return {_mm256_maskload_pd(p, lane_mask)};
  }
  // Masked gathers with an explicit zero source: the plain
  // _mm256_i32gather_pd seeds from _mm256_undefined_pd, which GCC flags
  // -Wmaybe-uninitialized.
  static vec gather(const double* base, const std::uint32_t* idx) {
    const __m128i vindex = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vindex, all_lanes(), 8)};
  }
  static vec gather_at(const double* base, vec k) {
    return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, _mm256_cvttpd_epi32(k.v),
                                     all_lanes(), 8)};
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void store_partial(double* p, int n) const {
    _mm256_maskstore_pd(p, partial_mask(n), v);
  }
  double extract(int i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }

  friend vec operator+(vec a, vec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend vec operator-(vec a, vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend vec operator*(vec a, vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend vec operator/(vec a, vec b) { return {_mm256_div_pd(a.v, b.v)}; }

  static vec fma(vec a, vec b, vec c) { return {_mm256_fmadd_pd(a.v, b.v, c.v)}; }
  static vec fnma(vec a, vec b, vec c) { return {_mm256_fnmadd_pd(a.v, b.v, c.v)}; }
  static vec sqrt(vec a) { return {_mm256_sqrt_pd(a.v)}; }
  static vec nearbyint(vec a) {
    return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }
  static vec floor(vec a) { return {_mm256_floor_pd(a.v)}; }
  static vec min(vec a, vec b) { return {_mm256_min_pd(a.v, b.v)}; }
  static vec max(vec a, vec b) { return {_mm256_max_pd(a.v, b.v)}; }

  static mask cmp_lt(vec a, vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)}; }
  static mask cmp_ge(vec a, vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
  static vec blend(mask m, vec a, vec b) {
    return {_mm256_blendv_pd(b.v, a.v, m.m)};
  }
  static unsigned mask_bits(mask m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m.m));
  }

  double reduce_add() const {
    // Fixed tree matching the generic (0+2, 1+3) then pairwise sum.
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }

 private:
  static __m256i partial_mask(int n) {
    const __m256i iota = _mm256_setr_epi64x(0, 1, 2, 3);
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), iota);
  }
  static __m256d all_lanes() { return _mm256_castsi256_pd(_mm256_set1_epi64x(-1)); }
};

#endif  // TME_SIMD_ISA_AVX2

// ---------------------------------------------------------------------------
// AVX-512 specialization: vec<double, 8> on __m512d with native k-masks.

#if defined(TME_SIMD_ISA_AVX512)

template <>
struct vec<double, 8> {
  static constexpr int width = 8;
  __m512d v;

  struct mask {
    __mmask8 m;
  };

  static vec zero() { return {_mm512_setzero_pd()}; }
  static vec broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static vec load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static vec load_partial(const double* p, int n) {
    const __mmask8 k = static_cast<__mmask8>((1u << n) - 1u);
    return {_mm512_maskz_loadu_pd(k, p)};
  }
  static vec gather(const double* base, const std::uint32_t* idx) {
    // Masked form with an explicit zero source: the plain _mm512_i32gather_pd
    // seeds from _mm512_undefined_pd, which GCC flags -Wmaybe-uninitialized.
    const __m256i vindex = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, vindex, base, 8)};
  }
  static vec gather_at(const double* base, vec k) {
    const __m256i vindex = _mm512_maskz_cvttpd_epi32(0xFF, k.v);
    return {_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, vindex, base, 8)};
  }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  void store_partial(double* p, int n) const {
    _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << n) - 1u), v);
  }
  double extract(int i) const {
    alignas(64) double tmp[8];
    _mm512_store_pd(tmp, v);
    return tmp[i];
  }

  friend vec operator+(vec a, vec b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend vec operator-(vec a, vec b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend vec operator*(vec a, vec b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend vec operator/(vec a, vec b) { return {_mm512_div_pd(a.v, b.v)}; }

  // maskz forms with an all-ones mask throughout: GCC 12's unmasked
  // sqrt/roundscale/min/max expand through _mm512_undefined_pd and trip
  // -Wmaybe-uninitialized (same story as the reduce_add shuffles below).
  static vec fma(vec a, vec b, vec c) { return {_mm512_fmadd_pd(a.v, b.v, c.v)}; }
  static vec fnma(vec a, vec b, vec c) { return {_mm512_fnmadd_pd(a.v, b.v, c.v)}; }
  static vec sqrt(vec a) { return {_mm512_maskz_sqrt_pd(0xFF, a.v)}; }
  static vec nearbyint(vec a) {
    return {_mm512_maskz_roundscale_pd(
        0xFF, a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }
  static vec floor(vec a) {
    return {_mm512_maskz_roundscale_pd(
        0xFF, a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
  }
  static vec min(vec a, vec b) { return {_mm512_maskz_min_pd(0xFF, a.v, b.v)}; }
  static vec max(vec a, vec b) { return {_mm512_maskz_max_pd(0xFF, a.v, b.v)}; }

  static mask cmp_lt(vec a, vec b) {
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ)};
  }
  static mask cmp_ge(vec a, vec b) {
    return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ)};
  }
  static vec blend(mask m, vec a, vec b) {
    return {_mm512_mask_blend_pd(m.m, b.v, a.v)};
  }
  static unsigned mask_bits(mask m) { return static_cast<unsigned>(m.m); }

  double reduce_add() const {
    // Fixed tree (i, i+4) -> (i, i+2) -> (i, i+1), matching the generic vec.
    // Only maskz shuffles: GCC 12's unmasked shuffles, extracts, and even the
    // 512->256 casts expand through _mm512_undefined_pd and trip
    // -Wmaybe-uninitialized.
    const __m512d s4 =
        _mm512_add_pd(v, _mm512_maskz_shuffle_f64x2(0xFF, v, v, 0x4E));
    const __m512d s2 =
        _mm512_add_pd(s4, _mm512_maskz_shuffle_f64x2(0xFF, s4, s4, 0xB1));
    const __m512d s1 = _mm512_add_pd(s2, _mm512_maskz_permute_pd(0xFF, s2, 0x55));
    return _mm512_cvtsd_f64(s1);
  }
};

#endif  // TME_SIMD_ISA_AVX512

// ---------------------------------------------------------------------------
// NEON specialization: vec<double, 2> on float64x2_t.

#if defined(TME_SIMD_ISA_NEON)

template <>
struct vec<double, 2> {
  static constexpr int width = 2;
  float64x2_t v;

  struct mask {
    uint64x2_t m;
  };

  static vec zero() { return {vdupq_n_f64(0.0)}; }
  static vec broadcast(double x) { return {vdupq_n_f64(x)}; }
  static vec load(const double* p) { return {vld1q_f64(p)}; }
  static vec load_partial(const double* p, int n) {
    return n >= 2 ? load(p) : vec{vsetq_lane_f64(n == 1 ? p[0] : 0.0, vdupq_n_f64(0.0), 0)};
  }
  static vec gather(const double* base, const std::uint32_t* idx) {
    float64x2_t r = vdupq_n_f64(0.0);
    r = vsetq_lane_f64(base[idx[0]], r, 0);
    r = vsetq_lane_f64(base[idx[1]], r, 1);
    return {r};
  }
  static vec gather_at(const double* base, vec k) {
    const int64x2_t i = vcvtq_s64_f64(k.v);
    float64x2_t r = vdupq_n_f64(0.0);
    r = vsetq_lane_f64(base[vgetq_lane_s64(i, 0)], r, 0);
    r = vsetq_lane_f64(base[vgetq_lane_s64(i, 1)], r, 1);
    return {r};
  }
  void store(double* p) const { vst1q_f64(p, v); }
  void store_partial(double* p, int n) const {
    if (n >= 2) {
      store(p);
    } else if (n == 1) {
      p[0] = vgetq_lane_f64(v, 0);
    }
  }
  double extract(int i) const {
    return i == 0 ? vgetq_lane_f64(v, 0) : vgetq_lane_f64(v, 1);
  }

  friend vec operator+(vec a, vec b) { return {vaddq_f64(a.v, b.v)}; }
  friend vec operator-(vec a, vec b) { return {vsubq_f64(a.v, b.v)}; }
  friend vec operator*(vec a, vec b) { return {vmulq_f64(a.v, b.v)}; }
  friend vec operator/(vec a, vec b) { return {vdivq_f64(a.v, b.v)}; }

  static vec fma(vec a, vec b, vec c) { return {vfmaq_f64(c.v, a.v, b.v)}; }
  static vec fnma(vec a, vec b, vec c) { return {vfmsq_f64(c.v, a.v, b.v)}; }
  static vec sqrt(vec a) { return {vsqrtq_f64(a.v)}; }
  static vec nearbyint(vec a) { return {vrndnq_f64(a.v)}; }  // round-to-even
  static vec floor(vec a) { return {vrndmq_f64(a.v)}; }
  static vec min(vec a, vec b) { return {vminq_f64(a.v, b.v)}; }
  static vec max(vec a, vec b) { return {vmaxq_f64(a.v, b.v)}; }

  static mask cmp_lt(vec a, vec b) { return {vcltq_f64(a.v, b.v)}; }
  static mask cmp_ge(vec a, vec b) { return {vcgeq_f64(a.v, b.v)}; }
  static vec blend(mask m, vec a, vec b) { return {vbslq_f64(m.m, a.v, b.v)}; }
  static unsigned mask_bits(mask m) {
    return static_cast<unsigned>(vgetq_lane_u64(m.m, 0) & 1) |
           (static_cast<unsigned>(vgetq_lane_u64(m.m, 1) & 1) << 1);
  }

  double reduce_add() const { return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1); }
};

#endif  // TME_SIMD_ISA_NEON

// ---------------------------------------------------------------------------
// Data movement by lane mask: left-pack (compress) and scatter of doubles,
// and the 32-bit index twins for index lists.  `bits` is a mask_bits()-style
// lane mask; bits at or above W are ignored.  These ops move bits and do no
// arithmetic, so the AVX-512 instructions and the lane-by-lane loops every
// other backend runs give identical results.

// Writes the lanes of v whose bit is set, in lane order, to
// out[0, popcount(bits)).  May write all W slots of out.
template <int W>
void compress(const vec<double, W>& v, unsigned bits, double* out) {
#if defined(TME_SIMD_ISA_AVX512)
  if constexpr (W == 8) {
    _mm512_storeu_pd(out, _mm512_maskz_compress_pd(static_cast<__mmask8>(bits), v.v));
    return;
  }
#endif
  alignas(64) double lane[W];
  v.store(lane);
  int m = 0;
  for (int l = 0; l < W; ++l) {
    out[m] = lane[l];
    m += static_cast<int>((bits >> l) & 1u);
  }
}

// compress() for W 32-bit indices: out[0, popcount(bits)) receives the
// idx[l] whose bit is set, in order.  May write all W slots of out.
template <int W>
void compress_index(const std::uint32_t* idx, unsigned bits, std::uint32_t* out) {
#if defined(TME_SIMD_ISA_AVX512)
  if constexpr (W == 8) {
    const __m512i x = _mm512_maskz_loadu_epi32(0xFF, idx);
    _mm512_mask_storeu_epi32(
        out, 0xFF, _mm512_maskz_compress_epi32(static_cast<__mmask16>(bits & 0xFFu), x));
    return;
  }
#endif
  int m = 0;
  for (int l = 0; l < W; ++l) {
    out[m] = idx[l];
    m += static_cast<int>((bits >> l) & 1u);
  }
}

// out[l] = base[idx[l]] for all W lanes (32-bit values by 32-bit indices;
// both below 2^31).
template <int W>
void gather_index(const std::uint32_t* base, const std::uint32_t* idx, std::uint32_t* out) {
#if defined(TME_SIMD_ISA_AVX512) || defined(TME_SIMD_ISA_AVX2)
  if constexpr (W == 8) {
    const __m256i i = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_i32gather_epi32(reinterpret_cast<const int*>(base), i, 4));
    return;
  }
#endif
  for (int l = 0; l < W; ++l) out[l] = base[idx[l]];
}

// base[idx[l]] = lane l of v for each set bit.  The written lanes' indices
// must be distinct.
template <int W>
void scatter(const vec<double, W>& v, double* base, const std::uint32_t* idx,
             unsigned bits) {
#if defined(TME_SIMD_ISA_AVX512)
  if constexpr (W == 8) {
    const __m256i vindex = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    _mm512_mask_i32scatter_pd(base, static_cast<__mmask8>(bits), vindex, v.v, 8);
    return;
  }
#endif
  alignas(64) double lane[W];
  v.store(lane);
  for (int l = 0; l < W; ++l) {
    if ((bits >> l) & 1u) base[idx[l]] = lane[l];
  }
}

using vecd = vec<double, kNativeWidth>;
using vec1d = vec<double, 1>;

// Scalar a*b + c with the same fusion policy as the vec backends — for the
// wrap-around / boundary fallback loops inside vectorized kernels, so every
// element sees the identical operation regardless of which path touched it.
inline double fma1(double a, double b, double c) {
  if constexpr (kFmaFused) {
    return std::fma(a, b, c);
  } else {
    return a * b + c;
  }
}

// ---------------------------------------------------------------------------
// Runtime kernel selection.

// Which instantiation a dispatching kernel runs.
enum class Mode {
  kScalar,  // the W = 1 twin — the A/B baseline
  kNative,  // vec<double, kNativeWidth> on the compile-time ISA
};

// The TME_SIMD=scalar|native environment knob, parsed once per process
// (default native).  Malformed values warn and keep the default.
Mode mode_from_env();

// Name of the compile-time backend: "avx512", "avx2", "neon", or "generic".
const char* active_isa();

// Lane count of the mode's instantiation (1 for kScalar).
int lanes(Mode mode);

// Human-readable mode name ("scalar" / "native").
const char* mode_name(Mode mode);

}  // namespace tme::simd

namespace tme::obs {
class JsonValue;
}

namespace tme::simd {

// {"isa", "native_width", "fma_fused", "mode", "width"} — attached to the
// per-run manifest, every LongRangeSolver::describe(), and BENCH exports so
// artifacts record exactly which kernel instantiations produced them.
obs::JsonValue describe_json(Mode mode = mode_from_env());

}  // namespace tme::simd
