/**
 * @file
 * Portable SIMD set-probe primitives for the tag/key scans on the
 * simulator's hottest paths (cache::Cache, tlb::AssocCache).
 *
 * The tag stores are contiguous lane runs (set-major slabs), so a set
 * probe is "find the first lane equal to a needle in a short array".
 * This header provides exactly that, per lane width:
 *
 *  - find_u8() / find_u32() / find_u64(), and age_below_u8() (LRU rank
 *    aging for cache::Cache): the selected backend;
 *  - the same names with a _scalar suffix: the reference loops, always
 *    compiled, so property tests can compare the vector paths against
 *    them in the same binary.
 *
 * Backend selection is compile-time only: SSE2 is baseline on x86-64 and
 * NEON on AArch64, so no runtime dispatch is needed. Width matters:
 * 32-bit lanes have a native single-instruction compare everywhere
 * (_mm_cmpeq_epi32 / vceqq_u32) and are the layout cache::Cache stores
 * its tags in; 64-bit lanes only vectorize profitably where a native
 * 64-bit compare exists (SSE4.1's _mm_cmpeq_epi64, NEON's vceqq_u64) —
 * emulating it on bare SSE2 measurably *loses* to the well-predicted
 * scalar loop, so plain SSE2 keeps the scalar path for u64. Defining
 * PTM_NO_SIMD (CMake option -DPTM_NO_SIMD=ON) forces the scalar
 * fallback everywhere — CI builds both flavors and the test suite pins
 * them to identical decisions.
 *
 * Contract notes shared by all backends:
 *  - the needle occurs in at most one lane (set invariants guarantee tag
 *    uniqueness), so "first match" and "any match" coincide — but the
 *    implementations still return the first-match index so empty-way
 *    scans (needle = the invalid sentinel, possibly many lanes) behave
 *    identically to the historic scalar loops;
 *  - arrays are unaligned (slab strides are not multiples of the vector
 *    width), so all loads are unaligned loads.
 */
#pragma once

#include <bit>
#include <cstdint>

#if !defined(PTM_NO_SIMD)
#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define PTM_SIMD_SSE2 1
#include <emmintrin.h>
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define PTM_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace ptm::simd {

/// Human-readable backend name (provenance in bench/CI output).
inline constexpr const char *kBackend =
#if defined(PTM_SIMD_SSE2)
    "sse2";
#elif defined(PTM_SIMD_NEON)
    "neon";
#else
    "scalar";
#endif

/// True when a vector backend is active (false under PTM_NO_SIMD or on
/// targets without SSE2/NEON).
inline constexpr bool kVectorized =
#if defined(PTM_SIMD_SSE2) || defined(PTM_SIMD_NEON)
    true;
#else
    false;
#endif

/**
 * Reference scans: index of the first element of keys[0..n) equal to
 * @p needle, or @p n when absent. Always compiled; the vector backends
 * are tested against them.
 */
inline unsigned
find_u32_scalar(const std::uint32_t *keys, unsigned n,
                std::uint32_t needle)
{
    for (unsigned w = 0; w < n; ++w) {
        if (keys[w] == needle)
            return w;
    }
    return n;
}

inline unsigned
find_u64_scalar(const std::uint64_t *keys, unsigned n,
                std::uint64_t needle)
{
    for (unsigned w = 0; w < n; ++w) {
        if (keys[w] == needle)
            return w;
    }
    return n;
}

inline unsigned
find_u8_scalar(const std::uint8_t *keys, unsigned n, std::uint8_t needle)
{
    for (unsigned w = 0; w < n; ++w) {
        if (keys[w] == needle)
            return w;
    }
    return n;
}

/// Every lane of ranks[0..n) below @p rank grows by one: with the
/// touched lane then set to 0, LRU move-to-front on a rank permutation.
inline void
age_below_u8_scalar(std::uint8_t *ranks, unsigned n, std::uint8_t rank)
{
    for (unsigned w = 0; w < n; ++w)
        ranks[w] = static_cast<std::uint8_t>(ranks[w] + (ranks[w] < rank));
}

#if defined(PTM_SIMD_SSE2)

/// SSE2 backend for 32-bit lanes: native _mm_cmpeq_epi32, 8 lanes per
/// iteration (two vectors), one branch per block. An 8-way tag run is a
/// single iteration; a 16-way LLC set is two.
inline unsigned
find_u32(const std::uint32_t *keys, unsigned n, std::uint32_t needle)
{
    const __m128i want = _mm_set1_epi32(static_cast<int>(needle));
    const auto eq_mask = [&want](const std::uint32_t *p) -> unsigned {
        const __m128i eq = _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)), want);
        return static_cast<unsigned>(
            _mm_movemask_ps(_mm_castsi128_ps(eq)));
    };
    unsigned w = 0;
    for (; w + 8 <= n; w += 8) {
        const unsigned mask =
            eq_mask(keys + w) | (eq_mask(keys + w + 4) << 4);
        if (mask)
            return w + static_cast<unsigned>(std::countr_zero(mask));
    }
    if (w + 4 <= n) {
        const unsigned mask = eq_mask(keys + w);
        if (mask)
            return w + static_cast<unsigned>(std::countr_zero(mask));
        w += 4;
    }
    for (; w < n; ++w) {
        if (keys[w] == needle)
            return w;
    }
    return n;
}

/// 64-bit lanes on bare SSE2: the scalar loop. SSE2 has no 64-bit
/// compare; emulating one (paired 32-bit compares + shuffle + mask
/// merge) measured ~30% *slower* end-to-end than the well-predicted
/// scalar early-exit scan on the short runs these probes cover, so the
/// vector u64 path requires a native compare (SSE4.1 / NEON).
#if defined(__SSE4_1__)
inline unsigned
find_u64(const std::uint64_t *keys, unsigned n, std::uint64_t needle)
{
    const __m128i want = _mm_set1_epi64x(static_cast<long long>(needle));
    unsigned w = 0;
    for (; w + 2 <= n; w += 2) {
        const __m128i eq = _mm_cmpeq_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(keys + w)),
            want);
        const unsigned mask = static_cast<unsigned>(
            _mm_movemask_pd(_mm_castsi128_pd(eq)));
        if (mask)
            return w + static_cast<unsigned>(std::countr_zero(mask));
    }
    if (w < n && keys[w] == needle)
        return w;
    return n;
}
#else
inline unsigned
find_u64(const std::uint64_t *keys, unsigned n, std::uint64_t needle)
{
    return find_u64_scalar(keys, n, needle);
}
#endif

#elif defined(PTM_SIMD_NEON)

/// NEON backend for 32-bit lanes: 4 lanes per iteration.
inline unsigned
find_u32(const std::uint32_t *keys, unsigned n, std::uint32_t needle)
{
    const uint32x4_t want = vdupq_n_u32(needle);
    unsigned w = 0;
    for (; w + 4 <= n; w += 4) {
        const uint32x4_t eq = vceqq_u32(vld1q_u32(keys + w), want);
        // Narrow each 32-bit lane to 16 bits and read the four lane
        // masks as one 64-bit value: 16 set bits per matching lane.
        const std::uint64_t mask =
            vget_lane_u64(vreinterpret_u64_u16(vmovn_u32(eq)), 0);
        if (mask)
            return w + static_cast<unsigned>(std::countr_zero(mask)) / 16;
    }
    for (; w < n; ++w) {
        if (keys[w] == needle)
            return w;
    }
    return n;
}

/// NEON backend for 64-bit lanes: native vceqq_u64, 2 lanes per
/// iteration.
inline unsigned
find_u64(const std::uint64_t *keys, unsigned n, std::uint64_t needle)
{
    const uint64x2_t want = vdupq_n_u64(needle);
    unsigned w = 0;
    for (; w + 2 <= n; w += 2) {
        uint64x2_t eq = vceqq_u64(vld1q_u64(keys + w), want);
        // One test for "any lane matched", then lane order decides.
        if (vgetq_lane_u64(vorrq_u64(eq, vextq_u64(eq, eq, 1)), 0)) {
            return vgetq_lane_u64(eq, 0) ? w : w + 1;
        }
    }
    if (w < n && keys[w] == needle)
        return w;
    return n;
}

#else

/// Scalar fallback (PTM_NO_SIMD or no vector ISA): the reference scans.
inline unsigned
find_u32(const std::uint32_t *keys, unsigned n, std::uint32_t needle)
{
    return find_u32_scalar(keys, n, needle);
}

inline unsigned
find_u64(const std::uint64_t *keys, unsigned n, std::uint64_t needle)
{
    return find_u64_scalar(keys, n, needle);
}

#endif

/// 8-bit lanes: 16 per vector compare, then the scalar tail (which
/// cache::Cache's padded rank rows never reach on a vector backend).
inline unsigned
find_u8(const std::uint8_t *keys, unsigned n, std::uint8_t needle)
{
    unsigned w = 0;
#if defined(PTM_SIMD_SSE2)
    const __m128i want = _mm_set1_epi8(static_cast<char>(needle));
    for (; w + 16 <= n; w += 16) {
        const unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(
            _mm_cmpeq_epi8(_mm_loadu_si128(
                               reinterpret_cast<const __m128i *>(keys + w)),
                           want)));
        if (mask)
            return w + static_cast<unsigned>(std::countr_zero(mask));
    }
#elif defined(PTM_SIMD_NEON)
    const uint8x16_t want = vdupq_n_u8(needle);
    for (; w + 16 <= n; w += 16) {
        // Shift-narrow the compare to 4 mask bits per lane, in order.
        const uint8x16_t eq = vceqq_u8(vld1q_u8(keys + w), want);
        const std::uint64_t mask = vget_lane_u64(
            vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)),
            0);
        if (mask)
            return w + static_cast<unsigned>(std::countr_zero(mask)) / 4;
    }
#endif
    return w + find_u8_scalar(keys + w, n - w, needle);
}

/// Vector age_below_u8_scalar. SSE2 has no unsigned byte compare, but
/// rank -sat v is nonzero exactly when v < rank, and its min with 1 is
/// the increment; NEON's vcltq_u8 mask is -1 there, so it subtracts.
inline void
age_below_u8(std::uint8_t *ranks, unsigned n, std::uint8_t rank)
{
    unsigned w = 0;
#if defined(PTM_SIMD_SSE2)
    const __m128i limit = _mm_set1_epi8(static_cast<char>(rank));
    const __m128i one = _mm_set1_epi8(1);
    for (; w + 16 <= n; w += 16) {
        auto *p = reinterpret_cast<__m128i *>(ranks + w);
        const __m128i v = _mm_loadu_si128(p);
        _mm_storeu_si128(
            p, _mm_add_epi8(v, _mm_min_epu8(_mm_subs_epu8(limit, v), one)));
    }
#elif defined(PTM_SIMD_NEON)
    const uint8x16_t limit = vdupq_n_u8(rank);
    for (; w + 16 <= n; w += 16) {
        const uint8x16_t v = vld1q_u8(ranks + w);
        vst1q_u8(ranks + w, vsubq_u8(v, vcltq_u8(v, limit)));
    }
#endif
    age_below_u8_scalar(ranks + w, n - w, rank);
}

}  // namespace ptm::simd
