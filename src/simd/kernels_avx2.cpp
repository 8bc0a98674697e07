// AVX2 kernels: the x86-64 vector level. The table starts from the scalar
// one and re-implements every kernel_list.def row, 8 floats or 4 doubles
// wide.
//
// Bit-identity with the scalar reference, kernel by kernel:
//  - box_blur_h puts independent streams in lanes, replaying the scalar
//    op sequence per lane (widening with cvtps_pd and narrowing with
//    cvtpd_ps, the same conversions the reference's casts perform);
//  - box_muller_f64 replays the reference's log/sin/cos op sequence four
//    pairs wide: the same IEEE adds, multiplies, divide and sqrt in the
//    same order, integer lane ops for the exponent split and quadrant, and
//    sign-bit xor for the reference's negations.
// Every claim above is enforced by the differential fuzzer in
// tests/simd/test_kernel_parity.cpp.
//
// This file is compiled with -mavx2 (see src/simd/CMakeLists.txt) and its
// functions are only reachable after a runtime CPUID check in dispatch.cpp.

#include "simd/kernels_internal.hpp"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace inframe::simd {
// File-local: reached only through the table built below.
namespace {
namespace avx2 {

void box_blur_h(const float* const* src, float* const* dst, int lanes, int width, int stride,
                int radius)
{
    const float norm = 1.0f / static_cast<float>(2 * radius + 1);
    const __m256 vnorm = _mm256_set1_ps(norm);
    int lane = 0;
    for (; lane + 8 <= lanes; lane += 8) {
        const float* const* in = src + lane;
        float* const* out = dst + lane;
        auto gather = [&](int x) {
            const std::ptrdiff_t o = static_cast<std::ptrdiff_t>(x) * stride;
            return _mm256_set_ps(in[7][o], in[6][o], in[5][o], in[4][o], in[3][o], in[2][o],
                                 in[1][o], in[0][o]);
        };
        __m256d w03 = _mm256_setzero_pd();
        __m256d w47 = _mm256_setzero_pd();
        for (int i = -radius; i <= radius; ++i) {
            const __m256 f = gather(std::clamp(i, 0, width - 1));
            w03 = _mm256_add_pd(w03, _mm256_cvtps_pd(_mm256_castps256_ps128(f)));
            w47 = _mm256_add_pd(w47, _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1)));
        }
        alignas(32) float result[8];
        for (int x = 0; x < width; ++x) {
            const __m256 f = _mm256_set_m128(_mm256_cvtpd_ps(w47), _mm256_cvtpd_ps(w03));
            _mm256_storeu_ps(result, _mm256_mul_ps(f, vnorm));
            const std::ptrdiff_t o = static_cast<std::ptrdiff_t>(x) * stride;
            for (int j = 0; j < 8; ++j) out[j][o] = result[j];
            const __m256 d = _mm256_sub_ps(gather(std::clamp(x + radius + 1, 0, width - 1)),
                                           gather(std::clamp(x - radius, 0, width - 1)));
            w03 = _mm256_add_pd(w03, _mm256_cvtps_pd(_mm256_castps256_ps128(d)));
            w47 = _mm256_add_pd(w47, _mm256_cvtps_pd(_mm256_extractf128_ps(d, 1)));
        }
    }
    if (lane < lanes) {
        // Remaining 1..7 streams: every level produces identical streams,
        // so delegating the tail to the reference is safe.
        scalar::box_blur_h(src + lane, dst + lane, lanes - lane, width, stride, radius);
    }
}

using namespace box_muller;

__m256d splat(double x) { return _mm256_set1_pd(x); }

__m256i splat_bits(std::uint64_t x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }

__m256d log_normal(__m256d x)
{
    const __m256i bits = _mm256_castpd_si256(x);
    const __m256i high = _mm256_srli_epi64(bits, 32);
    const __m256i carry = _mm256_and_si256(
        _mm256_add_epi64(_mm256_and_si256(high, splat_bits(0x000f'ffff)), splat_bits(0x95f64)),
        splat_bits(0x10'0000));
    const __m256i k_bits = _mm256_add_epi64(
        _mm256_add_epi64(splat_bits(round_shift_bits - 1023), _mm256_srli_epi64(high, 20)),
        _mm256_srli_epi64(carry, 20));
    const __m256d k = _mm256_sub_pd(_mm256_castsi256_pd(k_bits), splat(round_shift));
    const __m256i m_bits =
        _mm256_or_si256(_mm256_and_si256(bits, splat_bits(0x000f'ffff'ffff'ffff)),
                        _mm256_slli_epi64(_mm256_xor_si256(carry, splat_bits(0x3ff0'0000)), 32));
    const __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(m_bits), splat(1.0));
    const __m256d s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
    const __m256d z = _mm256_mul_pd(s, s);
    const __m256d w = _mm256_mul_pd(z, z);
    const __m256d lg46 = _mm256_add_pd(splat(Lg4), _mm256_mul_pd(w, splat(Lg6)));
    const __m256d t1 = _mm256_mul_pd(w, _mm256_add_pd(splat(Lg2), _mm256_mul_pd(w, lg46)));
    const __m256d lg57 = _mm256_add_pd(splat(Lg5), _mm256_mul_pd(w, splat(Lg7)));
    const __m256d lg357 = _mm256_add_pd(splat(Lg3), _mm256_mul_pd(w, lg57));
    const __m256d t2 = _mm256_mul_pd(z, _mm256_add_pd(splat(Lg1), _mm256_mul_pd(w, lg357)));
    const __m256d r = _mm256_add_pd(t2, t1);
    const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
    const __m256d inner = _mm256_sub_pd(
        hfsq, _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                            _mm256_mul_pd(k, splat(ln2_lo))));
    return _mm256_sub_pd(_mm256_mul_pd(k, splat(ln2_hi)), _mm256_sub_pd(inner, f));
}

__m256d kernel_sin(__m256d x, __m256d y)
{
    const __m256d z = _mm256_mul_pd(x, x);
    const __m256d w = _mm256_mul_pd(z, z);
    const __m256d r = _mm256_add_pd(
        _mm256_add_pd(splat(S2),
                      _mm256_mul_pd(z, _mm256_add_pd(splat(S3), _mm256_mul_pd(z, splat(S4))))),
        _mm256_mul_pd(_mm256_mul_pd(z, w),
                      _mm256_add_pd(splat(S5), _mm256_mul_pd(z, splat(S6)))));
    const __m256d v = _mm256_mul_pd(z, x);
    const __m256d inner = _mm256_sub_pd(
        _mm256_mul_pd(z, _mm256_sub_pd(_mm256_mul_pd(splat(0.5), y), _mm256_mul_pd(v, r))), y);
    return _mm256_sub_pd(x, _mm256_sub_pd(inner, _mm256_mul_pd(v, splat(S1))));
}

__m256d kernel_cos(__m256d x, __m256d y)
{
    const __m256d z = _mm256_mul_pd(x, x);
    const __m256d w = _mm256_mul_pd(z, z);
    const __m256d c23 = _mm256_add_pd(splat(C2), _mm256_mul_pd(z, splat(C3)));
    const __m256d c56 = _mm256_add_pd(splat(C5), _mm256_mul_pd(z, splat(C6)));
    const __m256d r = _mm256_add_pd(
        _mm256_mul_pd(z, _mm256_add_pd(splat(C1), _mm256_mul_pd(z, c23))),
        _mm256_mul_pd(_mm256_mul_pd(w, w), _mm256_add_pd(splat(C4), _mm256_mul_pd(z, c56))));
    const __m256d hz = _mm256_mul_pd(splat(0.5), z);
    const __m256d one_minus_hz = _mm256_sub_pd(splat(1.0), hz);
    return _mm256_add_pd(
        one_minus_hz,
        _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(splat(1.0), one_minus_hz), hz),
                      _mm256_sub_pd(_mm256_mul_pd(z, r), _mm256_mul_pd(x, y))));
}

void box_muller_f64(const double* u1, const double* u2, double* out, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d radius = _mm256_sqrt_pd(
            _mm256_mul_pd(splat(-2.0), log_normal(_mm256_loadu_pd(u1 + i))));
        const __m256d a = _mm256_mul_pd(splat(two_pi), _mm256_loadu_pd(u2 + i));
        const __m256d shifted = _mm256_add_pd(_mm256_mul_pd(a, splat(invpio2)), splat(round_shift));
        const __m256d q = _mm256_sub_pd(shifted, splat(round_shift));
        const __m256i quadrant = _mm256_and_si256(_mm256_castpd_si256(shifted), splat_bits(3));
        const __m256d rem = _mm256_sub_pd(a, _mm256_mul_pd(q, splat(pio2_1)));
        const __m256d tail = _mm256_mul_pd(q, splat(pio2_1t));
        const __m256d y0 = _mm256_sub_pd(rem, tail);
        const __m256d y1 = _mm256_sub_pd(_mm256_sub_pd(rem, y0), tail);
        const __m256d sin_y = kernel_sin(y0, y1);
        const __m256d cos_y = kernel_cos(y0, y1);
        // Quadrant swap (odd quadrants) and sign flips, as in the reference.
        const __m256d odd = _mm256_castsi256_pd(
            _mm256_cmpeq_epi64(_mm256_and_si256(quadrant, splat_bits(1)), splat_bits(1)));
        const __m256d sin_sign = _mm256_castsi256_pd(
            _mm256_slli_epi64(_mm256_and_si256(quadrant, splat_bits(2)), 62));
        const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
            _mm256_and_si256(_mm256_add_epi64(quadrant, splat_bits(1)), splat_bits(2)), 62));
        const __m256d sin_a = _mm256_xor_pd(_mm256_blendv_pd(sin_y, cos_y, odd), sin_sign);
        const __m256d cos_a = _mm256_xor_pd(_mm256_blendv_pd(cos_y, sin_y, odd), cos_sign);
        const __m256d c = _mm256_mul_pd(radius, cos_a);
        const __m256d s = _mm256_mul_pd(radius, sin_a);
        // Interleave (c0 s0 c1 s1 | c2 s2 c3 s3).
        const __m256d lo = _mm256_unpacklo_pd(c, s);
        const __m256d hi = _mm256_unpackhi_pd(c, s);
        _mm256_storeu_pd(out + 2 * i, _mm256_permute2f128_pd(lo, hi, 0x20));
        _mm256_storeu_pd(out + 2 * i + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }
    if (i < n) scalar::box_muller_f64(u1 + i, u2 + i, out + 2 * i, n - i);
}

} // namespace avx2
} // namespace

namespace detail {

Kernels avx2_table(Kernels base)
{
#define INFRAME_SIMD_KERNEL(name, ret, args) base.name = avx2::name;
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
    return base;
}

} // namespace detail
} // namespace inframe::simd

#else // no AVX2 at compile time: level never offered, keep the base table.

namespace inframe::simd::detail {
Kernels avx2_table(Kernels base) { return base; }
} // namespace inframe::simd::detail

#endif
