// AVX2 kernels: the x86-64 vector level. The table starts from the scalar
// one and re-implements every kernel_list.def row, 8 floats wide.
//
// Bit-identity with the scalar reference, kernel by kernel (the NEON level
// rests on the same arguments):
//  - absdiff vectorizes lane-for-lane (no reassociation); |x| is a
//    sign-bit clear (andnot with -0.0f), exactly fabsf;
//  - row_sum_f64 maps vector lanes onto the reference's fixed 8-lane
//    accumulation shape (two 4-wide double accumulators) and merges them
//    in the same order;
//  - the blur kernels widen with cvtps_pd / narrow with cvtpd_ps, the
//    same conversions the reference's casts perform;
//  - box_blur_h puts independent streams in lanes, replaying the scalar
//    op sequence per lane.
// Every claim above is enforced by the differential fuzzer in
// tests/simd/test_kernel_parity.cpp.
//
// This file is compiled with -mavx2 (see src/simd/CMakeLists.txt) and its
// functions are only reachable after a runtime CPUID check in dispatch.cpp.

#include "simd/kernels_internal.hpp"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace inframe::simd {
namespace avx2 {

void absdiff_f32(const float* a, const float* b, float* out, int n)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        _mm256_storeu_ps(out + i, _mm256_andnot_ps(sign, d));
    }
    for (; i < n; ++i) out[i] = std::fabs(a[i] - b[i]);
}

double row_sum_f64(const float* p, int n)
{
    // Lanes 0..3 in acc0, lanes 4..7 in acc1 — the reference 8-lane shape.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(p + i);
        acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)));
    }
    alignas(32) double lane[8];
    _mm256_storeu_pd(lane, acc0);
    _mm256_storeu_pd(lane + 4, acc1);
    for (; i < n; ++i) lane[i & 7] += static_cast<double>(p[i]);
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
           + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

void vblur_accum(double* acc, const float* row, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 x = _mm_loadu_ps(row + i);
        _mm256_storeu_pd(acc + i,
                         _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_cvtps_pd(x)));
    }
    for (; i < n; ++i) acc[i] += static_cast<double>(row[i]);
}

void vblur_update(double* acc, const float* enter, const float* leave, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 d = _mm_sub_ps(_mm_loadu_ps(enter + i), _mm_loadu_ps(leave + i));
        _mm256_storeu_pd(acc + i,
                         _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_cvtps_pd(d)));
    }
    for (; i < n; ++i) acc[i] += static_cast<double>(enter[i] - leave[i]);
}

void vblur_store(const double* acc, float* out, int n, float norm)
{
    const __m128 vnorm = _mm_set1_ps(norm);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 f = _mm256_cvtpd_ps(_mm256_loadu_pd(acc + i));
        _mm_storeu_ps(out + i, _mm_mul_ps(f, vnorm));
    }
    for (; i < n; ++i) out[i] = static_cast<float>(acc[i]) * norm;
}

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

} // namespace avx2

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
