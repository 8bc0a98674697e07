// SSE2 kernels (x86-64 baseline ISA — always selectable on x86-64).
//
// Bit-identity with the scalar reference, kernel by kernel:
//  - elementwise float ops vectorize lane-for-lane (no reassociation);
//  - |x| is a sign-bit clear (andnot with -0.0f), exactly fabsf;
//  - masked_add selects bitwise between x and x+delta, so unset lanes are
//    untouched (no x += 0.0f, which would flip -0.0f to +0.0f);
//  - quantize_u8 clamps in float, widens to double, adds 0.5 and
//    truncates: floor(v + 0.5) in double is exact for v in [0, 255] and
//    equals lround's round-half-away for non-negative v;
//  - row_sum_f64 maps vector lanes onto the reference's fixed 8-lane
//    accumulation shape and merges them in the same order;
//  - the blur kernels widen with cvtps_pd / narrow with cvtpd_ps, the
//    same conversions the reference's casts perform;
//  - box_blur_h puts independent streams in lanes, replaying the scalar
//    op sequence per lane.
// Every claim above is enforced by the differential fuzzer in
// tests/simd/test_kernel_parity.cpp.

#include "simd/kernels_internal.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

#include <algorithm>
#include <cmath>

namespace inframe::simd {
namespace sse2 {

namespace {

// Scalar tails reuse the reference implementations so remainder elements
// are by construction identical.
inline double lane8_merge(const double lane[8])
{
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
           + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

} // namespace

void add_f32(const float* a, const float* b, float* out, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        _mm_storeu_ps(out + i, _mm_add_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_f32(const float* a, const float* b, float* out, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        _mm_storeu_ps(out + i, _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] - b[i];
}

void absdiff_f32(const float* a, const float* b, float* out, int n)
{
    const __m128 sign = _mm_set1_ps(-0.0f);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
        _mm_storeu_ps(out + i, _mm_andnot_ps(sign, d));
    }
    for (; i < n; ++i) out[i] = std::fabs(a[i] - b[i]);
}

void clamp_f32(float* x, int n, float lo, float hi)
{
    const __m128 vlo = _mm_set1_ps(lo);
    const __m128 vhi = _mm_set1_ps(hi);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        _mm_storeu_ps(x + i, _mm_min_ps(_mm_max_ps(_mm_loadu_ps(x + i), vlo), vhi));
    }
    for (; i < n; ++i) x[i] = std::min(std::max(x[i], lo), hi);
}

void masked_add_f32(float* dst, const std::uint32_t* mask, int n, float delta)
{
    const __m128 vdelta = _mm_set1_ps(delta);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 x = _mm_loadu_ps(dst + i);
        const __m128 m =
            _mm_castsi128_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + i)));
        const __m128 sum = _mm_add_ps(x, vdelta);
        _mm_storeu_ps(dst + i, _mm_or_ps(_mm_and_ps(m, sum), _mm_andnot_ps(m, x)));
    }
    for (; i < n; ++i) {
        if (mask[i]) dst[i] += delta;
    }
}

void quantize_u8(const float* in, std::uint8_t* out, int n)
{
    const __m128 vlo = _mm_setzero_ps();
    const __m128 vhi = _mm_set1_ps(255.0f);
    const __m128d half = _mm_set1_pd(0.5);
    const __m128i zero = _mm_setzero_si128();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128 x0 = _mm_min_ps(_mm_max_ps(_mm_loadu_ps(in + i), vlo), vhi);
        const __m128 x1 = _mm_min_ps(_mm_max_ps(_mm_loadu_ps(in + i + 4), vlo), vhi);
        const __m128i a0 = _mm_cvttpd_epi32(_mm_add_pd(_mm_cvtps_pd(x0), half));
        const __m128i a1 =
            _mm_cvttpd_epi32(_mm_add_pd(_mm_cvtps_pd(_mm_movehl_ps(x0, x0)), half));
        const __m128i b0 = _mm_cvttpd_epi32(_mm_add_pd(_mm_cvtps_pd(x1), half));
        const __m128i b1 =
            _mm_cvttpd_epi32(_mm_add_pd(_mm_cvtps_pd(_mm_movehl_ps(x1, x1)), half));
        const __m128i lo4 = _mm_unpacklo_epi64(a0, a1);
        const __m128i hi4 = _mm_unpacklo_epi64(b0, b1);
        const __m128i words = _mm_packs_epi32(lo4, hi4);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                         _mm_packus_epi16(words, zero));
    }
    for (; i < n; ++i) {
        const float v = std::min(std::max(in[i], 0.0f), 255.0f);
        out[i] = static_cast<std::uint8_t>(std::lround(v));
    }
}

void widen_u8(const std::uint8_t* in, float* out, int n)
{
    const __m128i zero = _mm_setzero_si128();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(in + i));
        const __m128i words = _mm_unpacklo_epi8(bytes, zero);
        _mm_storeu_ps(out + i, _mm_cvtepi32_ps(_mm_unpacklo_epi16(words, zero)));
        _mm_storeu_ps(out + i + 4, _mm_cvtepi32_ps(_mm_unpackhi_epi16(words, zero)));
    }
    for (; i < n; ++i) out[i] = static_cast<float>(in[i]);
}

double row_sum_f64(const float* p, int n)
{
    __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd()};
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128 x0 = _mm_loadu_ps(p + i);
        const __m128 x1 = _mm_loadu_ps(p + i + 4);
        acc[0] = _mm_add_pd(acc[0], _mm_cvtps_pd(x0));
        acc[1] = _mm_add_pd(acc[1], _mm_cvtps_pd(_mm_movehl_ps(x0, x0)));
        acc[2] = _mm_add_pd(acc[2], _mm_cvtps_pd(x1));
        acc[3] = _mm_add_pd(acc[3], _mm_cvtps_pd(_mm_movehl_ps(x1, x1)));
    }
    alignas(16) double lane[8];
    for (int v = 0; v < 4; ++v) _mm_storeu_pd(lane + 2 * v, acc[v]);
    for (; i < n; ++i) lane[i & 7] += static_cast<double>(p[i]);
    return lane8_merge(lane);
}

void vblur_accum(double* acc, const float* row, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 x = _mm_loadu_ps(row + i);
        _mm_storeu_pd(acc + i, _mm_add_pd(_mm_loadu_pd(acc + i), _mm_cvtps_pd(x)));
        _mm_storeu_pd(acc + i + 2,
                      _mm_add_pd(_mm_loadu_pd(acc + i + 2), _mm_cvtps_pd(_mm_movehl_ps(x, x))));
    }
    for (; i < n; ++i) acc[i] += static_cast<double>(row[i]);
}

void vblur_update(double* acc, const float* enter, const float* leave, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 d = _mm_sub_ps(_mm_loadu_ps(enter + i), _mm_loadu_ps(leave + i));
        _mm_storeu_pd(acc + i, _mm_add_pd(_mm_loadu_pd(acc + i), _mm_cvtps_pd(d)));
        _mm_storeu_pd(acc + i + 2,
                      _mm_add_pd(_mm_loadu_pd(acc + i + 2), _mm_cvtps_pd(_mm_movehl_ps(d, d))));
    }
    for (; i < n; ++i) acc[i] += static_cast<double>(enter[i] - leave[i]);
}

void vblur_store(const double* acc, float* out, int n, float norm)
{
    const __m128 vnorm = _mm_set1_ps(norm);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 lo = _mm_cvtpd_ps(_mm_loadu_pd(acc + i));
        const __m128 hi = _mm_cvtpd_ps(_mm_loadu_pd(acc + i + 2));
        _mm_storeu_ps(out + i, _mm_mul_ps(_mm_movelh_ps(lo, hi), vnorm));
    }
    for (; i < n; ++i) out[i] = static_cast<float>(acc[i]) * norm;
}

void box_blur_h(const float* const* src, float* const* dst, int lanes, int width, int stride,
                int radius)
{
    const float norm = 1.0f / static_cast<float>(2 * radius + 1);
    const __m128 vnorm = _mm_set1_ps(norm);
    int lane = 0;
    for (; lane + 4 <= lanes; lane += 4) {
        const float* in0 = src[lane];
        const float* in1 = src[lane + 1];
        const float* in2 = src[lane + 2];
        const float* in3 = src[lane + 3];
        float* out0 = dst[lane];
        float* out1 = dst[lane + 1];
        float* out2 = dst[lane + 2];
        float* out3 = dst[lane + 3];
        auto gather = [&](int x) {
            const std::ptrdiff_t o = static_cast<std::ptrdiff_t>(x) * stride;
            return _mm_set_ps(in3[o], in2[o], in1[o], in0[o]);
        };
        __m128d w01 = _mm_setzero_pd();
        __m128d w23 = _mm_setzero_pd();
        for (int i = -radius; i <= radius; ++i) {
            const __m128 f = gather(std::clamp(i, 0, width - 1));
            w01 = _mm_add_pd(w01, _mm_cvtps_pd(f));
            w23 = _mm_add_pd(w23, _mm_cvtps_pd(_mm_movehl_ps(f, f)));
        }
        alignas(16) float result[4];
        for (int x = 0; x < width; ++x) {
            const __m128 f = _mm_movelh_ps(_mm_cvtpd_ps(w01), _mm_cvtpd_ps(w23));
            _mm_storeu_ps(result, _mm_mul_ps(f, vnorm));
            const std::ptrdiff_t o = static_cast<std::ptrdiff_t>(x) * stride;
            out0[o] = result[0];
            out1[o] = result[1];
            out2[o] = result[2];
            out3[o] = result[3];
            const __m128 d = _mm_sub_ps(gather(std::clamp(x + radius + 1, 0, width - 1)),
                                        gather(std::clamp(x - radius, 0, width - 1)));
            w01 = _mm_add_pd(w01, _mm_cvtps_pd(d));
            w23 = _mm_add_pd(w23, _mm_cvtps_pd(_mm_movehl_ps(d, d)));
        }
    }
    if (lane < lanes) {
        scalar::box_blur_h(src + lane, dst + lane, lanes - lane, width, stride, radius);
    }
}

} // namespace sse2

namespace detail {

Kernels sse2_table(Kernels base)
{
#define INFRAME_SIMD_KERNEL(name, ret, args) base.name = sse2::name;
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
    return base;
}

} // namespace detail
} // namespace inframe::simd

#else // non-x86: the sse2 level is never offered, keep the base table.

namespace inframe::simd::detail {
Kernels sse2_table(Kernels base) { return base; }
} // namespace inframe::simd::detail

#endif
