// NEON kernels (aarch64). Built on top of the scalar table; the
// structurally complex box_blur_h and box_muller_f64 inherit the scalar
// versions — NEON still covers every elementwise and reduction kernel. The bit-identity
// arguments are the ones listed in kernels_avx2.cpp.

#include "simd/kernels_internal.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace inframe::simd {
// File-local: reached only through the table built below.
namespace {
namespace neon {

void absdiff_f32(const float* a, const float* b, float* out, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        // |a-b| via subtract + abs (sign-bit clear): identical to
        // fabsf(a[i]-b[i]). vabdq_f32 computes the same value for finite
        // inputs but we keep the two-op form to mirror the reference.
        vst1q_f32(out + i, vabsq_f32(vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i))));
    }
    for (; i < n; ++i) out[i] = std::fabs(a[i] - b[i]);
}

double row_sum_f64(const float* p, int n)
{
    // Four float64x2 accumulators hold the reference's 8 lanes in order.
    float64x2_t acc01 = vdupq_n_f64(0.0);
    float64x2_t acc23 = vdupq_n_f64(0.0);
    float64x2_t acc45 = vdupq_n_f64(0.0);
    float64x2_t acc67 = vdupq_n_f64(0.0);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const float32x4_t lo = vld1q_f32(p + i);
        const float32x4_t hi = vld1q_f32(p + i + 4);
        acc01 = vaddq_f64(acc01, vcvt_f64_f32(vget_low_f32(lo)));
        acc23 = vaddq_f64(acc23, vcvt_f64_f32(vget_high_f32(lo)));
        acc45 = vaddq_f64(acc45, vcvt_f64_f32(vget_low_f32(hi)));
        acc67 = vaddq_f64(acc67, vcvt_f64_f32(vget_high_f32(hi)));
    }
    double lane[8];
    vst1q_f64(lane + 0, acc01);
    vst1q_f64(lane + 2, acc23);
    vst1q_f64(lane + 4, acc45);
    vst1q_f64(lane + 6, acc67);
    for (; i < n; ++i) lane[i & 7] += static_cast<double>(p[i]);
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
           + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

void vblur_accum(double* acc, const float* row, int n)
{
    int i = 0;
    for (; i + 2 <= n; i += 2) {
        const float32x2_t x = vld1_f32(row + i);
        vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), vcvt_f64_f32(x)));
    }
    for (; i < n; ++i) acc[i] += static_cast<double>(row[i]);
}

void vblur_update(double* acc, const float* enter, const float* leave, int n)
{
    int i = 0;
    for (; i + 2 <= n; i += 2) {
        const float32x2_t d = vsub_f32(vld1_f32(enter + i), vld1_f32(leave + i));
        vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), vcvt_f64_f32(d)));
    }
    for (; i < n; ++i) acc[i] += static_cast<double>(enter[i] - leave[i]);
}

void vblur_store(const double* acc, float* out, int n, float norm)
{
    const float32x2_t vnorm = vdup_n_f32(norm);
    int i = 0;
    for (; i + 2 <= n; i += 2) {
        vst1_f32(out + i, vmul_f32(vcvt_f32_f64(vld1q_f64(acc + i)), vnorm));
    }
    for (; i < n; ++i) out[i] = static_cast<float>(acc[i]) * norm;
}

} // namespace neon
} // namespace

namespace detail {

Kernels neon_table(Kernels base)
{
    // Explicit partial assignment: box_blur_h and box_muller_f64 stay on
    // the inherited (scalar) implementations.
    base.absdiff_f32 = neon::absdiff_f32;
    base.row_sum_f64 = neon::row_sum_f64;
    base.vblur_accum = neon::vblur_accum;
    base.vblur_update = neon::vblur_update;
    base.vblur_store = neon::vblur_store;
    return base;
}

} // namespace detail
} // namespace inframe::simd

#else // not aarch64: level never offered, keep the base table.

namespace inframe::simd::detail {
Kernels neon_table(Kernels base) { return base; }
} // namespace inframe::simd::detail

#endif
