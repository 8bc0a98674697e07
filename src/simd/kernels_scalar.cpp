// Scalar reference kernels: these DEFINE the semantics every vector level
// must reproduce bit for bit. This file is compiled with auto-vectorization
// disabled (see src/simd/CMakeLists.txt) so the "scalar" dispatch level —
// and the baseline of the bench_micro_kernels speedup table — is a true
// one-element-at-a-time reference rather than whatever the compiler's
// vectorizer produces for the host it happens to build on.

#include "simd/kernels_internal.hpp"

#include <algorithm>
#include <cmath>

namespace inframe::simd {
namespace scalar {

void absdiff_f32(const float* a, const float* b, float* out, int n)
{
    for (int i = 0; i < n; ++i) out[i] = std::fabs(a[i] - b[i]);
}

double row_sum_f64(const float* p, int n)
{
    // Fixed 8-lane accumulation shape (see kernel_list.def): this IS the
    // reference order, not an approximation of a sequential sum.
    double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int i = 0; i < n; ++i) lane[i & 7] += static_cast<double>(p[i]);
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
           + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

void vblur_accum(double* acc, const float* row, int n)
{
    for (int i = 0; i < n; ++i) acc[i] += static_cast<double>(row[i]);
}

void vblur_update(double* acc, const float* enter, const float* leave, int n)
{
    // Float subtract first, then double add — the order box_blur has
    // always used; the vector levels replicate it with cvtps_pd.
    for (int i = 0; i < n; ++i) acc[i] += static_cast<double>(enter[i] - leave[i]);
}

void vblur_store(const double* acc, float* out, int n, float norm)
{
    for (int i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]) * norm;
}

void box_blur_h(const float* const* src, float* const* dst, int lanes, int width, int stride,
                int radius)
{
    for (int lane = 0; lane < lanes; ++lane) {
        const float* in = src[lane];
        float* out = dst[lane];
        double window = 0.0;
        for (int i = -radius; i <= radius; ++i) {
            const int x = std::clamp(i, 0, width - 1);
            window += in[static_cast<std::ptrdiff_t>(x) * stride];
        }
        const float norm = 1.0f / static_cast<float>(2 * radius + 1);
        for (int x = 0; x < width; ++x) {
            out[static_cast<std::ptrdiff_t>(x) * stride] = static_cast<float>(window) * norm;
            const int leaving = std::clamp(x - radius, 0, width - 1);
            const int entering = std::clamp(x + radius + 1, 0, width - 1);
            window += in[static_cast<std::ptrdiff_t>(entering) * stride]
                      - in[static_cast<std::ptrdiff_t>(leaving) * stride];
        }
    }
}

} // namespace scalar

namespace detail {

Kernels scalar_table()
{
    Kernels k;
#define INFRAME_SIMD_KERNEL(name, ret, args) k.name = scalar::name;
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
    return k;
}

} // namespace detail
} // namespace inframe::simd
