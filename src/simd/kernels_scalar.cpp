// Scalar reference kernels: these DEFINE the semantics every vector level
// must reproduce bit for bit. This file is compiled with auto-vectorization
// disabled (see src/simd/CMakeLists.txt) so the "scalar" dispatch level —
// and the baseline of the bench_micro_kernels speedup table — is a true
// one-element-at-a-time reference rather than whatever the compiler's
// vectorizer produces for the host it happens to build on.

#include "simd/kernels_internal.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace inframe::simd {
namespace scalar {

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

namespace {

using namespace box_muller;

// log x for a normal x > 0: fdlibm's e_log.c with its small-|f| and k == 0
// shortcuts folded into the general formula. x = 2^k (1 + f) with 1 + f in
// [sqrt(2)/2, sqrt(2)), s = f / (2 + f), and
// log(1 + f) = f - (f^2/2 - s (f^2/2 + R(s^2))).
double log_normal(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t high = bits >> 32;
    // 0x100000 when the mantissa lies above sqrt(2)'s: then 1 + f = x / 2^(k+1).
    const std::uint64_t carry = ((high & 0x000f'ffff) + 0x95f64) & 0x10'0000;
    const double k =
        std::bit_cast<double>(round_shift_bits + (high >> 20) + (carry >> 20) - 1023)
        - round_shift;
    const double f = std::bit_cast<double>((bits & 0x000f'ffff'ffff'ffff)
                                           | ((carry ^ 0x3ff0'0000) << 32))
                     - 1.0;
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (Lg2 + w * (Lg4 + w * Lg6));
    const double t2 = z * (Lg1 + w * (Lg3 + w * (Lg5 + w * Lg7)));
    const double r = t2 + t1;
    const double hfsq = 0.5 * f * f;
    return k * ln2_hi - ((hfsq - (s * (hfsq + r) + k * ln2_lo)) - f);
}

// sin(x + y) and cos(x + y) for |x| <= pi/4, |y| tiny (k_sin.c and the
// branch-free k_cos.c of fdlibm's FreeBSD descendant).
double kernel_sin(double x, double y)
{
    const double z = x * x;
    const double w = z * z;
    const double r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    const double v = z * x;
    return x - ((z * (0.5 * y - v * r) - y) - v * S1);
}

double kernel_cos(double x, double y)
{
    const double z = x * x;
    const double w = z * z;
    const double r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    const double hz = 0.5 * z;
    const double one_minus_hz = 1.0 - hz;
    return one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * r - x * y));
}

} // namespace

void box_muller_f64(const double* u1, const double* u2, double* out, int n)
{
    for (int i = 0; i < n; ++i) {
        const double radius = std::sqrt(-2.0 * log_normal(u1[i]));
        // a = q pi/2 + y0 + y1 with q = round(a 2/pi) (at most 4): a
        // Cody-Waite step against the 86-bit pi/2, as e_rem_pio2.c does
        // for medium arguments.
        const double a = two_pi * u2[i];
        const double shifted = a * invpio2 + round_shift;
        const double q = shifted - round_shift;
        const auto quadrant = std::bit_cast<std::uint64_t>(shifted) & 3;
        const double rem = a - q * pio2_1;
        const double tail = q * pio2_1t;
        const double y0 = rem - tail;
        const double y1 = (rem - y0) - tail;
        const double sin_y = kernel_sin(y0, y1);
        const double cos_y = kernel_cos(y0, y1);
        // sin a = (sin y, cos y, -sin y, -cos y)[quadrant]; cos a is the
        // same table shifted by one quadrant.
        double sin_a = (quadrant & 1) != 0 ? cos_y : sin_y;
        double cos_a = (quadrant & 1) != 0 ? sin_y : cos_y;
        if ((quadrant & 2) != 0) sin_a = -sin_a;
        if (((quadrant + 1) & 2) != 0) cos_a = -cos_a;
        out[2 * i] = radius * cos_a;
        out[2 * i + 1] = radius * sin_a;
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
