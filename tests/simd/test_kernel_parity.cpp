// Differential parity harness for the SIMD kernel layer: every kernel in
// src/simd/kernel_list.def is fuzzed with seeded random inputs and its
// output at each available dispatch level compared BIT FOR BIT against the
// scalar reference. The registry below (PARITY_KERNEL entries) is the
// acceptance gate for new kernels — tests/CMakeLists.txt refuses to
// configure if a kernel_list.def row has no entry here, and
// RegistryCoversEveryKernel re-checks the same invariant at runtime.
//
// Case generation deliberately covers the classic vectorization traps:
// sizes hitting every width-mod-lanes remainder, stride != width streams
// for box_blur_h, negative zero and non-finite (NaN, +-Inf) samples, and for
// box_muller_f64 the edges of its domain and of the pi/2 reduction's
// quadrants.

#include "simd/simd.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numbers>
#include <random>
#include <string>
#include <vector>

namespace {

using inframe::simd::Kernels;
using inframe::simd::Level;

constexpr int cases_per_kernel = 500;

using Parity_fn = void (*)(const Kernels& ref, const Kernels& tst, std::mt19937& rng);

std::map<std::string, Parity_fn>& registry()
{
    static std::map<std::string, Parity_fn> r;
    return r;
}

bool register_parity(const char* name, Parity_fn fn)
{
    registry().emplace(name, fn);
    return true;
}

// PARITY_KERNEL(name) { body } — defines one differential case generator
// and registers it under the kernel's kernel_list.def name. The configure
// guard in tests/CMakeLists.txt greps for these entries literally.
#define PARITY_KERNEL(name)                                                                  \
    void parity_case_##name(const Kernels& ref, const Kernels& tst, std::mt19937& rng);      \
    const bool parity_registered_##name = register_parity(#name, parity_case_##name);        \
    void parity_case_##name(const Kernels& ref, const Kernels& tst, std::mt19937& rng)

// --- input generation -------------------------------------------------------

int random_size(std::mt19937& rng)
{
    switch (rng() % 4u) {
    case 0: return 1 + static_cast<int>(rng() % 16u); // every small remainder
    case 1: {
        const int lanes = 1 << (rng() % 6u); // exact multiples of 1..32
        return lanes * (1 + static_cast<int>(rng() % 8u));
    }
    case 2: return 1 + static_cast<int>(rng() % 300u);
    default: return 513 + static_cast<int>(rng() % 64u);
    }
}

float random_float(std::mt19937& rng)
{
    switch (rng() % 8u) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    default:
        return std::uniform_real_distribution<float>(-320.0f, 320.0f)(rng);
    }
}

std::vector<float> random_floats(std::mt19937& rng, int n)
{
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = random_float(rng);
    return v;
}

// --- bitwise comparison -----------------------------------------------------

template <typename T>
void expect_bitwise_equal(const std::vector<T>& want, const std::vector<T>& got,
                          const char* what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    if (std::memcmp(want.data(), got.data(), want.size() * sizeof(T)) == 0) return;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::memcmp(&want[i], &got[i], sizeof(T)) != 0) {
            FAIL() << what << ": first divergence at element " << i << ": scalar="
                   << +want[i] << " vector=" << +got[i] << " (n=" << want.size() << ")";
        }
    }
}

// --- per-kernel case generators --------------------------------------------

PARITY_KERNEL(box_blur_h)
{
    // 1..12 streams exercises both full vector groups and remainder lanes;
    // stride > 1 models channel-interleaved rows (stride != width always).
    const int lanes = 1 + static_cast<int>(rng() % 12u);
    const int width = 1 + static_cast<int>(rng() % 64u);
    const int stride = 1 + static_cast<int>(rng() % 4u);
    const int radius = static_cast<int>(rng() % 11u);
    const int values = (width - 1) * stride + 1;

    std::vector<std::vector<float>> src(static_cast<std::size_t>(lanes));
    std::vector<std::vector<float>> want(static_cast<std::size_t>(lanes));
    std::vector<std::vector<float>> got(static_cast<std::size_t>(lanes));
    std::vector<const float*> src_ptr(static_cast<std::size_t>(lanes));
    std::vector<float*> want_ptr(static_cast<std::size_t>(lanes));
    std::vector<float*> got_ptr(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
        const auto s = static_cast<std::size_t>(lane);
        src[s] = random_floats(rng, values);
        // A quarter of the streams carry a few NaN / +-Inf samples: a window
        // that takes one in, or lets an Inf leave again (Inf - Inf), turns
        // NaN, and the vector lanes must produce the reference's bits.
        if (rng() % 4u == 0) {
            static const float non_finite[] = {std::numeric_limits<float>::quiet_NaN(),
                                               std::numeric_limits<float>::infinity(),
                                               -std::numeric_limits<float>::infinity()};
            for (int k = 1 + static_cast<int>(rng() % 3u); k > 0; --k) {
                src[s][rng() % static_cast<unsigned>(values)] =
                    non_finite[rng() % std::size(non_finite)];
            }
        }
        want[s].assign(static_cast<std::size_t>(values), 0.0f);
        got[s].assign(static_cast<std::size_t>(values), 0.0f);
        src_ptr[s] = src[s].data();
        want_ptr[s] = want[s].data();
        got_ptr[s] = got[s].data();
    }
    ref.box_blur_h(src_ptr.data(), want_ptr.data(), lanes, width, stride, radius);
    tst.box_blur_h(src_ptr.data(), got_ptr.data(), lanes, width, stride, radius);
    for (int lane = 0; lane < lanes; ++lane) {
        const auto s = static_cast<std::size_t>(lane);
        expect_bitwise_equal(want[s], got[s], "box_blur_h");
    }
}

// Uniforms on box_muller_f64's domain: u1 in [DBL_MIN, 1), u2 in [0, 1).
// A third are edge values (the ends of the u1 range, the u2 multiples of
// 1/8 where the pi/2 reduction changes quadrant or octant, and their
// neighbours); the rest are k * 2^-53 as util::Prng draws them, and for u1
// also values spread over every binade down to DBL_MIN.
double edge_neighbour(std::mt19937& rng, double x)
{
    switch (rng() % 3u) {
    case 0: return std::nextafter(x, 0.0);
    case 1: return std::nextafter(x, 1.0);
    default: return x;
    }
}

double random_u53(std::mt19937& rng)
{
    const std::uint64_t bits = (std::uint64_t{rng()} << 32) | rng();
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double random_u1(std::mt19937& rng)
{
    static const double edges[] = {0x1.0p-53, std::numeric_limits<double>::min(),
                                   std::nextafter(std::numeric_limits<double>::min(), 1.0),
                                   1.0 - 0x1.0p-53, 0.5, std::sqrt(0.5)};
    switch (rng() % 3u) {
    case 0: return edges[rng() % std::size(edges)];
    case 1: // [2^-(k+1), 2^-k) for k in [0, 1021]: every binade down to DBL_MIN
        return std::ldexp(0.5 + 0.5 * random_u53(rng), -static_cast<int>(rng() % 1022u));
    default: return std::max(random_u53(rng), 0x1.0p-53);
    }
}

double random_u2(std::mt19937& rng)
{
    static const double edges[] = {0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875};
    switch (rng() % 3u) {
    case 0: return 1.0 - 0x1.0p-53;
    case 1: {
        const double edge = edges[rng() % std::size(edges)];
        return edge == 0.0 ? edge : edge_neighbour(rng, edge);
    }
    default: return random_u53(rng);
    }
}

PARITY_KERNEL(box_muller_f64)
{
    const int n = random_size(rng);
    std::vector<double> u1(static_cast<std::size_t>(n));
    std::vector<double> u2(static_cast<std::size_t>(n));
    for (auto& u : u1) u = random_u1(rng);
    for (auto& u : u2) u = random_u2(rng);
    std::vector<double> want(2 * static_cast<std::size_t>(n));
    std::vector<double> got(2 * static_cast<std::size_t>(n));
    ref.box_muller_f64(u1.data(), u2.data(), want.data(), n);
    tst.box_muller_f64(u1.data(), u2.data(), got.data(), n);
    expect_bitwise_equal(want, got, "box_muller_f64");
}

// --- the differential fuzzer ------------------------------------------------

class KernelParity : public ::testing::TestWithParam<Level> {};

TEST_P(KernelParity, VectorMatchesScalarBitForBit)
{
    const Level level = GetParam();
    const Kernels& ref = inframe::simd::kernels_for(Level::scalar);
    const Kernels& tst = inframe::simd::kernels_for(level);
    for (const auto& [name, fn] : registry()) {
        SCOPED_TRACE(std::string("kernel=") + name + " level="
                     + inframe::simd::to_string(level));
        // One fixed seed per (kernel, level): failures replay exactly.
        std::mt19937 rng(0xC0DEC0DEu ^ (std::hash<std::string>{}(name) & 0xFFFFFFu)
                         ^ (static_cast<unsigned>(level) << 24));
        for (int i = 0; i < cases_per_kernel; ++i) {
            fn(ref, tst, rng);
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, KernelParity,
                         ::testing::ValuesIn(inframe::simd::available_levels().begin(),
                                             inframe::simd::available_levels().end()),
                         [](const ::testing::TestParamInfo<Level>& info) {
                             return std::string(inframe::simd::to_string(info.param));
                         });

// --- box_muller_f64 against libm ------------------------------------------

class BoxMullerAccuracy : public ::testing::TestWithParam<Level> {};

TEST_P(BoxMullerAccuracy, MatchesLibmWithin1e14)
{
    // 10^6 pairs in blocks of 1000 (an even block, so the vector levels
    // run their full width; the fuzzer covers the tails).
    const Kernels& k = inframe::simd::kernels_for(GetParam());
    std::mt19937 rng(0xB0C5u);
    constexpr int block = 1000;
    std::vector<double> u1(block);
    std::vector<double> u2(block);
    std::vector<double> out(2 * block);
    double worst = 0.0;
    for (int b = 0; b < 1000; ++b) {
        for (auto& u : u1) u = random_u1(rng);
        for (auto& u : u2) u = random_u2(rng);
        k.box_muller_f64(u1.data(), u2.data(), out.data(), block);
        for (std::size_t i = 0; i < block; ++i) {
            const double radius = std::sqrt(-2.0 * std::log(u1[i]));
            const double angle = 2.0 * std::numbers::pi * u2[i];
            worst = std::max({worst, std::fabs(out[2 * i] - radius * std::cos(angle)),
                              std::fabs(out[2 * i + 1] - radius * std::sin(angle))});
        }
    }
    EXPECT_LE(worst, 1e-14);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, BoxMullerAccuracy,
                         ::testing::ValuesIn(inframe::simd::available_levels().begin(),
                                             inframe::simd::available_levels().end()),
                         [](const ::testing::TestParamInfo<Level>& info) {
                             return std::string(inframe::simd::to_string(info.param));
                         });

// --- registry / dispatch invariants ----------------------------------------

TEST(KernelParityRegistry, RegistryCoversEveryKernel)
{
    static const char* const kernel_names[] = {
#define INFRAME_SIMD_KERNEL(name, ret, args) #name,
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
    };
    for (const char* name : kernel_names) {
        EXPECT_TRUE(registry().count(name) == 1)
            << "kernel " << name << " has no PARITY_KERNEL entry";
    }
    EXPECT_EQ(registry().size(), std::size(kernel_names))
        << "parity registry has entries for kernels not in kernel_list.def";
}

TEST(KernelParityRegistry, EveryTableSlotIsPopulated)
{
    for (const Level level : inframe::simd::available_levels()) {
        const Kernels& k = inframe::simd::kernels_for(level);
#define INFRAME_SIMD_KERNEL(name, ret, args)                                                 \
    EXPECT_NE(k.name, nullptr) << #name << " missing at level "                              \
                               << inframe::simd::to_string(level);
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
    }
}

TEST(SimdDispatch, LevelsAreCoherent)
{
    const auto levels = inframe::simd::available_levels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), Level::scalar);
    bool best_listed = false;
    for (const Level level : levels) best_listed |= (level == inframe::simd::best_supported());
    EXPECT_TRUE(best_listed);
}

TEST(SimdDispatch, SetActiveLevelRoundTrips)
{
    const Level before = inframe::simd::active_level();
    const Level prev = inframe::simd::set_active_level(Level::scalar);
    EXPECT_EQ(prev, before);
    EXPECT_EQ(inframe::simd::active_level(), Level::scalar);
    EXPECT_EQ(&inframe::simd::kernels(), &inframe::simd::kernels_for(Level::scalar));
    inframe::simd::set_active_level(before);
    EXPECT_EQ(inframe::simd::active_level(), before);
}

TEST(SimdDispatch, LevelNamesParse)
{
    EXPECT_EQ(inframe::simd::level_from_name("scalar"), Level::scalar);
    EXPECT_EQ(inframe::simd::level_from_name("Avx2"), Level::avx2);
    EXPECT_THROW(inframe::simd::level_from_name("avx512"),
                 inframe::util::Contract_violation);
    EXPECT_THROW(inframe::simd::level_from_name("sse2"), inframe::util::Contract_violation);
    EXPECT_THROW(inframe::simd::level_from_name("neon"), inframe::util::Contract_violation);
    for (const Level level : {Level::scalar, Level::avx2}) {
        EXPECT_EQ(inframe::simd::level_from_name(inframe::simd::to_string(level)), level);
    }
}

} // namespace
