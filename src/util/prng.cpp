#include "util/prng.hpp"

#include "util/contract.hpp"

#include <cmath>
#include <limits>
#include <numbers>

namespace inframe::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x)
{
    x += 0x9e37'79b9'7f4a'7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d0'49bb'1331'11ebULL;
    return z ^ (z >> 31);
}

} // namespace

Prng::Prng(std::uint64_t seed)
{
    // splitmix64 expansion guarantees a non-degenerate xoshiro state even
    // for seed == 0.
    for (auto& word : state_) word = splitmix64(seed);
}

std::uint64_t Prng::next_below(std::uint64_t bound)
{
    expects(bound > 0, "Prng::next_below bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) return r % bound;
    }
}

std::int64_t Prng::next_int(std::int64_t lo, std::int64_t hi)
{
    expects(lo <= hi, "Prng::next_int requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64()); // full 64-bit range
    return lo + static_cast<std::int64_t>(next_below(span));
}

double Prng::next_double(double lo, double hi)
{
    expects(lo <= hi, "Prng::next_double requires lo <= hi");
    return lo + (hi - lo) * next_double();
}

double Prng::next_gaussian()
{
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    // Box-Muller on (0,1] deviates; u1 strictly positive for the log.
    double u1 = 0.0;
    do {
        u1 = next_double();
    } while (u1 <= std::numeric_limits<double>::min());
    const double u2 = next_double();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = radius * std::sin(angle);
    has_cached_gaussian_ = true;
    return radius * std::cos(angle);
}

double Prng::next_gaussian(double mean, double stddev)
{
    expects(stddev >= 0.0, "Prng::next_gaussian stddev must be non-negative");
    return mean + stddev * next_gaussian();
}

bool Prng::next_bernoulli(double p)
{
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
}

void Prng::fill_bytes(std::span<std::uint8_t> out)
{
    std::size_t i = 0;
    while (i + 8 <= out.size()) {
        std::uint64_t word = next_u64();
        for (int b = 0; b < 8; ++b) {
            out[i++] = static_cast<std::uint8_t>(word & 0xff);
            word >>= 8;
        }
    }
    if (i < out.size()) {
        std::uint64_t word = next_u64();
        while (i < out.size()) {
            out[i++] = static_cast<std::uint8_t>(word & 0xff);
            word >>= 8;
        }
    }
}

std::vector<std::uint8_t> Prng::next_bits(std::size_t n)
{
    std::vector<std::uint8_t> bits(n);
    for (auto& bit : bits) bit = static_cast<std::uint8_t>(next_u64() >> 63);
    return bits;
}

Prng Prng::split()
{
    return Prng(next_u64());
}

} // namespace inframe::util
