// Deterministic pseudo-random number generation.
//
// The paper drives its experiments from "a pseudo-random data generator with
// a pre-set seed" (§4). Every stochastic component in this reproduction
// (payload bits, sensor noise, observer panels) draws from an explicitly
// seeded Prng so that runs are reproducible bit-for-bit.
//
// The generator is xoshiro256** (public domain, Blackman & Vigna), seeded
// through splitmix64 so that small consecutive seeds yield uncorrelated
// streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace inframe::util {

class Prng {
public:
    // Seeds the generator; equal seeds give equal streams.
    explicit Prng(std::uint64_t seed = default_seed);

    // Default seed used throughout the experiments ("pre-set seed", §4).
    static constexpr std::uint64_t default_seed = 0x1f2a'3e5c'7b9d'0846ULL;

    // Raw 64 random bits. Inline, like next_double: the sensor noise pass
    // draws two per pixel.
    std::uint64_t next_u64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    // Uniform in [0, bound). bound must be > 0.
    std::uint64_t next_below(std::uint64_t bound);

    // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t next_int(std::int64_t lo, std::int64_t hi);

    // Uniform double in [0, 1): a multiple of 2^-53.
    double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

    // Uniform double in [lo, hi).
    double next_double(double lo, double hi);

    // Standard normal via Box-Muller (cached second deviate), with libm's
    // log, sin and cos. channel::apply_sensor_noise_rows replays the same
    // draws through simd's box_muller_f64 instead.
    double next_gaussian();

    // Normal with given mean and standard deviation.
    double next_gaussian(double mean, double stddev);

    // True with probability p (clamped to [0,1]).
    bool next_bernoulli(double p);

    // Fills a byte buffer with random data.
    void fill_bytes(std::span<std::uint8_t> out);

    // Convenience: n random bits as a vector<uint8_t> of 0/1 values.
    std::vector<std::uint8_t> next_bits(std::size_t n);

    // Derives an independent child generator (for per-component streams).
    Prng split();

private:
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

    std::uint64_t state_[4];
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

} // namespace inframe::util
