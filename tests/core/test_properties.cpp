// Property-style parameterized sweeps over the protocol's invariants.
//
// Each suite states one invariant and grinds it across a grid of
// configurations (TEST_P / INSTANTIATE_TEST_SUITE_P): the encoder/decoder
// pair must round-trip exactly over a clean channel for *every* valid
// parameter combination, complementary pairs must always cancel, and the
// accounting identities of the GOB layer must hold for arbitrary inputs.

#include "coding/parity.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/session.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/metrics.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace {

using namespace inframe::core;
using inframe::coding::Block_decision;
using inframe::img::Imagef;
using inframe::util::Prng;

// ---------------------------------------------------------------------
// Invariant 1: clean-channel round trip is exact for every (tau, delta,
// pixel size, video level) combination.
// ---------------------------------------------------------------------

using Roundtrip_params = std::tuple<int, float, int, float>; // tau, delta, p, level

class CleanRoundtrip : public ::testing::TestWithParam<Roundtrip_params> {};

TEST_P(CleanRoundtrip, DecodesEveryBlockExactly)
{
    const auto [tau, delta, pixel_size, level] = GetParam();
    auto config = paper_config(480, 270);
    config.geometry = inframe::coding::fitted_geometry(480, 270, pixel_size);
    config.tau = tau;
    config.delta = delta;

    Inframe_encoder encoder(config);
    Prng prng(static_cast<std::uint64_t>(tau) * 1000 + pixel_size);
    const auto payload =
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame()));
    encoder.queue_payload(payload);
    encoder.queue_payload(
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame())));
    const auto truth = inframe::coding::encode_gob_parity(config.geometry, payload);

    Inframe_decoder decoder(make_decoder_params(config, 480, 270));
    const Imagef video(480, 270, 1, level);
    std::vector<Data_frame_result> results;
    for (int j = 0; j < 2 * tau; ++j) {
        const Imagef frame = encoder.next_display_frame(video);
        if (j % 4 == 0) {
            for (auto& r : decoder.push_capture(frame, j / 120.0)) {
                results.push_back(std::move(r));
            }
        }
    }
    if (auto last = decoder.flush()) results.push_back(std::move(*last));

    ASSERT_FALSE(results.empty());
    const auto& r0 = results.front();
    EXPECT_DOUBLE_EQ(r0.gob.available_ratio, 1.0);
    EXPECT_DOUBLE_EQ(r0.gob.error_rate, 0.0);
    for (std::size_t b = 0; b < truth.size(); ++b) {
        const auto expected = truth[b] ? Block_decision::one : Block_decision::zero;
        EXPECT_EQ(r0.decisions[b], expected) << "block " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    TauDeltaPixelLevelGrid, CleanRoundtrip,
    ::testing::Combine(::testing::Values(8, 12, 16),          // tau
                       ::testing::Values(12.0f, 20.0f, 40.0f), // delta
                       ::testing::Values(1, 2),                // pixel size
                       ::testing::Values(90.0f, 127.0f, 180.0f)) // video level
);

// ---------------------------------------------------------------------
// Invariant 2: the complementary pair always averages back to the video,
// for any content and any amplitude (with the local cap enabled).
// ---------------------------------------------------------------------

using Pair_params = std::tuple<float, int>; // delta, content seed

class ComplementaryCancellation : public ::testing::TestWithParam<Pair_params> {};

TEST_P(ComplementaryCancellation, PairAverageEqualsVideo)
{
    const auto [delta, seed] = GetParam();
    auto config = paper_config(480, 270);
    config.delta = delta;
    Prng prng(static_cast<std::uint64_t>(seed));
    // Arbitrary content, including values near both rails.
    Imagef video(480, 270, 1);
    for (auto& v : video.values()) v = static_cast<float>(prng.next_double(0.0, 255.0));
    const auto bits = prng.next_bits(static_cast<std::size_t>(config.geometry.block_count()));

    const auto pair = make_complementary_pair(config, video, bits);
    const Imagef sum = inframe::img::add(pair.plus, pair.minus);
    const Imagef twice = inframe::img::affine(video, 2.0f, 0.0f);
    EXPECT_LT(inframe::img::mae(sum, twice), 1e-3) << "delta " << delta << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(DeltaSeedGrid, ComplementaryCancellation,
                         ::testing::Combine(::testing::Values(5.0f, 20.0f, 60.0f, 120.0f),
                                            ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------
// Invariant 3: GOB parity accounting identities hold for arbitrary
// decision patterns: payload size, trusted-bit count vs available/ok GOBs.
// ---------------------------------------------------------------------

class GobAccounting : public ::testing::TestWithParam<int> {};

TEST_P(GobAccounting, IdentitiesHoldForRandomDecisionPatterns)
{
    const int seed = GetParam();
    const auto geometry = inframe::coding::paper_geometry(480, 270);
    Prng prng(static_cast<std::uint64_t>(seed));
    std::vector<inframe::coding::Block_decision> decisions(
        static_cast<std::size_t>(geometry.block_count()));
    for (auto& d : decisions) {
        const auto roll = prng.next_below(10);
        d = roll < 4   ? inframe::coding::Block_decision::zero
            : roll < 8 ? inframe::coding::Block_decision::one
                       : inframe::coding::Block_decision::unknown;
    }
    const auto result = inframe::coding::decode_gob_parity(geometry, decisions);

    ASSERT_EQ(result.gobs.size(), static_cast<std::size_t>(geometry.gob_count()));
    ASSERT_EQ(result.payload_bits.size(),
              static_cast<std::size_t>(geometry.payload_bits_per_frame()));
    ASSERT_EQ(result.payload_bit_trusted.size(), result.payload_bits.size());

    std::size_t available = 0;
    std::size_t ok = 0;
    for (const auto& gob : result.gobs) {
        available += gob.available;
        ok += gob.available && gob.parity_ok;
    }
    EXPECT_NEAR(result.available_ratio,
                static_cast<double>(available) / geometry.gob_count(), 1e-12);
    if (available > 0) {
        EXPECT_NEAR(result.error_rate,
                    static_cast<double>(available - ok) / static_cast<double>(available),
                    1e-12);
    }
    // Trusted bits = 3 per parity-OK GOB, and the mask agrees.
    EXPECT_EQ(result.good_payload_bits, ok * 3);
    std::size_t mask_count = 0;
    for (const auto t : result.payload_bit_trusted) mask_count += t;
    EXPECT_EQ(mask_count, result.good_payload_bits);
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, GobAccounting, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// Invariant 4: Frame_codec round-trips any payload size it admits.
// ---------------------------------------------------------------------

class CodecRoundtrip : public ::testing::TestWithParam<int> {}; // payload size

TEST_P(CodecRoundtrip, BuildParseIdentity)
{
    const int payload_bytes = GetParam();
    const Frame_codec codec(1125, Session_options{});
    ASSERT_LE(payload_bytes, codec.max_payload_bytes());
    Prng prng(static_cast<std::uint64_t>(payload_bytes) + 1000);
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_bytes));
    prng.fill_bytes(payload);
    const auto bits = codec.build(42, payload);
    ASSERT_EQ(bits.size(), 1125u);
    const auto parsed = codec.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->sequence, 42u);
    EXPECT_EQ(parsed->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, CodecRoundtrip, ::testing::Values(0, 1, 17, 28));

// ---------------------------------------------------------------------
// Invariant 5: erasure-aware parsing recovers frames whose untrusted
// regions carry arbitrary garbage, up to the parity budget.
// ---------------------------------------------------------------------

class ErasureRecovery : public ::testing::TestWithParam<int> {};

TEST_P(ErasureRecovery, GarbageInUntrustedBitsIsCorrected)
{
    const int lost_gobs = GetParam();
    const Frame_codec codec(1125, Session_options{});
    Prng prng(static_cast<std::uint64_t>(lost_gobs) * 31);
    std::vector<std::uint8_t> payload(16);
    prng.fill_bytes(payload);
    auto bits = codec.build(7, payload);
    std::vector<std::uint8_t> trusted(bits.size(), 1);
    // Each lost GOB wipes 3 consecutive payload bits.
    for (int g = 0; g < lost_gobs; ++g) {
        const auto start = static_cast<std::size_t>(g) * 9 + 2;
        for (std::size_t b = start; b < start + 3 && b < bits.size(); ++b) {
            bits[b] = static_cast<std::uint8_t>(prng.next_below(2));
            trusted[b] = 0;
        }
    }
    const auto parsed = codec.parse(bits, trusted);
    ASSERT_TRUE(parsed.has_value()) << lost_gobs << " lost GOBs";
    EXPECT_EQ(parsed->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(LostGobCounts, ErasureRecovery,
                         ::testing::Values(0, 1, 5, 20, 60));

// ---------------------------------------------------------------------
// Invariant 6: randomized round trips over 500 seeded configurations.
// GOB parity encode -> decode is the identity on clean channels, and
// stays the identity under one erased block per GOB (the parity layer's
// exact correction bound).
// ---------------------------------------------------------------------

TEST(RandomizedRoundtrip, GobParityIdentityOverFiveHundredSeeds)
{
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        Prng prng(seed * 0x9e37'79b9'7f4a'7c15ULL);

        // Random small geometry: GOB side 2 or 3, 2..5 GOBs per axis.
        inframe::coding::Code_geometry geometry;
        geometry.gob_size = prng.next_below(2) == 0 ? 2 : 3;
        geometry.blocks_x =
            geometry.gob_size * (2 + static_cast<int>(prng.next_below(4)));
        geometry.blocks_y =
            geometry.gob_size * (2 + static_cast<int>(prng.next_below(4)));
        geometry.pixel_size = 1;
        geometry.block_pixels = 4;
        geometry.screen_width = geometry.blocks_x * 4;
        geometry.screen_height = geometry.blocks_y * 4;
        ASSERT_NO_THROW(geometry.validate()) << "seed " << seed;

        const auto payload = prng.next_bits(
            static_cast<std::size_t>(geometry.payload_bits_per_frame()));
        const auto block_bits = inframe::coding::encode_gob_parity(geometry, payload);

        std::vector<Block_decision> decisions(block_bits.size());
        for (std::size_t b = 0; b < block_bits.size(); ++b) {
            decisions[b] = block_bits[b] ? Block_decision::one : Block_decision::zero;
        }

        // Clean channel: both modes are the identity.
        for (const bool erasure_fill : {false, true}) {
            const auto decoded = inframe::coding::decode_gob_parity(geometry, decisions, 0,
                                                                    erasure_fill);
            ASSERT_DOUBLE_EQ(decoded.available_ratio, 1.0) << "seed " << seed;
            ASSERT_EQ(decoded.payload_bits, payload)
                << "seed " << seed << " erasure_fill " << erasure_fill;
        }

        // Erasure channel at the exact correction bound: one erased block
        // in a random slot of each of a random subset of GOBs.
        auto erased = decisions;
        const int m = geometry.gob_size;
        for (int gy = 0; gy < geometry.gobs_y(); ++gy) {
            for (int gx = 0; gx < geometry.gobs_x(); ++gx) {
                if (prng.next_double() < 0.5) continue;
                const auto slot = static_cast<int>(
                    prng.next_below(static_cast<std::uint64_t>(m * m)));
                erased[static_cast<std::size_t>(geometry.block_index(
                    gx * m + slot % m, gy * m + slot / m))] = Block_decision::unknown;
            }
        }
        const auto recovered =
            inframe::coding::decode_gob_parity(geometry, erased, 0, true);
        ASSERT_DOUBLE_EQ(recovered.available_ratio, 1.0) << "seed " << seed;
        ASSERT_EQ(recovered.payload_bits, payload)
            << "seed " << seed;
    }
}

TEST(RandomizedRoundtrip, RsFramingSurvivesBoundedErrorsAndErasures)
{
    // Frame_codec in RS mode (capacity 1125 bits -> RS(140, 63), error
    // budget n - k = 77 symbols). Each flipped bit corrupts at most one
    // symbol and each 24-bit untrusted run at most 4, so the injected
    // pattern below stays well inside 2e + s <= n - k for every draw.
    const Frame_codec codec(1125, Session_options{});
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        Prng prng(seed * 0xd1b5'4a32'd192'ed03ULL);
        std::vector<std::uint8_t> payload(prng.next_below(
            static_cast<std::uint64_t>(codec.max_payload_bytes()) + 1));
        prng.fill_bytes(payload);
        auto bits = codec.build(static_cast<std::uint32_t>(seed), payload);
        std::vector<std::uint8_t> trusted(bits.size(), 1);

        // Up to 10 isolated bit flips (undeclared errors)...
        const auto flips = prng.next_below(11);
        for (std::uint64_t f = 0; f < flips; ++f) {
            bits[static_cast<std::size_t>(prng.next_below(bits.size()))] ^= 1;
        }
        // ...plus up to 3 untrusted 24-bit bursts of garbage (erasures).
        const auto bursts = prng.next_below(4);
        for (std::uint64_t r = 0; r < bursts; ++r) {
            const auto start =
                static_cast<std::size_t>(prng.next_below(bits.size() - 24));
            for (std::size_t b = start; b < start + 24; ++b) {
                bits[b] = static_cast<std::uint8_t>(prng.next_below(2));
                trusted[b] = 0;
            }
        }

        const auto parsed = codec.parse(bits, trusted);
        ASSERT_TRUE(parsed.has_value()) << "seed " << seed << ": " << flips
                                        << " flips, " << bursts << " bursts";
        EXPECT_EQ(parsed->sequence, static_cast<std::uint32_t>(seed));
        EXPECT_EQ(parsed->payload, payload) << "seed " << seed;
    }
}

} // namespace
