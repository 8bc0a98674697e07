#include "core/decoder.hpp"

#include "core/encoder.hpp"
#include "core/session.hpp"
#include "imgproc/draw.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe::core;
using inframe::coding::Block_decision;
using inframe::img::Imagef;
using inframe::util::Contract_violation;
using inframe::util::Prng;

Inframe_config small_config()
{
    auto config = paper_config(480, 270);
    config.tau = 8;
    return config;
}

Decoder_params small_decoder(const Inframe_config& config)
{
    // Same-resolution "camera" for unit tests: geometry mapping is 1:1.
    return make_decoder_params(config, 480, 270);
}

std::vector<std::uint8_t> random_blocks(const Inframe_config& config, std::uint64_t seed)
{
    Prng prng(seed);
    return prng.next_bits(static_cast<std::size_t>(config.geometry.block_count()));
}

TEST(Decoder, MetricsSeparateBitOneFromBitZero)
{
    const auto config = small_config();
    const auto bits = random_blocks(config, 1);
    const Imagef video(480, 270, 1, 127.0f);
    const auto pair = make_complementary_pair(config, video, bits);

    Inframe_decoder decoder(small_decoder(config));
    const auto metrics = decoder.block_metrics(pair.plus);
    double max_zero = 0.0;
    double min_one = 1e9;
    for (std::size_t b = 0; b < bits.size(); ++b) {
        if (bits[b]) {
            min_one = std::min(min_one, metrics[b]);
        } else {
            max_zero = std::max(max_zero, metrics[b]);
        }
    }
    EXPECT_GT(min_one, 2.0 * max_zero + 1.0);
}

TEST(Decoder, MetricsWorkOnTheMinusFrameToo)
{
    const auto config = small_config();
    const auto bits = random_blocks(config, 2);
    const Imagef video(480, 270, 1, 127.0f);
    const auto pair = make_complementary_pair(config, video, bits);
    Inframe_decoder decoder(small_decoder(config));
    const auto plus_metrics = decoder.block_metrics(pair.plus);
    const auto minus_metrics = decoder.block_metrics(pair.minus);
    for (std::size_t b = 0; b < bits.size(); ++b) {
        EXPECT_NEAR(plus_metrics[b], minus_metrics[b], 0.5);
    }
}

TEST(Decoder, SplitDetectsBimodalMetrics)
{
    const auto config = small_config();
    Inframe_decoder decoder(small_decoder(config));
    std::vector<double> metrics;
    for (int i = 0; i < 50; ++i) metrics.push_back(0.5 + 0.01 * i);
    for (int i = 0; i < 50; ++i) metrics.push_back(8.0 + 0.01 * i);
    const auto split = decoder.split_metrics(metrics);
    EXPECT_TRUE(split.bimodal);
    EXPECT_GT(split.value, 1.0);
    EXPECT_LT(split.value, 8.0);
}

TEST(Decoder, SplitFlagsUnimodalMetrics)
{
    const auto config = small_config();
    Inframe_decoder decoder(small_decoder(config));
    std::vector<double> metrics;
    for (int i = 0; i < 100; ++i) metrics.push_back(1.0 + 0.005 * i);
    EXPECT_FALSE(decoder.split_metrics(metrics).bimodal);
}

TEST(Decoder, EndToEndCleanCaptureDecodesExactly)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    Prng prng(3);
    const auto payload_bits =
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame()));
    encoder.queue_payload(payload_bits);
    encoder.queue_payload(
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame())));
    const auto bits = inframe::coding::encode_gob_parity(config.geometry, payload_bits);
    const Imagef video(480, 270, 1, 127.0f);

    Inframe_decoder decoder(small_decoder(config));
    std::vector<Data_frame_result> results;
    // Display frames 0..7 are data frame 0; feed every 4th frame as a
    // clean "capture" (30 FPS camera, perfectly aligned, no noise).
    for (int j = 0; j < 2 * config.tau; ++j) {
        const Imagef frame = encoder.next_display_frame(video);
        if (j % 4 == 0) {
            for (auto& r : decoder.push_capture(frame, j / 120.0)) results.push_back(std::move(r));
        }
    }
    if (auto last = decoder.flush()) results.push_back(std::move(*last));

    ASSERT_GE(results.size(), 1u);
    const auto& r0 = results[0];
    EXPECT_EQ(r0.data_frame_index, 0);
    EXPECT_DOUBLE_EQ(r0.gob.available_ratio, 1.0);
    EXPECT_DOUBLE_EQ(r0.gob.error_rate, 0.0);
    for (std::size_t b = 0; b < bits.size(); ++b) {
        const auto expected = bits[b] ? Block_decision::one : Block_decision::zero;
        EXPECT_EQ(r0.decisions[b], expected) << "block " << b;
    }
}

TEST(Decoder, TransitionRegionCapturesDoNotVote)
{
    const auto config = small_config(); // tau = 8: stable phase < 0.5 => frames 0..3
    Inframe_decoder decoder(small_decoder(config));
    const Imagef capture(480, 270, 1, 127.0f);
    // Captures at display frames 5 and 7 (phases 0.625, 0.875): ignored.
    decoder.push_capture(capture, 5.0 / 120.0);
    decoder.push_capture(capture, 7.0 / 120.0);
    const auto result = decoder.flush();
    EXPECT_FALSE(result.has_value());
}

TEST(Decoder, UniformCaptureYieldsUnknownRows)
{
    // A capture with no pattern at all (e.g. total rolling-shutter
    // cancellation): rows are unimodal, so everything stays unknown
    // rather than reading confident zeros.
    const auto config = small_config();
    Inframe_decoder decoder(small_decoder(config));
    Prng prng(5);
    Imagef capture(480, 270, 1, 127.0f);
    for (auto& v : capture.values()) v += static_cast<float>(prng.next_gaussian(0.0, 1.0));
    decoder.push_capture(capture, 0.0);
    const auto result = decoder.flush();
    ASSERT_TRUE(result.has_value());
    for (const auto d : result->decisions) EXPECT_EQ(d, Block_decision::unknown);
    EXPECT_DOUBLE_EQ(result->gob.available_ratio, 0.0);
}

TEST(Decoder, PartialCancellationBandGoesUnknownNotWrong)
{
    // Top 2/3 of the capture carries the pattern, bottom 1/3 lost it
    // (simulated rolling-shutter seam). Bottom rows must come back
    // unknown; top rows decode correctly.
    const auto config = small_config();
    const auto bits = random_blocks(config, 6);
    const Imagef video(480, 270, 1, 127.0f);
    auto pair = make_complementary_pair(config, video, bits);
    inframe::img::fill_rect(pair.plus, 0, 180, 480, 90, 127.0f);

    Inframe_decoder decoder(small_decoder(config));
    decoder.push_capture(pair.plus, 0.0);
    const auto result = decoder.flush();
    ASSERT_TRUE(result.has_value());
    const auto& g = config.geometry;
    int wrong = 0;
    int unknown_bottom = 0;
    int bottom = 0;
    for (int by = 0; by < g.blocks_y; ++by) {
        for (int bx = 0; bx < g.blocks_x; ++bx) {
            const auto rect = g.block_rect(bx, by);
            const auto index = static_cast<std::size_t>(g.block_index(bx, by));
            const auto decision = result->decisions[index];
            if (rect.y0 >= 180) {
                ++bottom;
                unknown_bottom += decision == Block_decision::unknown;
                continue;
            }
            if (decision == Block_decision::unknown) continue;
            const auto expected = bits[index] ? Block_decision::one : Block_decision::zero;
            wrong += decision != expected;
        }
    }
    EXPECT_EQ(wrong, 0);
    EXPECT_GT(bottom, 0);
    // The wiped band must be dominated by unknowns (not confident zeros).
    EXPECT_GT(static_cast<double>(unknown_bottom) / bottom, 0.9);
}

TEST(Decoder, CaptureSizeMismatchThrows)
{
    const auto config = small_config();
    Inframe_decoder decoder(small_decoder(config));
    EXPECT_THROW(decoder.block_metrics(Imagef(100, 100)), Contract_violation);
}

TEST(Decoder, ParamsValidation)
{
    auto params = small_decoder(small_config());
    params.tau = 7;
    EXPECT_THROW(Inframe_decoder{params}, Contract_violation);
    params = small_decoder(small_config());
    params.hysteresis = 1.5;
    EXPECT_THROW(Inframe_decoder{params}, Contract_violation);
    params = small_decoder(small_config());
    params.capture_width = 0;
    EXPECT_THROW(Inframe_decoder{params}, Contract_violation);
}

TEST(Decoder, LaterCaptureFinalizesEarlierFrames)
{
    const auto config = small_config(); // tau = 8 -> frame period 1/15 s
    const auto bits = random_blocks(config, 7);
    const Imagef video(480, 270, 1, 127.0f);
    const auto pair = make_complementary_pair(config, video, bits);

    Inframe_decoder decoder(small_decoder(config));
    EXPECT_TRUE(decoder.push_capture(pair.plus, 0.0).empty());
    // A capture two data-frame periods later finalizes frames 0 and 1.
    const auto finalized = decoder.push_capture(pair.plus, 2.0 * 8.0 / 120.0);
    ASSERT_EQ(finalized.size(), 2u);
    EXPECT_EQ(finalized[0].data_frame_index, 0);
    EXPECT_EQ(finalized[0].captures_used, 1);
    EXPECT_EQ(finalized[1].data_frame_index, 1);
    EXPECT_EQ(finalized[1].captures_used, 0);
}

} // namespace
