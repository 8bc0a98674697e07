#include "core/encoder.hpp"

#include "imgproc/image_ops.hpp"
#include "imgproc/metrics.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace {

using namespace inframe::core;
using inframe::img::Imagef;
using inframe::util::Contract_violation;
using inframe::util::Prng;

Inframe_config small_config()
{
    auto config = paper_config(480, 270); // p = 1, 50x30 blocks, 1125 bits
    config.tau = 8;
    return config;
}

std::vector<std::uint8_t> random_payload(const Inframe_config& config, std::uint64_t seed)
{
    Prng prng(seed);
    return prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame()));
}

TEST(Encoder, ComplementaryPairAveragesBackToVideo)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    encoder.queue_payload(random_payload(config, 1));
    const Imagef video(480, 270, 1, 127.0f);
    const Imagef plus = encoder.next_display_frame(video);
    const Imagef minus = encoder.next_display_frame(video);
    // (V+D) + (V-D) == 2V exactly (no clamping at mid gray).
    Imagef sum = inframe::img::add(plus, minus);
    const Imagef twice = inframe::img::affine(video, 2.0f, 0.0f);
    EXPECT_LT(inframe::img::mae(sum, twice), 1e-4);
}

TEST(Encoder, FirstFrameCarriesTheChessboard)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    auto payload = random_payload(config, 2);
    encoder.queue_payload(payload);
    const Imagef video(480, 270, 1, 127.0f);
    const Imagef plus = encoder.next_display_frame(video);
    // Identify a bit-1 block from the recorded truth and check amplitude.
    const auto* truth = encoder.transmitted_block_bits(0);
    ASSERT_NE(truth, nullptr);
    bool checked_one = false;
    bool checked_zero = false;
    const auto& g = config.geometry;
    for (int by = 0; by < g.blocks_y && !(checked_one && checked_zero); ++by) {
        for (int bx = 0; bx < g.blocks_x; ++bx) {
            const auto rect = g.block_rect(bx, by);
            const double deviation = inframe::img::mean_abs_region(
                inframe::img::abs_diff(plus, video), rect.x0, rect.y0, rect.size, rect.size);
            if ((*truth)[static_cast<std::size_t>(g.block_index(bx, by))]) {
                // ~half the Pixels raised by delta.
                EXPECT_NEAR(deviation, config.delta * 4.0 / 9.0, 1.0);
                checked_one = true;
            } else {
                EXPECT_NEAR(deviation, 0.0, 1e-4);
                checked_zero = true;
            }
        }
    }
    EXPECT_TRUE(checked_one);
    EXPECT_TRUE(checked_zero);
}

TEST(Encoder, IdlesWithPlainVideoWhenQueueEmpty)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    const Imagef video(480, 270, 1, 127.0f);
    const Imagef out = encoder.next_display_frame(video);
    EXPECT_LT(inframe::img::mae(out, video), 1e-4);
}

TEST(Encoder, AmplitudeHoldsInFirstHalfOfCycle)
{
    const auto config = small_config(); // tau = 8
    Inframe_encoder encoder(config);
    encoder.queue_payload(random_payload(config, 3));
    encoder.queue_payload(random_payload(config, 4));
    const Imagef video(480, 270, 1, 127.0f);
    // Frames 0 and 2 are both +D at full amplitude.
    const Imagef f0 = encoder.next_display_frame(video);
    encoder.next_display_frame(video);
    const Imagef f2 = encoder.next_display_frame(video);
    EXPECT_LT(inframe::img::mae(f0, f2), 1e-4);
}

TEST(Encoder, TransitionRampsWhenBitsFlip)
{
    auto config = small_config(); // tau = 8, transition in frames 4..7
    Inframe_encoder encoder(config);
    const auto count = static_cast<std::size_t>(config.geometry.block_count());
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 1));
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 0));
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 0));
    const Imagef video(480, 270, 1, 127.0f);
    std::vector<double> amplitude;
    for (int j = 0; j < 16; ++j) {
        const Imagef out = encoder.next_display_frame(video);
        amplitude.push_back(inframe::img::mean(inframe::img::abs_diff(out, video)));
    }
    // Full amplitude while holding, strictly decaying through the
    // transition, zero in the second data frame.
    EXPECT_NEAR(amplitude[0], amplitude[3], 1e-4);
    EXPECT_GT(amplitude[3], amplitude[5]);
    EXPECT_GT(amplitude[5], amplitude[6]);
    EXPECT_NEAR(amplitude[8], 0.0, 1e-4);
    EXPECT_NEAR(amplitude[15], 0.0, 1e-4);
}

TEST(Encoder, LocalCapPreventsClippingAndKeepsComplementarity)
{
    auto config = small_config();
    Inframe_encoder encoder(config);
    const auto count = static_cast<std::size_t>(config.geometry.block_count());
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 1));
    // Nearly white video: headroom is only 5 levels.
    const Imagef video(480, 270, 1, 250.0f);
    const Imagef plus = encoder.next_display_frame(video);
    const Imagef minus = encoder.next_display_frame(video);
    const auto [lo_p, hi_p] = inframe::img::min_max(plus);
    EXPECT_LE(hi_p, 255.0f);
    // Amplitude capped at 5, not delta = 20.
    EXPECT_NEAR(hi_p, 255.0f, 1e-3f);
    EXPECT_GE(lo_p, 249.9f);
    // The pair still averages to the video.
    const Imagef sum = inframe::img::add(plus, minus);
    EXPECT_LT(inframe::img::mae(sum, inframe::img::affine(video, 2.0f, 0.0f)), 1e-3);
}

TEST(Encoder, CapDisabledClipsInstead)
{
    auto config = small_config();
    config.local_amplitude_cap = false;
    Inframe_encoder encoder(config);
    const auto count = static_cast<std::size_t>(config.geometry.block_count());
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 1));
    const Imagef video(480, 270, 1, 250.0f);
    const Imagef plus = encoder.next_display_frame(video);
    const Imagef minus = encoder.next_display_frame(video);
    // Clipping breaks complementarity: the average is biased dark.
    const Imagef sum = inframe::img::add(plus, minus);
    EXPECT_GT(inframe::img::mae(sum, inframe::img::affine(video, 2.0f, 0.0f)), 1.0);
}

TEST(Encoder, TracksTransmittedBits)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    auto bits_a = random_payload(config, 5);
    encoder.queue_payload(bits_a);
    const Imagef video(480, 270, 1, 127.0f);
    EXPECT_EQ(encoder.transmitted_block_bits(0), nullptr); // nothing on air yet
    encoder.next_display_frame(video);
    ASSERT_NE(encoder.transmitted_block_bits(0), nullptr);
    EXPECT_EQ(encoder.display_index(), 1);
    EXPECT_EQ(encoder.data_frame_index(), 0);
}

TEST(Encoder, RejectsWrongVideoSize)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    EXPECT_THROW(encoder.next_display_frame(Imagef(100, 100)), Contract_violation);
}

TEST(Encoder, RejectsWrongBlockBitCount)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    EXPECT_THROW(encoder.queue_block_bits(std::vector<std::uint8_t>(10, 0)),
                 Contract_violation);
}

TEST(ComplementaryPair, AveragesToVideoAndDiffers)
{
    const auto config = small_config();
    Prng prng(6);
    const auto bits = prng.next_bits(static_cast<std::size_t>(config.geometry.block_count()));
    const Imagef video(480, 270, 1, 127.0f);
    const auto pair = make_complementary_pair(config, video, bits);
    const Imagef sum = inframe::img::add(pair.plus, pair.minus);
    EXPECT_LT(inframe::img::mae(sum, inframe::img::affine(video, 2.0f, 0.0f)), 1e-4);
    EXPECT_GT(inframe::img::mae(pair.plus, pair.minus), 1.0);
    // Each frame alone has visible artifacts (low PSNR vs video), the
    // average does not — Fig. 4's point.
    EXPECT_LT(inframe::img::psnr(pair.plus, video), 35.0);
}

TEST(Encoder, PauseRampsOutSmoothlyAndRendersPlainVideo)
{
    const auto config = small_config(); // tau = 8
    Inframe_encoder encoder(config);
    const auto count = static_cast<std::size_t>(config.geometry.block_count());
    for (int i = 0; i < 6; ++i) encoder.queue_block_bits(std::vector<std::uint8_t>(count, 1));
    const Imagef video(480, 270, 1, 127.0f);

    // Air most of the first data frame, then pause.
    for (int j = 0; j < 3; ++j) encoder.next_display_frame(video);
    encoder.pause();
    EXPECT_TRUE(encoder.paused());
    EXPECT_FALSE(encoder.idle());

    std::vector<double> amplitude;
    for (int j = 3; j < 3 * config.tau; ++j) {
        const Imagef out = encoder.next_display_frame(video);
        amplitude.push_back(inframe::img::mean(inframe::img::abs_diff(out, video)));
    }
    // The current cycle finishes with a ramp (no abrupt cut): amplitude
    // still present mid-transition (the ramp reaches exactly zero on the
    // cycle's final frame).
    EXPECT_GT(amplitude[0], 0.0);
    const auto half = static_cast<std::size_t>(config.tau / 2);
    EXPECT_GT(amplitude[half - 1], 0.0);
    // ...and everything after the cycle boundary is plain video.
    for (std::size_t i = static_cast<std::size_t>(config.tau) - 3; i < amplitude.size(); ++i) {
        EXPECT_NEAR(amplitude[i], 0.0, 1e-4) << "frame " << i;
    }
    EXPECT_TRUE(encoder.idle());

    // Resume: queued data continues with a smooth ramp back in.
    encoder.resume();
    EXPECT_FALSE(encoder.paused());
    bool data_returned = false;
    for (int j = 0; j < 3 * config.tau; ++j) {
        const Imagef out = encoder.next_display_frame(video);
        data_returned |= inframe::img::mean(inframe::img::abs_diff(out, video)) > 1.0;
    }
    EXPECT_TRUE(data_returned);
}

TEST(Encoder, PauseBeforeFirstFrameIsImmediatelyIdle)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    const auto count = static_cast<std::size_t>(config.geometry.block_count());
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 1));
    encoder.pause();
    const Imagef video(480, 270, 1, 127.0f);
    const Imagef out = encoder.next_display_frame(video);
    EXPECT_LT(inframe::img::mae(out, video), 1e-4);
    EXPECT_TRUE(encoder.idle());
}

TEST(Encoder, PauseDoesNotLoseQueuedData)
{
    const auto config = small_config();
    Inframe_encoder encoder(config);
    Prng prng(9);
    const auto bits_a = prng.next_bits(static_cast<std::size_t>(config.geometry.block_count()));
    const auto bits_b = prng.next_bits(static_cast<std::size_t>(config.geometry.block_count()));
    encoder.queue_block_bits(bits_a);
    encoder.queue_block_bits(bits_b);
    const Imagef video(480, 270, 1, 127.0f);
    encoder.next_display_frame(video); // airs frame 0 (bits_a), peeks bits_b
    encoder.pause();
    for (int j = 1; j < 2 * config.tau; ++j) encoder.next_display_frame(video);
    encoder.resume();
    // bits_b must air after resume.
    bool found = false;
    for (int j = 0; j < 3 * config.tau && !found; ++j) {
        encoder.next_display_frame(video);
        const auto index = encoder.data_frame_index();
        const auto* bits = encoder.transmitted_block_bits(index);
        found = bits != nullptr && *bits == bits_b;
    }
    EXPECT_TRUE(found);

    // An all-zero data frame is data, not idle filler: queue A, Z, B and
    // pause after one display frame. Z was peeked ahead, so it must go
    // back to the queue ahead of B and air right before it.
    Inframe_encoder zero_encoder(config);
    const std::vector<std::uint8_t> zeros(bits_a.size(), 0);
    zero_encoder.queue_block_bits(bits_a);
    zero_encoder.queue_block_bits(zeros);
    zero_encoder.queue_block_bits(bits_b);
    zero_encoder.next_display_frame(video); // airs A, peeks Z
    zero_encoder.pause();
    EXPECT_EQ(zero_encoder.queued_data_frames(), 2u);
    for (int j = 1; j < 2 * config.tau; ++j) zero_encoder.next_display_frame(video);
    zero_encoder.resume();
    std::int64_t b_index = -1;
    for (int j = 0; j < 4 * config.tau && b_index < 0; ++j) {
        zero_encoder.next_display_frame(video);
        const auto index = zero_encoder.data_frame_index();
        const auto* bits = zero_encoder.transmitted_block_bits(index);
        if (bits != nullptr && *bits == bits_b) b_index = index;
    }
    ASSERT_GT(b_index, 0);
    const auto* before_b = zero_encoder.transmitted_block_bits(b_index - 1);
    ASSERT_NE(before_b, nullptr);
    EXPECT_EQ(*before_b, zeros);
    EXPECT_EQ(zero_encoder.queued_data_frames(), 0u);
}

TEST(Encoder, CapFollowsTheFrameItIsGiven)
{
    // The local cap is a function of the video frame each call receives.
    // Here the video changes off the video_repeat() grid (display 1 of 4),
    // and the pair on displays 2 and 3 must still average back to it.
    const auto config = small_config();
    Inframe_encoder encoder(config);
    const auto count = static_cast<std::size_t>(config.geometry.block_count());
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 1));
    encoder.queue_block_bits(std::vector<std::uint8_t>(count, 1));
    encoder.next_display_frame(Imagef(480, 270, 1, 100.0f));
    const Imagef video(480, 270, 1, 250.0f);
    encoder.next_display_frame(video);
    const Imagef plus = encoder.next_display_frame(video);
    const Imagef minus = encoder.next_display_frame(video);
    float worst = 0.0f;
    for (std::size_t i = 0; i < video.values().size(); ++i) {
        const float mean = 0.5f * (plus.values()[i] + minus.values()[i]);
        worst = std::max(worst, std::abs(mean - video.values()[i]));
    }
    EXPECT_LE(worst, 1e-3f);
}

TEST(ComplementaryPair, SizeValidation)
{
    const auto config = small_config();
    const Imagef wrong(100, 100);
    const std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(config.geometry.block_count()), 0);
    EXPECT_THROW(make_complementary_pair(config, wrong, bits), Contract_violation);
}

} // namespace
