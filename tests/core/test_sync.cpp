#include "core/sync.hpp"

#include "core/encoder.hpp"
#include "core/session.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace inframe::core;
using inframe::coding::Block_decision;
using inframe::img::Imagef;
using inframe::util::Prng;

Inframe_config small_config()
{
    auto config = paper_config(480, 270);
    config.tau = 8;
    return config;
}

// Generates clean "captures" (every 4th display frame) with the given
// unknown start offset applied to the receiver clock.
struct Offset_stream {
    Inframe_encoder encoder;
    Imagef video{480, 270, 1, 127.0f};
    double offset;
    std::int64_t display_index = 0;

    Offset_stream(const Inframe_config& config, double offset_s, std::uint64_t seed)
        : encoder(config), offset(offset_s)
    {
        Prng prng(seed);
        for (int i = 0; i < 64; ++i) {
            encoder.queue_payload(prng.next_bits(
                static_cast<std::size_t>(config.geometry.payload_bits_per_frame())));
        }
        // Transmitter has been running for `offset` seconds before the
        // receiver started its clock: skip those display frames.
        const auto skip = static_cast<std::int64_t>(std::llround(offset_s * 120.0));
        for (std::int64_t i = 0; i < skip; ++i) {
            encoder.next_display_frame(video);
            ++display_index;
        }
    }

    // Next (capture, receiver_time) pair at ~30 FPS.
    std::pair<Imagef, double> next_capture()
    {
        Imagef frame = encoder.next_display_frame(video);
        const double receiver_time =
            static_cast<double>(display_index) / 120.0 - offset;
        display_index += 4;
        for (int i = 0; i < 3; ++i) encoder.next_display_frame(video);
        return {std::move(frame), receiver_time};
    }
};

TEST(PhaseEstimator, NeedsEnoughCaptures)
{
    const auto config = small_config();
    Phase_estimator estimator(make_decoder_params(config, 480, 270));
    Offset_stream stream(config, 0.0, 1);
    for (int i = 0; i < 5; ++i) {
        auto [frame, time] = stream.next_capture();
        estimator.push_capture(frame, time);
    }
    EXPECT_FALSE(estimator.estimated_offset().has_value());
}

TEST(PhaseEstimator, LocksOnAlignedStream)
{
    const auto config = small_config();
    Phase_estimator estimator(make_decoder_params(config, 480, 270));
    Offset_stream stream(config, 0.0, 2);
    for (int i = 0; i < 30; ++i) {
        auto [frame, time] = stream.next_capture();
        estimator.push_capture(frame, time);
    }
    const auto offset = estimator.estimated_offset();
    ASSERT_TRUE(offset.has_value()) << "score " << estimator.lock_score();
    // Any offset equivalent under capture assignment is acceptable: the
    // aligned stream's captures sit at phases 0 and 0.5, so the offset
    // must keep phase-0 captures inside [0, 0.5).
    const double period = config.tau / 120.0;
    const double phase = std::fmod(period - *offset, period) / period;
    EXPECT_TRUE(phase < 0.5 || phase > 0.95) << "offset " << *offset;
}

class PhaseEstimatorOffsets : public ::testing::TestWithParam<int> {};

TEST_P(PhaseEstimatorOffsets, SyncedDecoderRecoversTruthForAnyStartOffset)
{
    // The transmitter started `k` display frames before the receiver; the
    // acceptance criterion is end-to-end: after phase lock, every decoded
    // confident block matches the transmitted bits of *some consistent*
    // data-frame alignment.
    const int k = GetParam();
    const auto config = small_config();
    Offset_stream stream(config, k / 120.0, 77 + static_cast<std::uint64_t>(k));
    Synced_decoder decoder(make_decoder_params(config, 480, 270));

    int matched_frames = 0;
    for (int i = 0; i < 60; ++i) {
        auto [frame, time] = stream.next_capture();
        for (const auto& result : decoder.push_capture(frame, time)) {
            if (result.captures_used == 0) continue;
            // Find the transmitted frame this decode corresponds to.
            bool found = false;
            for (std::int64_t tx = result.data_frame_index;
                 tx <= result.data_frame_index + 2 && !found; ++tx) {
                const auto* truth = stream.encoder.transmitted_block_bits(tx);
                if (truth == nullptr) continue;
                bool all_match = true;
                int confident = 0;
                for (std::size_t b = 0; b < result.decisions.size(); ++b) {
                    if (result.decisions[b] == Block_decision::unknown) continue;
                    ++confident;
                    const std::uint8_t bit =
                        result.decisions[b] == Block_decision::one ? 1 : 0;
                    all_match &= bit == (*truth)[b];
                }
                found = all_match && confident > 100;
            }
            matched_frames += found;
        }
    }
    EXPECT_TRUE(decoder.locked());
    EXPECT_GT(matched_frames, 5) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(VariousStartOffsets, PhaseEstimatorOffsets,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 9, 12));

TEST(SyncedDecoder, DecodesDespiteUnknownOffset)
{
    const auto config = small_config();
    // Transmitter is 5 display frames ahead of the receiver clock.
    Offset_stream stream(config, 5.0 / 120.0, 99);

    Synced_decoder decoder(make_decoder_params(config, 480, 270));
    int correct_frames = 0;
    int wrong_blocks = 0;
    for (int i = 0; i < 60; ++i) {
        auto [frame, time] = stream.next_capture();
        for (const auto& result : decoder.push_capture(frame, time)) {
            // Map the decoder's frame index back to the transmitter's.
            const auto tx_index =
                result.data_frame_index + (5 + config.tau - 1) / config.tau;
            const auto* truth = stream.encoder.transmitted_block_bits(tx_index);
            if (truth == nullptr) continue;
            bool all_match = true;
            for (std::size_t b = 0; b < result.decisions.size(); ++b) {
                if (result.decisions[b] == Block_decision::unknown) continue;
                const std::uint8_t bit =
                    result.decisions[b] == Block_decision::one ? 1 : 0;
                if (bit != (*truth)[b]) {
                    all_match = false;
                    ++wrong_blocks;
                }
            }
            correct_frames += all_match;
        }
    }
    EXPECT_TRUE(decoder.locked());
    EXPECT_GT(correct_frames, 5);
    EXPECT_EQ(wrong_blocks, 0);
}

TEST(SyncedDecoder, StaysSilentBeforeLock)
{
    const auto config = small_config();
    Synced_decoder decoder(make_decoder_params(config, 480, 270));
    Offset_stream stream(config, 3.0 / 120.0, 5);
    auto [frame, time] = stream.next_capture();
    const auto results = decoder.push_capture(frame, time);
    EXPECT_TRUE(results.empty());
    EXPECT_FALSE(decoder.locked());
}

TEST(PhaseEstimator, NoLockOnIdleVideo)
{
    // Plain video without data: no metric structure, no (confident) lock.
    const auto config = small_config();
    Phase_estimator estimator(make_decoder_params(config, 480, 270));
    Prng prng(6);
    for (int i = 0; i < 30; ++i) {
        Imagef frame(480, 270, 1, 127.0f);
        for (auto& v : frame.values()) v += static_cast<float>(prng.next_gaussian(0.0, 1.0));
        estimator.push_capture(frame, i / 30.0);
    }
    EXPECT_FALSE(estimator.estimated_offset().has_value());
}

} // namespace
