// Fuzz-style decoder hardening: garbage in, graceful degradation out.
//
// The decoder sits at the trust boundary of the receive path — whatever
// the camera pipeline delivers, it must never crash, hang, or emit
// malformed results. These tests throw pathological capture streams at
// it (pure noise, saturated frames, truncated sequences, hostile
// timestamps, wrong-size images) and assert well-formed output or a
// clean Contract_violation, never UB.

#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/session.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace {

using namespace inframe::core;
using inframe::img::Imagef;
using inframe::util::Prng;

constexpr int width = 480;
constexpr int height = 270;

Decoder_params fuzz_params(bool erasure_aware)
{
    auto config = paper_config(width, height);
    config.geometry = inframe::coding::fitted_geometry(width, height, 2);
    auto params = make_decoder_params(config, width, height);
    params.erasure_aware = erasure_aware;
    return params;
}

// Every result the decoder hands out must be internally consistent,
// whatever it was fed.
void expect_well_formed(const Data_frame_result& result, const Decoder_params& params)
{
    const auto blocks = static_cast<std::size_t>(params.geometry.block_count());
    ASSERT_EQ(result.decisions.size(), blocks);
    if (params.erasure_aware) {
        ASSERT_EQ(result.erasures.size(), blocks);
        for (std::size_t b = 0; b < blocks; ++b) {
            if (result.erasures[b]) {
                EXPECT_EQ(result.decisions[b], inframe::coding::Block_decision::unknown)
                    << "an erased block must not carry a confident decision";
            }
        }
    }
    ASSERT_EQ(result.gob.gobs.size(), static_cast<std::size_t>(params.geometry.gob_count()));
    ASSERT_EQ(result.gob.payload_bits.size(),
              static_cast<std::size_t>(params.geometry.payload_bits_per_frame()));
    ASSERT_EQ(result.gob.payload_bit_trusted.size(), result.gob.payload_bits.size());
    EXPECT_GE(result.gob.available_ratio, 0.0);
    EXPECT_LE(result.gob.available_ratio, 1.0);
    EXPECT_GE(result.gob.error_rate, 0.0);
    EXPECT_LE(result.gob.error_rate, 1.0);
    EXPECT_GE(result.occluded_blocks, 0);
    EXPECT_LE(result.occluded_blocks, static_cast<int>(blocks));
}

TEST(DecoderFuzz, PureNoiseCapturesProduceWellFormedResults)
{
    for (const bool erasure_aware : {false, true}) {
        const auto params = fuzz_params(erasure_aware);
        Inframe_decoder decoder(params);
        Prng prng(0xf022u + (erasure_aware ? 1u : 0u));
        std::vector<Data_frame_result> results;
        for (int j = 0; j < 40; ++j) {
            Imagef capture(width, height, 1);
            for (auto& v : capture.values()) {
                v = static_cast<float>(prng.next_double(0.0, 255.0));
            }
            for (auto& r : decoder.push_capture(capture, j / 120.0)) {
                results.push_back(std::move(r));
            }
        }
        if (auto last = decoder.flush()) results.push_back(std::move(*last));
        ASSERT_FALSE(results.empty());
        for (const auto& result : results) expect_well_formed(result, params);
    }
}

TEST(DecoderFuzz, SaturatedFramesDecodeToUnknownNotGarbage)
{
    for (const float level : {0.0f, 255.0f}) {
        for (const bool erasure_aware : {false, true}) {
            const auto params = fuzz_params(erasure_aware);
            Inframe_decoder decoder(params);
            const Imagef capture(width, height, 1, level);
            std::vector<Data_frame_result> results;
            for (int j = 0; j < 30; ++j) {
                for (auto& r : decoder.push_capture(capture, j / 120.0)) {
                    results.push_back(std::move(r));
                }
            }
            if (auto last = decoder.flush()) results.push_back(std::move(*last));
            ASSERT_FALSE(results.empty());
            for (const auto& result : results) {
                expect_well_formed(result, params);
                // A constant field carries no chessboard: nothing may
                // decode as a confident bit.
                for (const auto decision : result.decisions) {
                    EXPECT_EQ(decision, inframe::coding::Block_decision::unknown);
                }
            }
        }
    }
}

TEST(DecoderFuzz, TruncatedCaptureSequencesFlushCleanly)
{
    // 0, 1, or a handful of captures — far fewer than a full tau cycle.
    for (const int captures : {0, 1, 3}) {
        const auto params = fuzz_params(true);
        Inframe_decoder decoder(params);
        Prng prng(static_cast<std::uint64_t>(captures) + 77);
        for (int j = 0; j < captures; ++j) {
            Imagef capture(width, height, 1);
            for (auto& v : capture.values()) {
                v = static_cast<float>(prng.next_double(0.0, 255.0));
            }
            EXPECT_TRUE(decoder.push_capture(capture, j / 120.0).empty());
        }
        const auto last = decoder.flush();
        if (captures == 0) {
            EXPECT_FALSE(last.has_value()) << "nothing pushed, nothing to flush";
        } else {
            ASSERT_TRUE(last.has_value());
            expect_well_formed(*last, params);
        }
        // Flushing twice must not double-emit.
        EXPECT_FALSE(decoder.flush().has_value());
    }
}

TEST(DecoderFuzz, HostileTimestampsAreCappedNotAmplified)
{
    const auto params = fuzz_params(true);
    Inframe_decoder decoder(params);
    const Imagef capture(width, height, 1, 127.0f);
    ASSERT_TRUE(decoder.push_capture(capture, 0.0).empty());

    // A timestamp billions of frames in the future must finalize at most
    // one in-progress frame, not emit millions of idle results (and the
    // double -> int64 conversion must saturate, not overflow).
    for (const double hostile :
         {1.0e12, 1.0e300, std::numeric_limits<double>::max()}) {
        const auto results = decoder.push_capture(capture, hostile);
        EXPECT_LE(results.size(),
                  static_cast<std::size_t>(params.max_frame_gap) + 1)
            << "timestamp " << hostile;
    }

    // Negative time violates the decoder's stated precondition.
    EXPECT_THROW(decoder.push_capture(capture, -1.0), inframe::util::Contract_violation);
}

TEST(DecoderFuzz, WrongSizeCaptureIsRejectedLoudly)
{
    Inframe_decoder decoder(fuzz_params(true));
    const Imagef wrong(width / 2, height / 2, 1, 127.0f);
    EXPECT_THROW(decoder.push_capture(wrong, 0.0), inframe::util::Contract_violation);
    // The decoder survives the rejection and keeps working.
    const Imagef right(width, height, 1, 127.0f);
    EXPECT_NO_THROW(decoder.push_capture(right, 0.0));
}

TEST(DecoderFuzz, NonFiniteCapturesAreRejectedLoudly)
{
    for (const bool erasure_aware : {false, true}) {
        for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()}) {
            const auto params = fuzz_params(erasure_aware);
            Inframe_decoder decoder(params);
            const Imagef clean(width, height, 1, 127.0f);
            ASSERT_TRUE(decoder.push_capture(clean, 0.0).empty());
            // 0.5% of the pixels, scattered.
            Imagef capture = clean;
            Prng prng(7);
            for (int i = 0; i < width * height / 200; ++i) {
                capture(static_cast<int>(prng.next_int(0, width - 1)),
                        static_cast<int>(prng.next_int(0, height - 1))) = bad;
            }
            EXPECT_THROW(decoder.push_capture(capture, 1.0 / 120.0),
                         inframe::util::Contract_violation)
                << bad << (erasure_aware ? " erasure-aware" : " hard");
            // The rejected capture left no trace: the decoder keeps working
            // and its frame holds only the clean capture.
            EXPECT_NO_THROW(decoder.push_capture(clean, 2.0 / 120.0));
            const auto last = decoder.flush();
            ASSERT_TRUE(last.has_value());
            EXPECT_EQ(last->captures_used, 2);
            expect_well_formed(*last, params);
        }
    }
}

TEST(DecoderFuzz, NonFiniteMetricsAreNotSplit)
{
    const Inframe_decoder decoder(fuzz_params(true));
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        std::vector<double> metrics(1500, 1.0);
        metrics[700] = bad;
        EXPECT_THROW(decoder.split_metrics(metrics), inframe::util::Contract_violation) << bad;
    }
}

TEST(DecoderFuzz, ThreeChannelGarbageIsAccepted)
{
    // Color captures route through the luminance conversion; fuzz that
    // path too.
    const auto params = fuzz_params(true);
    Inframe_decoder decoder(params);
    Prng prng(0xc0103u);
    std::vector<Data_frame_result> results;
    for (int j = 0; j < 30; ++j) {
        Imagef capture(width, height, 3);
        for (auto& v : capture.values()) {
            v = static_cast<float>(prng.next_double(0.0, 255.0));
        }
        for (auto& r : decoder.push_capture(capture, j / 120.0)) {
            results.push_back(std::move(r));
        }
    }
    if (auto last = decoder.flush()) results.push_back(std::move(*last));
    ASSERT_FALSE(results.empty());
    for (const auto& result : results) expect_well_formed(result, params);
}

} // namespace
