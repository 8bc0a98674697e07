// Golden regression vectors: CRC32 fingerprints of the encoder's display
// frames and of the decoded payload for frozen reference configs.
//
// These pin the *exact* bit-level behaviour of the whole encode path
// (chessboard embed, complementary pair, GOB parity) and of the clean
// channel decode. The flat-video cases (Golden) decode cleanly by
// construction but never reach the local amplitude cap; the sunrise cases
// (Golden_sunrise) have blocks near 0 and 255, so the cap (or, with it
// off, the clamp) shapes their frames. Any intentional change to the
// modulation or coding layers will trip them; when that happens, verify
// the change is wanted, then refresh the constants from the values the
// failing test prints (run: test_core --gtest_filter='*Golden*').

#include "coding/parity.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/session.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "video/playback.hpp"
#include "video/source.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace {

using namespace inframe::core;
using inframe::img::Imagef;
using inframe::util::Prng;

struct Golden_case {
    const char* name;
    int pixel_size;
    int tau;
    float delta;
    float video_level;
    std::uint64_t payload_seed;
    std::uint32_t display_crc; // CRC32 over all tau quantized display frames
    std::uint32_t payload_crc; // CRC32 over the decoded payload bits
};

// Frozen reference fingerprints. Regenerate only for an intentional
// modulation/coding change (see header comment).
constexpr Golden_case golden_cases[] = {
    {"p2_tau12", 2, 12, 20.0f, 127.0f, 0x00d5'eed5'eed5'eed5ULL, 0xa88f30d9u, 0xfc0d280au},
    {"p1_tau8", 1, 8, 40.0f, 180.0f, 0x1bad'b002'0000'0001ULL, 0x19d91409u, 0x80ea58ccu},
};

// Frozen fingerprints of the sunrise clip (advancing every video_repeat()
// refreshes) at p = 2, tau = 12, delta = 20. Regenerate as above.
struct Sunrise_case {
    const char* name;
    bool tinted; // three channels through a warm tint, else one channel
    bool local_amplitude_cap;
    std::uint64_t payload_seed;
    std::uint32_t display_crc;
    std::uint32_t payload_crc;
};

constexpr Sunrise_case sunrise_cases[] = {
    {"sunrise_rgb_cap", true, true, 0x5eed'0003'0000'0003ULL, 0x35d4a282u, 0xc994109du},
    {"sunrise_gray_nocap", false, false, 0x5eed'0001'0000'0001ULL, 0x2e595fdeu, 0x456dd7d9u},
};

struct Golden_run {
    std::vector<std::uint8_t> payload; // the first data frame's payload bits
    std::uint32_t display_crc = 0;     // CRC32 over the first tau quantized display frames
    Data_frame_result first;           // the first decoded data frame
};

// Encodes two random payloads over `video` for 2 * tau refreshes and
// decodes every second display frame as a clean capture.
Golden_run run_golden(const Inframe_config& config, const inframe::video::Video_source& video,
                      std::uint64_t payload_seed)
{
    Golden_run run;
    Inframe_encoder encoder(config);
    Prng prng(payload_seed);
    run.payload =
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame()));
    encoder.queue_payload(run.payload);
    encoder.queue_payload(
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame())));

    Inframe_decoder decoder(make_decoder_params(config, 480, 270));
    std::vector<std::uint8_t> display_bytes;
    std::vector<Data_frame_result> results;
    for (int j = 0; j < 2 * config.tau; ++j) {
        const Imagef frame = encoder.next_display_frame(video.frame(j / config.video_repeat()));
        if (j < config.tau) {
            // Fingerprint what the panel would show: the quantized frame.
            const auto u8 = inframe::img::to_u8(frame);
            display_bytes.insert(display_bytes.end(), u8.values().begin(), u8.values().end());
        }
        if (j % 2 == 0) {
            for (auto& r : decoder.push_capture(frame, j / 120.0)) {
                results.push_back(std::move(r));
            }
        }
    }
    if (auto last = decoder.flush()) results.push_back(std::move(*last));
    EXPECT_FALSE(results.empty());
    run.display_crc = inframe::util::crc32(display_bytes);
    if (!results.empty()) run.first = std::move(results.front());
    return run;
}

// True when some block of `frame` lies within `delta` of 0 or 255, i.e.
// the local cap (or the clamp, with the cap off) acts on it.
bool cap_binds(const inframe::coding::Code_geometry& geometry, const Imagef& frame, float delta)
{
    for (int by = 0; by < geometry.blocks_y; ++by) {
        for (int bx = 0; bx < geometry.blocks_x; ++bx) {
            const auto rect = geometry.block_rect(bx, by);
            for (int y = rect.y0; y < rect.y0 + rect.size; ++y) {
                for (int x = rect.x0; x < rect.x0 + rect.size; ++x) {
                    for (int c = 0; c < frame.channels(); ++c) {
                        const float v = frame(x, y, c);
                        if (v < delta || v > 255.0f - delta) return true;
                    }
                }
            }
        }
    }
    return false;
}

class Golden : public ::testing::TestWithParam<Golden_case> {};

TEST_P(Golden, DisplayFramesAndDecodedPayloadMatchFrozenCrcs)
{
    const auto& g = GetParam();
    auto config = paper_config(480, 270);
    config.geometry = inframe::coding::fitted_geometry(480, 270, g.pixel_size);
    config.tau = g.tau;
    config.delta = g.delta;

    const inframe::video::Solid_video video(480, 270, g.video_level);
    const auto run = run_golden(config, video, g.payload_seed);
    const auto& r0 = run.first;
    ASSERT_DOUBLE_EQ(r0.gob.available_ratio, 1.0)
        << g.name << ": golden configs decode cleanly by construction";
    const std::uint32_t payload_crc = inframe::util::crc32(r0.gob.payload_bits);

    EXPECT_EQ(run.display_crc, g.display_crc)
        << g.name << ": display frame stream changed; new CRC 0x" << std::hex
        << run.display_crc;
    EXPECT_EQ(payload_crc, g.payload_crc)
        << g.name << ": decoded payload changed; new CRC 0x" << std::hex << payload_crc;

    // The frozen payload CRC must agree with the transmitted payload —
    // golden vectors pin behaviour, not bugs.
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < run.payload.size(); ++b) {
        mismatches += r0.gob.payload_bits[b] != run.payload[b];
    }
    EXPECT_EQ(mismatches, 0u) << g.name;
}

INSTANTIATE_TEST_SUITE_P(ReferenceConfigs, Golden, ::testing::ValuesIn(golden_cases),
                         [](const auto& info) { return info.param.name; });

class Golden_sunrise : public ::testing::TestWithParam<Sunrise_case> {};

TEST_P(Golden_sunrise, DisplayFramesAndDecodedPayloadMatchFrozenCrcs)
{
    using namespace inframe::video;
    const auto& g = GetParam();
    auto config = paper_config(480, 270);
    config.geometry = inframe::coding::fitted_geometry(480, 270, 2);
    config.tau = 12;
    config.delta = 20.0f;
    config.local_amplitude_cap = g.local_amplitude_cap;

    std::shared_ptr<const Video_source> video = make_sunrise_video(480, 270, 7);
    if (g.tinted) {
        video = std::make_shared<Tinted_video>(video, Tinted_video::Tint{10.0f, 5.0f, 30.0f},
                                               Tinted_video::Tint{255.0f, 220.0f, 180.0f});
    }
    ASSERT_TRUE(cap_binds(config.geometry, video->frame(0), config.delta))
        << g.name << ": the sunrise cases exist to pin frames the cap acts on";

    // Textured video loses GOBs, so the payload is fingerprinted as decoded.
    const auto run = run_golden(config, *video, g.payload_seed);
    const std::uint32_t payload_crc = inframe::util::crc32(run.first.gob.payload_bits);
    EXPECT_EQ(run.display_crc, g.display_crc)
        << g.name << ": display frame stream changed; new CRC 0x" << std::hex
        << run.display_crc;
    EXPECT_EQ(payload_crc, g.payload_crc)
        << g.name << ": decoded payload changed; new CRC 0x" << std::hex << payload_crc;
}

INSTANTIATE_TEST_SUITE_P(CapBinding, Golden_sunrise, ::testing::ValuesIn(sunrise_cases),
                         [](const auto& info) { return info.param.name; });

} // namespace
