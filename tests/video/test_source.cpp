#include "video/source.hpp"

#include "imgproc/image_ops.hpp"
#include "imgproc/metrics.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace inframe::video;
using inframe::img::Imagef;
using inframe::util::Contract_violation;

TEST(SolidVideo, UniformLevel)
{
    Solid_video v(32, 24, 180.0f);
    const Imagef frame = v.frame(0);
    EXPECT_EQ(frame.width(), 32);
    EXPECT_EQ(frame.height(), 24);
    for (const float px : frame.values()) EXPECT_EQ(px, 180.0f);
}

TEST(SolidVideo, NameEncodesLevel)
{
    Solid_video v(8, 8, 127.0f);
    EXPECT_EQ(v.name(), "solid-127");
}

TEST(SolidVideo, Validation)
{
    EXPECT_THROW(Solid_video(0, 8, 1.0f), Contract_violation);
    EXPECT_THROW(Solid_video(8, 8, 1.0f, 0.0), Contract_violation);
    Solid_video v(8, 8, 1.0f);
    EXPECT_THROW(v.frame(-1), Contract_violation);
}

TEST(SunriseVideo, DeterministicPerIndex)
{
    Sunrise_video v(64, 48, 30.0, 5);
    const Imagef a = v.frame(10);
    const Imagef b = v.frame(10);
    EXPECT_DOUBLE_EQ(inframe::img::mae(a, b), 0.0);
}

TEST(SunriseVideo, FramesEvolveOverTime)
{
    Sunrise_video v(64, 48, 30.0, 5);
    const Imagef early = v.frame(0);
    const Imagef late = v.frame(600); // 20 seconds in
    EXPECT_GT(inframe::img::mae(early, late), 5.0);
}

TEST(SunriseVideo, BrightensAsTheSunRises)
{
    Sunrise_video v(64, 48, 30.0, 5);
    const double early = inframe::img::mean(v.frame(0));
    const double late = inframe::img::mean(v.frame(900));
    EXPECT_GT(late, early + 20.0);
}

TEST(SunriseVideo, CoversWideLuminanceRange)
{
    Sunrise_video v(96, 54, 30.0, 5);
    const auto [lo, hi] = inframe::img::min_max(v.frame(450));
    EXPECT_LT(lo, 60.0f);  // dark foreground
    EXPECT_GT(hi, 200.0f); // sun
}

TEST(SunriseVideo, HasTexturedForeground)
{
    Sunrise_video v(96, 54, 30.0, 5);
    const Imagef frame = v.frame(300);
    // Foreground occupies the bottom ~38%; texture -> local variance.
    const int y0 = static_cast<int>(0.7 * frame.height());
    double dev = 0.0;
    int count = 0;
    const double m = inframe::img::mean_region(frame, 0, y0, frame.width(), frame.height() - y0);
    for (int y = y0; y < frame.height(); ++y) {
        for (int x = 0; x < frame.width(); ++x) {
            dev += std::abs(frame(x, y) - m);
            ++count;
        }
    }
    EXPECT_GT(dev / count, 3.0);
}

TEST(SunriseVideo, SeedChangesScene)
{
    Sunrise_video a(64, 48, 30.0, 5);
    Sunrise_video b(64, 48, 30.0, 6);
    EXPECT_GT(inframe::img::mae(a.frame(100), b.frame(100)), 0.5);
}

TEST(MovingBars, BarsMoveAtConfiguredSpeed)
{
    Moving_bars_video v(64, 8, 8, 2.0f);
    const Imagef f0 = v.frame(0);
    const Imagef f4 = v.frame(4); // bars shifted by 8 px = one bar width
    for (int x = 0; x < 56; ++x) {
        EXPECT_EQ(f4(x, 0), f0(x + 8, 0));
    }
}

TEST(MovingBars, TwoLevelsOnly)
{
    Moving_bars_video v(32, 8, 4, 1.0f, 30.0, 10.0f, 20.0f);
    const Imagef f = v.frame(3);
    for (const float px : f.values()) EXPECT_TRUE(px == 10.0f || px == 20.0f);
}

TEST(MovingBars, NegativeSpeedMovesBarsRight)
{
    Moving_bars_video v(64, 8, 8, -2.0f);
    const Imagef f0 = v.frame(0);
    const Imagef f4 = v.frame(4); // bars shifted right by one bar width
    for (int x = 0; x < 56; ++x) {
        EXPECT_EQ(f4(x + 8, 0), f0(x, 0));
    }
}

TEST(MovingBars, HugeFiniteSpeedStaysTwoLevel)
{
    // Offsets far past the int64 range must still give a defined frame.
    Moving_bars_video v(32, 4, 4, 3.0e38f, 30.0, 10.0f, 20.0f);
    for (const std::int64_t index : {1, 1000, 1'000'000'000}) {
        const Imagef f = v.frame(index);
        for (const float px : f.values()) EXPECT_TRUE(px == 10.0f || px == 20.0f);
    }
}

TEST(MovingBars, RejectsNonFiniteSpeed)
{
    for (const float speed : {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()}) {
        EXPECT_THROW(Moving_bars_video(64, 8, 8, speed), Contract_violation) << speed;
    }
}

TEST(NoiseVideo, MatchesRequestedMoments)
{
    Noise_video v(128, 128, 128.0f, 10.0f);
    const Imagef f = v.frame(0);
    inframe::util::Running_stats stats;
    for (const float px : f.values()) stats.add(px);
    EXPECT_NEAR(stats.mean(), 128.0, 1.0);
    EXPECT_NEAR(stats.stddev(), 10.0, 1.0);
}

TEST(NoiseVideo, FramesAreIndependentButReproducible)
{
    Noise_video v(32, 32, 128.0f, 10.0f, 30.0, 77);
    EXPECT_GT(inframe::img::mae(v.frame(0), v.frame(1)), 5.0);
    Noise_video w(32, 32, 128.0f, 10.0f, 30.0, 77);
    EXPECT_DOUBLE_EQ(inframe::img::mae(v.frame(3), w.frame(3)), 0.0);
}

TEST(CachedVideo, ReturnsSameFrames)
{
    auto inner = std::make_shared<Sunrise_video>(48, 32, 30.0, 5);
    Cached_video cached(inner);
    EXPECT_DOUBLE_EQ(inframe::img::mae(cached.frame(7), inner->frame(7)), 0.0);
    // Second request hits the cache and must be identical.
    EXPECT_DOUBLE_EQ(inframe::img::mae(cached.frame(7), inner->frame(7)), 0.0);
    EXPECT_EQ(cached.width(), 48);
    EXPECT_EQ(cached.name(), "sunrise");
}

TEST(CachedVideo, ConcurrentReadersSeeSourceFrames)
{
    // Two readers share one two-slot cache and request interleaved indices
    // (one the even frames, the other the odd ones), so every call races a
    // lookup against the other thread's fill and eviction.
    auto inner = std::make_shared<Sunrise_video>(48, 32, 30.0, 5);
    const auto cached = std::make_shared<const Cached_video>(inner, 2);
    constexpr int frames = 16;
    std::vector<Imagef> expected;
    for (int i = 0; i < frames; ++i) expected.push_back(inner->frame(i));

    std::atomic<int> mismatches{0};
    auto reader = [&](int first) {
        for (int round = 0; round < 4; ++round) {
            for (int i = first; i < frames; i += 2) {
                const Imagef got = cached->frame(i);
                const Imagef& want = expected[static_cast<std::size_t>(i)];
                if (!std::ranges::equal(got.values(), want.values())) ++mismatches;
            }
        }
    };
    std::thread even(reader, 0);
    std::thread odd(reader, 1);
    even.join();
    odd.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(CachedVideo, Validation)
{
    EXPECT_THROW(Cached_video(nullptr), Contract_violation);
    auto inner = std::make_shared<Solid_video>(8, 8, 1.0f);
    EXPECT_THROW(Cached_video(inner, 0), Contract_violation);
}

TEST(SlideshowVideo, CutsHappenExactlyAtHoldBoundaries)
{
    Slideshow_video v(96, 54, 30);
    // Within a slide: identical frames.
    EXPECT_DOUBLE_EQ(inframe::img::mae(v.frame(0), v.frame(29)), 0.0);
    // Across the cut: a different composition.
    EXPECT_GT(inframe::img::mae(v.frame(29), v.frame(30)), 5.0);
}

TEST(SlideshowVideo, DeterministicPerSeed)
{
    Slideshow_video a(96, 54, 30, 30.0, 7);
    Slideshow_video b(96, 54, 30, 30.0, 7);
    Slideshow_video c(96, 54, 30, 30.0, 8);
    EXPECT_DOUBLE_EQ(inframe::img::mae(a.frame(45), b.frame(45)), 0.0);
    EXPECT_GT(inframe::img::mae(a.frame(45), c.frame(45)), 1.0);
}

TEST(SlideshowVideo, Validation)
{
    EXPECT_THROW(Slideshow_video(96, 54, 0), Contract_violation);
}

TEST(TickerVideo, TextScrollsLeft)
{
    Ticker_video v(192, 54, "GOAL 2-1", 2.0f);
    // Frame 0 starts with the text just off the right edge; compare two
    // frames where the whole string is on screen.
    const Imagef f0 = v.frame(50);
    const Imagef f10 = v.frame(60); // 20 px later
    // Ink must exist and move: frames differ, backgrounds dominate.
    EXPECT_GT(inframe::img::mae(f0, f10), 0.01);
    int ink0 = 0;
    for (const float px : f0.values()) ink0 += px > 200.0f;
    int ink10 = 0;
    for (const float px : f10.values()) ink10 += px > 200.0f;
    EXPECT_GT(ink10, 0);
    // The glyph area is roughly conserved while fully on-screen.
    EXPECT_NEAR(ink0, ink10, ink0 / 2 + 8);
}

TEST(TickerVideo, WrapsAround)
{
    Ticker_video v(96, 54, "NEWS", 4.0f);
    // One full cycle: 96 + 4 glyphs * 12 px = 144 px -> 36 frames.
    const Imagef f0 = v.frame(0);
    const Imagef f_cycle = v.frame(36);
    EXPECT_LT(inframe::img::mae(f0, f_cycle), 0.5);
}

// Column range [first, last] of the ink pixels, or {-1, -1} when blank.
std::pair<int, int> ink_columns(const Imagef& frame)
{
    int first = -1;
    int last = -1;
    for (int x = 0; x < frame.width(); ++x) {
        for (int y = 0; y < frame.height(); ++y) {
            if (frame(x, y) > 200.0f) {
                if (first < 0) first = x;
                last = x;
                break;
            }
        }
    }
    return {first, last};
}

TEST(TickerVideo, NegativeSpeedScrollsRight)
{
    // Cycle: 192 + 4 glyphs * 12 px = 240 px, i.e. 120 frames at 2 px.
    Ticker_video v(192, 54, "GOAL", -2.0f);
    const auto [first40, last40] = ink_columns(v.frame(40));
    const auto [first50, last50] = ink_columns(v.frame(50));
    ASSERT_GE(first40, 0) << "a negative speed must not blank the ticker";
    EXPECT_EQ(first50 - first40, 20);
    EXPECT_EQ(last50 - last40, 20);
    // The text is on screen for most of every cycle, not just the first.
    int inked = 0;
    for (std::int64_t i = 1000; i < 1120; ++i) inked += ink_columns(v.frame(i)).first >= 0;
    EXPECT_GT(inked, 100);
    EXPECT_DOUBLE_EQ(inframe::img::mae(v.frame(7), v.frame(7 + 120)), 0.0);
}

TEST(TickerVideo, Validation)
{
    EXPECT_THROW(Ticker_video(96, 54, "", 1.0f), Contract_violation);
    for (const float speed : {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()}) {
        EXPECT_THROW(Ticker_video(96, 54, "NEWS", speed), Contract_violation) << speed;
    }
}

TEST(VideoSources, RejectNonFiniteParameters)
{
    // Each entry builds one source with `bad` in a single level or rate.
    // Levels must also lie in [0, 255]: Solid_video::name casts its level
    // to int, which is undefined outside int range.
    struct Builder {
        const char* what;
        bool level;
        std::function<void(float)> build;
    };
    const auto solid = std::make_shared<Solid_video>(8, 8, 1.0f);
    const std::vector<Builder> builders = {
        {"Solid_video level", true, [](float bad) { Solid_video(8, 8, bad); }},
        {"Solid_video fps", false, [](float bad) { Solid_video(8, 8, 1.0f, bad); }},
        {"Sunrise_video fps", false, [](float bad) { Sunrise_video(8, 8, bad); }},
        {"Moving_bars_video lo", true,
         [](float bad) { Moving_bars_video(8, 8, 2, 1.0f, 30.0, bad); }},
        {"Moving_bars_video hi", true,
         [](float bad) { Moving_bars_video(8, 8, 2, 1.0f, 30.0, 64.0f, bad); }},
        {"Moving_bars_video fps", false, [](float bad) { Moving_bars_video(8, 8, 2, 1.0f, bad); }},
        {"Noise_video mean", true, [](float bad) { Noise_video(8, 8, bad, 1.0f); }},
        {"Noise_video stddev", false, [](float bad) { Noise_video(8, 8, 128.0f, bad); }},
        {"Noise_video fps", false, [](float bad) { Noise_video(8, 8, 128.0f, 1.0f, bad); }},
        {"Slideshow_video fps", false, [](float bad) { Slideshow_video(8, 8, 1, bad); }},
        {"Ticker_video background", true,
         [](float bad) { Ticker_video(96, 54, "NEWS", 1.0f, 30.0, bad); }},
        {"Ticker_video ink", true,
         [](float bad) { Ticker_video(96, 54, "NEWS", 1.0f, 30.0, 110.0f, bad); }},
        {"Ticker_video fps", false, [](float bad) { Ticker_video(96, 54, "NEWS", 1.0f, bad); }},
        {"Tinted_video dark", true,
         [&](float bad) { Tinted_video(solid, {bad, 0.0f, 0.0f}, {}); }},
        {"Tinted_video light", true,
         [&](float bad) { Tinted_video(solid, {}, {0.0f, 0.0f, bad}); }},
    };
    const float non_finite[] = {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
    const float out_of_range[] = {3e9f, -1.0f, 255.5f};
    for (const auto& [what, level, build] : builders) {
        for (const float bad : non_finite) {
            EXPECT_THROW(build(bad), Contract_violation) << what << " = " << bad;
        }
        if (!level) continue;
        for (const float bad : out_of_range) {
            EXPECT_THROW(build(bad), Contract_violation) << what << " = " << bad;
        }
        EXPECT_NO_THROW(build(0.0f)) << what;
        EXPECT_NO_THROW(build(255.0f)) << what;
    }
}

// One octave of fractal_noise_row is plain value noise.
double value_noise(double x, double y, std::uint64_t seed)
{
    const double xs[] = {x};
    double out[1];
    fractal_noise_row(xs, y, seed, 1, out);
    return out[0];
}

TEST(ValueNoise, DeterministicAndBounded)
{
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.37;
        const double y = i * 0.91;
        const double v = value_noise(x, y, 3);
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
        EXPECT_DOUBLE_EQ(v, value_noise(x, y, 3));
    }
}

TEST(ValueNoise, ContinuousAcrossLatticeCells)
{
    // Values just either side of a lattice line should be close.
    const double a = value_noise(2.999, 5.5, 11);
    const double b = value_noise(3.001, 5.5, 11);
    EXPECT_NEAR(a, b, 0.02);
}

TEST(FractalNoise, BoundedAndOctaveValidation)
{
    std::vector<double> x(20);
    for (int i = 0; i < 20; ++i) x[static_cast<std::size_t>(i)] = i * 0.31;
    std::vector<double> row(x.size());
    EXPECT_THROW(fractal_noise_row(x, 0.0, 1, 0, row), Contract_violation);
    for (int i = 0; i < 20; ++i) {
        fractal_noise_row(x, i * 0.17, 1, 4, row);
        for (const double v : row) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

} // namespace
