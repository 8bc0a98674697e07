#include "video/source.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace inframe::video {

namespace {

// Pixel values live in [0, 255]; NaN fails both comparisons.
bool is_pixel_level(float level)
{
    return level >= 0.0f && level <= 255.0f;
}

// Integer lattice hash -> [0, 1). Mixes coordinates and seed through the
// splitmix64 finalizer so neighbouring lattice points decorrelate.
double lattice_value(std::int64_t ix, std::int64_t iy, std::uint64_t seed)
{
    std::uint64_t h = seed;
    h ^= static_cast<std::uint64_t>(ix) * 0x9e37'79b9'7f4a'7c15ULL;
    h ^= static_cast<std::uint64_t>(iy) * 0xc2b2'ae3d'27d4'eb4fULL;
    h = (h ^ (h >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d0'49bb'1331'11ebULL;
    h ^= h >> 31;
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double smoothstep(double t)
{
    return t * t * (3.0 - 2.0 * t);
}

} // namespace

void fractal_noise_row(std::span<const double> x, double y, std::uint64_t seed, int octaves,
                       std::span<double> out)
{
    util::expects(octaves >= 1, "fractal_noise_row needs at least one octave");
    util::expects(out.size() == x.size(), "fractal_noise_row needs one output per x");
    std::ranges::fill(out, 0.0);
    double amplitude = 0.5;
    double norm = 0.0;
    // Octave o samples x[i] * 2^o: doubling is exact, so this is the same
    // double as doubling x[i] o times.
    double scale = 1.0;
    for (int o = 0; o < octaves; ++o) {
        const std::uint64_t octave_seed = seed + static_cast<std::uint64_t>(o) * 7919;
        const double fy = std::floor(y);
        const auto iy = static_cast<std::int64_t>(fy);
        const double ty = smoothstep(y - fy);
        // The four lattice values of the current cell, reused while
        // consecutive pixels stay in it.
        std::int64_t cell = 0;
        bool have_cell = false;
        double v00 = 0.0, v10 = 0.0, v01 = 0.0, v11 = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double xo = x[i] * scale;
            const double fx = std::floor(xo);
            const auto ix = static_cast<std::int64_t>(fx);
            if (!have_cell || ix != cell) {
                cell = ix;
                have_cell = true;
                v00 = lattice_value(ix, iy, octave_seed);
                v10 = lattice_value(ix + 1, iy, octave_seed);
                v01 = lattice_value(ix, iy + 1, octave_seed);
                v11 = lattice_value(ix + 1, iy + 1, octave_seed);
            }
            const double tx = smoothstep(xo - fx);
            const double top = v00 + (v10 - v00) * tx;
            const double bottom = v01 + (v11 - v01) * tx;
            out[i] += amplitude * (top + (bottom - top) * ty);
        }
        norm += amplitude;
        y *= 2.0;
        scale *= 2.0;
        amplitude *= 0.5;
    }
    for (double& v : out) v /= norm;
}

Solid_video::Solid_video(int width, int height, float level, double fps)
    : width_(width), height_(height), level_(level), fps_(fps)
{
    util::expects(width > 0 && height > 0, "Solid_video dimensions must be positive");
    util::expects(is_pixel_level(level), "Solid_video level must be in [0, 255]");
    util::expects(std::isfinite(fps) && fps > 0.0, "Solid_video fps must be positive and finite");
}

img::Imagef Solid_video::frame(std::int64_t index) const
{
    util::expects(index >= 0, "frame index must be non-negative");
    return img::Imagef(width_, height_, 1, level_);
}

std::string Solid_video::name() const
{
    std::ostringstream out;
    out << "solid-" << static_cast<int>(level_);
    return out.str();
}

Sunrise_video::Sunrise_video(int width, int height, double fps, std::uint64_t seed)
    : width_(width), height_(height), fps_(fps), seed_(seed)
{
    util::expects(width > 0 && height > 0, "Sunrise_video dimensions must be positive");
    util::expects(std::isfinite(fps) && fps > 0.0, "Sunrise_video fps must be positive and finite");
    // The first row the sky test `y < 0.62 * height` rejects.
    ground_row_ = static_cast<int>(std::ceil(0.62 * height_));
    const auto w = static_cast<std::size_t>(width_);
    hill_texture_.resize(w * static_cast<std::size_t>(height_ - ground_row_));
    std::vector<double> hill_x(w);
    for (int x = 0; x < width_; ++x) {
        hill_x[static_cast<std::size_t>(x)] = static_cast<double>(x) / 7.0;
    }
    util::parallel_for(ground_row_, height_, 8, [&](std::int64_t y0, std::int64_t y1) {
        for (auto y = y0; y < y1; ++y) {
            const std::span<double> row(
                hill_texture_.data() + static_cast<std::size_t>(y - ground_row_) * w, w);
            fractal_noise_row(hill_x, static_cast<double>(y) / 7.0, seed_ + 17, 4, row);
            for (double& v : row) v = (v - 0.5) * 38.0;
        }
    });
}

img::Imagef Sunrise_video::frame(std::int64_t index) const
{
    util::expects(index >= 0, "frame index must be non-negative");
    const double t = static_cast<double>(index) / fps_; // seconds
    img::Imagef out(width_, height_, 1);

    // The sun climbs from below the horizon over ~40 s and the whole sky
    // brightens with it, sweeping the luminance range the paper's clip has.
    const double progress = std::min(t / 40.0, 1.0);
    const double horizon = 0.62 * height_;
    const double sun_x = 0.5 * width_ + 0.06 * width_ * std::sin(t * 0.1);
    const double sun_y = horizon + (0.25 - 0.55 * progress) * height_;
    const double sun_radius = 0.055 * std::min(width_, height_);
    const double sun_disc = 235.0 + 20.0 * progress;
    const double glow_scale = sun_radius * 4.0;
    const double glow_gain = 0.4 + 0.6 * progress;

    const double sky_top = 28.0 + 90.0 * progress;     // zenith level
    const double sky_horizon = 90.0 + 120.0 * progress; // glow near horizon
    // Foreground hills: dark with high-frequency texture, the "high-texture
    // areas" the decoder's de-meaning targets.
    const double ground = 18.0 + 26.0 * progress;

    // Drifting clouds: smooth fractal noise, moving slowly.
    const auto w = static_cast<std::size_t>(width_);
    std::vector<double> cloud_x(w);
    for (int x = 0; x < width_; ++x) {
        cloud_x[static_cast<std::size_t>(x)] = static_cast<double>(x) / 96.0 + t * 0.25;
    }

    util::parallel_for(0, height_, 8, [&](std::int64_t y0, std::int64_t y1) {
        std::vector<double> cloud(w);
        for (auto y = y0; y < y1; ++y) {
            const std::span<float> row = out.row(static_cast<int>(y));
            if (y >= ground_row_) {
                const double* texture =
                    hill_texture_.data() + static_cast<std::size_t>(y - ground_row_) * w;
                for (std::size_t x = 0; x < w; ++x) {
                    row[x] = static_cast<float>(std::clamp(ground + texture[x], 0.0, 255.0));
                }
                continue;
            }
            const double rel = std::clamp(static_cast<double>(y) / horizon, 0.0, 1.0);
            const double sky = sky_top + (sky_horizon - sky_top) * rel * rel;
            fractal_noise_row(cloud_x, static_cast<double>(y) / 64.0, seed_, 3, cloud);
            const double dy = static_cast<double>(y) - sun_y;
            const double dy2 = dy * dy;
            for (std::size_t x = 0; x < w; ++x) {
                double level = sky + (cloud[x] - 0.5) * 46.0;
                // Sun glow and disc.
                const double dx = static_cast<double>(x) - sun_x;
                const double dist = std::sqrt(dx * dx + dy2);
                if (dist < sun_radius) {
                    level = sun_disc;
                } else {
                    level += 160.0 * std::exp(-dist / glow_scale) * glow_gain;
                }
                row[x] = static_cast<float>(std::clamp(level, 0.0, 255.0));
            }
        }
    });
    return out;
}

Moving_bars_video::Moving_bars_video(int width, int height, int bar_width,
                                     float speed_px_per_frame, double fps, float lo, float hi)
    : width_(width), height_(height), bar_width_(bar_width), speed_(speed_px_per_frame),
      fps_(fps), lo_(lo), hi_(hi)
{
    util::expects(width > 0 && height > 0, "Moving_bars_video dimensions must be positive");
    util::expects(bar_width > 0, "Moving_bars_video bar width must be positive");
    util::expects(std::isfinite(speed_px_per_frame), "Moving_bars_video speed must be finite");
    util::expects(is_pixel_level(lo) && is_pixel_level(hi),
                  "Moving_bars_video levels must be in [0, 255]");
    util::expects(std::isfinite(fps) && fps > 0.0,
                  "Moving_bars_video fps must be positive and finite");
}

img::Imagef Moving_bars_video::frame(std::int64_t index) const
{
    util::expects(index >= 0, "frame index must be non-negative");
    img::Imagef out(width_, height_, 1);
    const double offset = static_cast<double>(index) * speed_;
    for (int x = 0; x < width_; ++x) {
        // Parity of the bar index, taken in double: no integer cast, so any
        // finite speed and index stay defined.
        const double phase = std::floor((static_cast<double>(x) + offset) / bar_width_);
        const float level = std::fmod(phase, 2.0) == 0.0 ? lo_ : hi_;
        for (int y = 0; y < height_; ++y) out(x, y) = level;
    }
    return out;
}

Noise_video::Noise_video(int width, int height, float mean_level, float stddev, double fps,
                         std::uint64_t seed)
    : width_(width), height_(height), mean_level_(mean_level), stddev_(stddev), fps_(fps),
      seed_(seed)
{
    util::expects(width > 0 && height > 0, "Noise_video dimensions must be positive");
    util::expects(is_pixel_level(mean_level), "Noise_video mean level must be in [0, 255]");
    util::expects(std::isfinite(stddev) && stddev >= 0.0f,
                  "Noise_video stddev must be finite and non-negative");
    util::expects(std::isfinite(fps) && fps > 0.0, "Noise_video fps must be positive and finite");
}

img::Imagef Noise_video::frame(std::int64_t index) const
{
    util::expects(index >= 0, "frame index must be non-negative");
    // Seed mixes the frame index so every frame is fresh but reproducible.
    util::Prng prng(seed_ ^ (static_cast<std::uint64_t>(index) * 0x2545'f491'4f6c'dd1dULL));
    img::Imagef out(width_, height_, 1);
    for (auto& v : out.values()) {
        v = static_cast<float>(
            std::clamp(prng.next_gaussian(mean_level_, stddev_), 0.0, 255.0));
    }
    return out;
}

Slideshow_video::Slideshow_video(int width, int height, int hold_frames, double fps,
                                 std::uint64_t seed)
    : width_(width), height_(height), hold_frames_(hold_frames), fps_(fps), seed_(seed)
{
    util::expects(width > 0 && height > 0, "Slideshow_video dimensions must be positive");
    util::expects(hold_frames >= 1, "Slideshow_video must hold each slide >= 1 frame");
    util::expects(std::isfinite(fps) && fps > 0.0,
                  "Slideshow_video fps must be positive and finite");
}

img::Imagef Slideshow_video::frame(std::int64_t index) const
{
    util::expects(index >= 0, "frame index must be non-negative");
    const auto slide = static_cast<std::uint64_t>(index / hold_frames_);
    util::Prng prng(seed_ ^ (slide * 0x517c'c1b7'2722'0a95ULL));
    // Each slide is a distinct composition: background level, a few
    // rectangles and a disc, plus a gradient band.
    img::Imagef out(width_, height_, 1,
                    static_cast<float>(prng.next_double(40.0, 210.0)));
    const int panels = static_cast<int>(prng.next_int(2, 5));
    for (int i = 0; i < panels; ++i) {
        const int w = static_cast<int>(prng.next_int(width_ / 8, width_ / 2));
        const int h = static_cast<int>(prng.next_int(height_ / 8, height_ / 2));
        img::fill_rect(out, static_cast<int>(prng.next_int(0, width_ - 1)),
                       static_cast<int>(prng.next_int(0, height_ - 1)), w, h,
                       static_cast<float>(prng.next_double(20.0, 235.0)));
    }
    img::fill_disc(out, static_cast<float>(prng.next_double(0.0, width_)),
                   static_cast<float>(prng.next_double(0.0, height_)),
                   static_cast<float>(prng.next_double(8.0, height_ / 3.0)),
                   static_cast<float>(prng.next_double(20.0, 235.0)));
    return out;
}

Ticker_video::Ticker_video(int width, int height, std::string text, float speed_px_per_frame,
                           double fps, float background, float ink)
    : width_(width), height_(height), text_(std::move(text)), speed_(speed_px_per_frame),
      fps_(fps), background_(background), ink_(ink)
{
    util::expects(width > 0 && height > 0, "Ticker_video dimensions must be positive");
    util::expects(!text_.empty(), "Ticker_video needs text");
    util::expects(std::isfinite(speed_px_per_frame), "Ticker_video speed must be finite");
    util::expects(is_pixel_level(background) && is_pixel_level(ink),
                  "Ticker_video levels must be in [0, 255]");
    util::expects(std::isfinite(fps) && fps > 0.0, "Ticker_video fps must be positive and finite");
    // 5x7 glyphs with 1-column gaps at scale 2.
    text_width_px_ = static_cast<int>(text_.size()) * 12;
}

img::Imagef Ticker_video::frame(std::int64_t index) const
{
    util::expects(index >= 0, "frame index must be non-negative");
    img::Imagef out(width_, height_, 1, background_);
    const int cycle = width_ + text_width_px_;
    const double travel = static_cast<double>(index) * speed_;
    // Non-negative modulo: a negative speed scrolls the text right.
    double wrapped = std::fmod(travel, cycle);
    if (wrapped < 0.0) wrapped += cycle;
    const int x0 = width_ - static_cast<int>(wrapped);
    const int y0 = height_ / 2 - 7;
    img::draw_text(out, x0, y0, text_.c_str(), ink_, 2);
    // Second copy so the band never goes empty on wide frames.
    img::draw_text(out, x0 + cycle, y0, text_.c_str(), ink_, 2);
    return out;
}

Tinted_video::Tinted_video(std::shared_ptr<const Video_source> inner, Tint dark, Tint light)
    : inner_(std::move(inner)), dark_(dark), light_(light)
{
    util::expects(inner_ != nullptr, "Tinted_video requires a source");
    for (const Tint& tint : {dark, light}) {
        util::expects(is_pixel_level(tint.r) && is_pixel_level(tint.g) && is_pixel_level(tint.b),
                      "Tinted_video tints must be in [0, 255]");
    }
}

img::Imagef Tinted_video::frame(std::int64_t index) const
{
    const img::Imagef gray = img::to_gray(inner_->frame(index));
    img::Imagef out(gray.width(), gray.height(), 3);
    for (int y = 0; y < gray.height(); ++y) {
        for (int x = 0; x < gray.width(); ++x) {
            const float t = std::clamp(gray(x, y) / 255.0f, 0.0f, 1.0f);
            out(x, y, 0) = dark_.r + (light_.r - dark_.r) * t;
            out(x, y, 1) = dark_.g + (light_.g - dark_.g) * t;
            out(x, y, 2) = dark_.b + (light_.b - dark_.b) * t;
        }
    }
    return out;
}

Cached_video::Cached_video(std::shared_ptr<const Video_source> inner, std::size_t capacity)
    : inner_(std::move(inner)), cache_(capacity)
{
    util::expects(inner_ != nullptr, "Cached_video requires a source");
    util::expects(capacity >= 1, "Cached_video capacity must be >= 1");
}

img::Imagef Cached_video::frame(std::int64_t index) const
{
    // The render runs under the lock too, so readers that miss on the same
    // frame render it once.
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : cache_) {
        if (entry.index == index) return entry.frame;
    }
    Entry& slot = cache_[next_slot_];
    next_slot_ = (next_slot_ + 1) % cache_.size();
    slot.index = index;
    slot.frame = inner_->frame(index);
    return slot.frame;
}

} // namespace inframe::video
