// Procedural video sources.
//
// The paper evaluates with three inputs: a pure light-gray video, a pure
// dark-gray video (RGB 180 and 127 — the exact levels from 4), and a
// natural "sun-rising" clip. We do not have the authors' clip, so
// Sunrise_video synthesizes a scene with the properties that matter to the
// decoder: a wide luminance range (dark foreground to bright sun), smooth
// sky gradients, slow global change, local motion, and textured regions.
//
// All sources are deterministic functions of (frame index, seed): the same
// index always yields the same frame, which the reproduction relies on.
// Frames are single-channel luminance in the [0, 255] float domain — the
// paper's coding operates on pixel values, not chromaticity.
#pragma once

#include "imgproc/image.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace inframe::video {

class Video_source {
public:
    virtual ~Video_source() = default;

    // Frame at the source's native rate. index >= 0; sources are
    // infinitely long (generators extend/loop deterministically).
    virtual img::Imagef frame(std::int64_t index) const = 0;

    virtual int width() const = 0;
    virtual int height() const = 0;
    virtual double fps() const = 0;
    virtual std::string name() const = 0;
};

// Constant-color frames ("pure gray" / "pure dark gray" in the paper). The
// level must be in [0, 255].
class Solid_video final : public Video_source {
public:
    Solid_video(int width, int height, float level, double fps = 30.0);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return width_; }
    int height() const override { return height_; }
    double fps() const override { return fps_; }
    std::string name() const override;
    float level() const { return level_; }

private:
    int width_;
    int height_;
    float level_;
    double fps_;
};

// Procedural sunrise scene: brightening sky gradient, rising sun disc,
// drifting value-noise clouds, dark textured foreground hills. Rows render
// in parallel (util::parallel_for); every pixel is a pure function of
// (x, y, index), so frames are bit-identical at any thread count.
class Sunrise_video final : public Video_source {
public:
    Sunrise_video(int width, int height, double fps = 30.0, std::uint64_t seed = 1);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return width_; }
    int height() const override { return height_; }
    double fps() const override { return fps_; }
    std::string name() const override { return "sunrise"; }

private:
    int width_;
    int height_;
    double fps_;
    std::uint64_t seed_;
    // The foreground hills do not move: rows [ground_row_, height_) hold
    // each pixel's texture term, (fractal noise - 0.5) * 38, computed once.
    int ground_row_;
    std::vector<double> hill_texture_;
};

// Vertical bars scrolling horizontally: a motion/edge stress input. The
// speed must be finite; a negative speed scrolls left. The bar levels lo
// and hi must be in [0, 255].
class Moving_bars_video final : public Video_source {
public:
    Moving_bars_video(int width, int height, int bar_width, float speed_px_per_frame,
                      double fps = 30.0, float lo = 64.0f, float hi = 192.0f);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return width_; }
    int height() const override { return height_; }
    double fps() const override { return fps_; }
    std::string name() const override { return "moving-bars"; }

private:
    int width_;
    int height_;
    int bar_width_;
    float speed_;
    double fps_;
    float lo_;
    float hi_;
};

// Independent per-frame noise around a mid level: the decoder's worst-case
// texture input. The mean level must be in [0, 255].
class Noise_video final : public Video_source {
public:
    Noise_video(int width, int height, float mean_level, float stddev, double fps = 30.0,
                std::uint64_t seed = 2);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return width_; }
    int height() const override { return height_; }
    double fps() const override { return fps_; }
    std::string name() const override { return "noise"; }

private:
    int width_;
    int height_;
    float mean_level_;
    float stddev_;
    double fps_;
    std::uint64_t seed_;
};

// Memoizes the most recent frames of a wrapped source. The encoder asks for
// each video frame refresh_rate/video_fps times in a row; generators are
// expensive enough that caching matters. Safe to share across threads:
// lookups and fills are serialized by a mutex.
class Cached_video final : public Video_source {
public:
    explicit Cached_video(std::shared_ptr<const Video_source> inner, std::size_t capacity = 4);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return inner_->width(); }
    int height() const override { return inner_->height(); }
    double fps() const override { return inner_->fps(); }
    std::string name() const override { return inner_->name(); }

private:
    struct Entry {
        std::int64_t index = -1;
        img::Imagef frame;
    };

    std::shared_ptr<const Video_source> inner_;
    mutable std::mutex mutex_; // guards cache_ and next_slot_
    mutable std::vector<Entry> cache_;
    mutable std::size_t next_slot_ = 0;
};

// Slideshow with hard cuts: cycles through a set of distinct test cards,
// switching instantly every `hold_frames` frames. Scene cuts invalidate
// the encoder's per-video-frame statistics and stress the decoder's
// temporal grouping — the harshest kind of legitimate video content.
class Slideshow_video final : public Video_source {
public:
    Slideshow_video(int width, int height, int hold_frames, double fps = 30.0,
                    std::uint64_t seed = 3);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return width_; }
    int height() const override { return height_; }
    double fps() const override { return fps_; }
    std::string name() const override { return "slideshow"; }

    int hold_frames() const { return hold_frames_; }

private:
    int width_;
    int height_;
    int hold_frames_;
    double fps_;
    std::uint64_t seed_;
};

// Scrolling text ticker over a flat background: thin high-contrast glyph
// strokes moving horizontally — text is exactly the content a broadcaster
// overlays on live video, and its sharp edges probe the decoder's texture
// rejection. The text scrolls left; a negative speed scrolls it right. The
// speed must be finite; background and ink must be in [0, 255].
class Ticker_video final : public Video_source {
public:
    Ticker_video(int width, int height, std::string text, float speed_px_per_frame,
                 double fps = 30.0, float background = 110.0f, float ink = 235.0f);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return width_; }
    int height() const override { return height_; }
    double fps() const override { return fps_; }
    std::string name() const override { return "ticker"; }

private:
    int width_;
    int height_;
    std::string text_;
    float speed_;
    double fps_;
    float background_;
    float ink_;
    int text_width_px_;
};

// Colourizes a grayscale source by mapping luminance through a two-point
// gradient (dark tint -> light tint, both RGB in [0, 255]). Keeps the
// luminance ramp of the wrapped source while producing genuine 3-channel
// frames — e.g. a warm-tinted sunrise for the colour pipeline.
class Tinted_video final : public Video_source {
public:
    struct Tint {
        float r = 0.0f;
        float g = 0.0f;
        float b = 0.0f;
    };

    Tinted_video(std::shared_ptr<const Video_source> inner, Tint dark, Tint light);

    img::Imagef frame(std::int64_t index) const override;
    int width() const override { return inner_->width(); }
    int height() const override { return inner_->height(); }
    double fps() const override { return inner_->fps(); }
    std::string name() const override { return inner_->name() + "-tinted"; }

private:
    std::shared_ptr<const Video_source> inner_;
    Tint dark_;
    Tint light_;
};

// Fractal value noise along one row, in [0, 1]: out[i] is the sum of
// `octaves` layers of smooth 2-D value noise at (x[i], y) (random lattice
// values, bilinear interpolation with a smoothstep fade), each octave at
// twice the frequency and half the amplitude of the one before, divided by
// the total amplitude. Deterministic in (x[i], y, seed); one octave is plain
// value noise. x and out must not overlap.
void fractal_noise_row(std::span<const double> x, double y, std::uint64_t seed, int octaves,
                       std::span<double> out);

} // namespace inframe::video
