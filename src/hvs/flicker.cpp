#include "hvs/flicker.hpp"

#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace inframe::hvs {

namespace {

// Frames to ignore while the temporal filters settle.
constexpr double warmup_seconds = 0.5;

struct Pooling_kernel {
    int radius = 0;
    std::vector<float> weights; // (2r+1)^2, normalized

    static Pooling_kernel make(double sigma)
    {
        Pooling_kernel kernel;
        kernel.radius = std::max(1, static_cast<int>(std::ceil(2.0 * sigma)));
        const int size = 2 * kernel.radius + 1;
        kernel.weights.resize(static_cast<std::size_t>(size) * static_cast<std::size_t>(size));
        double sum = 0.0;
        for (int dy = -kernel.radius; dy <= kernel.radius; ++dy) {
            for (int dx = -kernel.radius; dx <= kernel.radius; ++dx) {
                const double w =
                    std::exp(-(static_cast<double>(dx) * dx + static_cast<double>(dy) * dy)
                             / (2.0 * sigma * sigma));
                kernel.weights[static_cast<std::size_t>((dy + kernel.radius) * size
                                                        + (dx + kernel.radius))] =
                    static_cast<float>(w);
                sum += w;
            }
        }
        for (auto& w : kernel.weights) w = static_cast<float>(w / sum);
        return kernel;
    }

    double sample(const img::Imagef& frame, double cx, double cy) const
    {
        const int ix = static_cast<int>(std::lround(cx));
        const int iy = static_cast<int>(std::lround(cy));
        const int size = 2 * radius + 1;
        double acc = 0.0;
        for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
                acc += weights[static_cast<std::size_t>((dy + radius) * size + (dx + radius))]
                       * frame.at_clamped(ix + dx, iy + dy);
            }
        }
        return acc;
    }
};

struct Site {
    double x = 0.0;
    double y = 0.0;
    double adapt_luminance = 0.0;
    double peak_amplitude = 0.0;
    std::optional<Perceptual_filter> filter;
};

} // namespace

struct Flicker_assessor::Impl {
    int width;
    int height;
    double fps;
    Observer observer;
    Flicker_options options;
    Pooling_kernel kernel;
    std::vector<Site> sites;
    std::size_t frames_seen = 0;
    std::size_t warmup_frames = 0;

    Impl(int w, int h, double f, Observer o, Flicker_options opts)
        : width(w), height(h), fps(f), observer(std::move(o)), options(opts),
          kernel(Pooling_kernel::make(std::max(0.3, opts.pooling_sigma_540 * h / 540.0)))
    {
        util::expects(w > 0 && h > 0, "Flicker_assessor frame size must be positive");
        util::expects(f > 0.0, "Flicker_assessor fps must be positive");
        util::expects(opts.max_sites >= 1, "Flicker_assessor needs at least one site");
        warmup_frames = static_cast<std::size_t>(warmup_seconds * f);
        place_sites();
    }

    void place_sites()
    {
        // Near-square jittered grid covering the frame.
        const double aspect = static_cast<double>(width) / height;
        int ny = std::max(1, static_cast<int>(std::floor(std::sqrt(options.max_sites / aspect))));
        int nx = std::max(1, options.max_sites / ny);
        util::Prng prng(options.seed);
        sites.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
        for (int gy = 0; gy < ny; ++gy) {
            for (int gx = 0; gx < nx; ++gx) {
                Site site;
                const double cell_w = static_cast<double>(width) / nx;
                const double cell_h = static_cast<double>(height) / ny;
                site.x = (gx + 0.5) * cell_w + prng.next_double(-0.25, 0.25) * cell_w;
                site.y = (gy + 0.5) * cell_h + prng.next_double(-0.25, 0.25) * cell_h;
                site.x = std::clamp(site.x, 0.0, static_cast<double>(width - 1));
                site.y = std::clamp(site.y, 0.0, static_cast<double>(height - 1));
                sites.push_back(std::move(site));
            }
        }
    }

    void push_frame(const img::Imagef& frame_in, const img::Imagef* reference_in = nullptr)
    {
        const img::Imagef frame = img::to_gray(frame_in);
        util::expects(frame.width() == width && frame.height() == height,
                      "Flicker_assessor frame size mismatch");
        img::Imagef reference;
        if (reference_in != nullptr) {
            reference = img::to_gray(*reference_in);
            util::expects(reference.width() == width && reference.height() == height,
                          "Flicker_assessor reference size mismatch");
        }
        const double t = static_cast<double>(frames_seen);
        for (auto& site : sites) {
            // Gaze drift (phantom-array condition): the retinal site slides
            // across the screen; wrap keeps it on-frame for long runs.
            double sx = site.x + options.gaze_velocity_x * t;
            double sy = site.y;
            if (width > 1) sx = std::fmod(std::fmod(sx, width - 1) + (width - 1), width - 1);
            if (height > 1) sy = std::fmod(std::fmod(sy, height - 1) + (height - 1), height - 1);
            double pooled = kernel.sample(frame, sx, sy);
            if (!site.filter) {
                // Adaptation state comes from the first (reference) frame.
                const double adapt = reference_in != nullptr
                                         ? kernel.sample(reference, sx, sy)
                                         : pooled;
                site.adapt_luminance = adapt;
                site.filter.emplace(observer, adapt, fps);
                site.filter->prime(adapt);
            }
            if (reference_in != nullptr) {
                // Side-by-side mode: cancel the content, keep the artifact
                // riding at the site's adaptation level.
                pooled = site.adapt_luminance + (pooled - kernel.sample(reference, sx, sy));
            }
            const double y = site.filter->step(pooled);
            if (frames_seen >= warmup_frames) {
                site.peak_amplitude = std::max(site.peak_amplitude, std::fabs(y));
            }
        }
        ++frames_seen;
    }

    Flicker_result result() const
    {
        Flicker_result r;
        r.frames_assessed = frames_seen;
        if (sites.empty() || frames_seen == 0) return r;

        // Rank sites by visibility ratio; judge by the worst 1% (at least
        // 4 sites) so a single noisy site cannot dominate but localized
        // artifacts still count.
        std::vector<double> ratios;
        ratios.reserve(sites.size());
        double mean_luminance = 0.0;
        for (const auto& site : sites) {
            const double threshold = amplitude_threshold(observer, site.adapt_luminance);
            ratios.push_back(site.peak_amplitude / threshold);
            mean_luminance += site.adapt_luminance;
            r.peak_perceived_amplitude = std::max(r.peak_perceived_amplitude, site.peak_amplitude);
        }
        mean_luminance /= static_cast<double>(sites.size());
        std::sort(ratios.begin(), ratios.end(), std::greater<>());
        const std::size_t top = std::max<std::size_t>(4, ratios.size() / 100);
        double acc = 0.0;
        const std::size_t n = std::min(top, ratios.size());
        for (std::size_t i = 0; i < n; ++i) acc += ratios[i];
        r.visibility_ratio = acc / static_cast<double>(n);
        r.adapt_luminance = mean_luminance;
        r.score = score_from_ratio(r.visibility_ratio);
        return r;
    }
};

Flicker_assessor::Flicker_assessor(int width, int height, double fps, Observer observer,
                                   Flicker_options options)
    : impl_(std::make_unique<Impl>(width, height, fps, std::move(observer), options))
{
}

Flicker_assessor::~Flicker_assessor() = default;
Flicker_assessor::Flicker_assessor(Flicker_assessor&&) noexcept = default;
Flicker_assessor& Flicker_assessor::operator=(Flicker_assessor&&) noexcept = default;

void Flicker_assessor::push_frame(const img::Imagef& frame)
{
    impl_->push_frame(frame);
}

void Flicker_assessor::push_frame_pair(const img::Imagef& shown, const img::Imagef& reference)
{
    impl_->push_frame(shown, &reference);
}

Flicker_result Flicker_assessor::result() const
{
    return impl_->result();
}

int Flicker_assessor::width() const
{
    return impl_->width;
}

int Flicker_assessor::height() const
{
    return impl_->height;
}

Flicker_result assess_flicker(std::span<const img::Imagef> frames, double fps,
                              const Observer& observer, const Flicker_options& options)
{
    util::expects(!frames.empty(), "assess_flicker needs at least one frame");
    Flicker_assessor assessor(frames[0].width(), frames[0].height(), fps, observer, options);
    for (const auto& frame : frames) assessor.push_frame(frame);
    return assessor.result();
}

Panel_result assess_flicker_panel(std::span<const img::Imagef> frames, double fps,
                                  std::span<const Observer> panel,
                                  const Flicker_options& options)
{
    util::expects(!panel.empty(), "assess_flicker_panel needs observers");
    Panel_result result;
    util::Running_stats stats;
    for (const auto& observer : panel) {
        const auto r = assess_flicker(frames, fps, observer, options);
        result.scores.push_back(r.score);
        stats.add(r.score);
    }
    result.mean_score = stats.mean();
    result.stddev_score = stats.stddev();
    return result;
}

} // namespace inframe::hvs
