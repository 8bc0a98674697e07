#include "hvs/flicker.hpp"

#include "imgproc/image_ops.hpp"
#include "imgproc/pool.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <algorithm>
#include <cmath>

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

// A retinal site, shared by every observer of the panel.
struct Site {
    double x = 0.0;
    double y = 0.0;
    double adapt_luminance = 0.0;
};

// A 1-channel frame as it is; a colour frame folded to luminance in
// `storage` (a Frame_pool frame the caller recycles).
const img::Imagef& gray_view(const img::Imagef& frame, img::Imagef& storage)
{
    if (frame.channels() == 1) return frame;
    storage = img::to_gray(frame);
    return storage;
}

} // namespace

struct Flicker_assessor::Impl {
    int width;
    int height;
    double fps;
    std::vector<Observer> panel;
    Flicker_options options;
    Pooling_kernel kernel;
    std::vector<Site> sites;
    // Site-major, one entry per (site, observer): filters[s * panel.size() + o].
    // Built by adapt() on the first frame.
    std::vector<Perceptual_filter> filters;
    std::vector<double> peak_amplitudes;
    std::size_t frames_seen = 0;
    std::size_t warmup_frames = 0;

    Impl(int w, int h, double f, std::vector<Observer> observers, Flicker_options opts)
        : width(w), height(h), fps(f), panel(std::move(observers)), options(opts)
    {
        util::expects(w > 0 && h > 0, "Flicker_assessor frame size must be positive");
        util::expects(std::isfinite(f) && f > 0.0, "Flicker_assessor fps must be finite and positive");
        util::expects(!panel.empty(), "Flicker_assessor needs at least one observer");
        util::expects(opts.max_sites >= 1, "Flicker_assessor needs at least one site");
        // A drift of more than a frame width per frame only aliases, and the
        // bound keeps the drifted position (velocity * frame index) finite.
        util::expects(std::isfinite(opts.gaze_velocity_x)
                          && std::fabs(opts.gaze_velocity_x) <= static_cast<double>(w),
                      "Flicker_assessor gaze velocity must be finite and at most the frame "
                      "width per frame");
        util::expects(std::isfinite(opts.pooling_sigma_540) && opts.pooling_sigma_540 > 0.0,
                      "Flicker_assessor pooling sigma must be finite and positive");
        // The pooling radius is an int of ceil(2 sigma), so sigma is bounded
        // by the frame size (the rule Camera_optics applies to its blur); a
        // wider aperture pools a nearly flat field anyway.
        const double sigma_px = opts.pooling_sigma_540 * h / 540.0;
        util::expects(sigma_px <= static_cast<double>(std::max(w, h)),
                      "Flicker_assessor pooling sigma cannot exceed the frame size");
        kernel = Pooling_kernel::make(std::max(0.3, sigma_px));
        warmup_frames = static_cast<std::size_t>(warmup_seconds * f);
        place_sites();
        peak_amplitudes.assign(sites.size() * panel.size(), 0.0);
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

    // Adaptation state comes from the first reference frame: each site's
    // pooled level primes one filter per observer. The filters are built
    // aside, so a throw leaves the assessor waiting for its first frame.
    void adapt(const img::Imagef& reference)
    {
        std::vector<Perceptual_filter> built;
        built.reserve(sites.size() * panel.size());
        for (Site& site : sites) {
            site.adapt_luminance = kernel.sample(reference, site.x, site.y);
            for (const Observer& observer : panel) {
                built.emplace_back(observer, site.adapt_luminance, fps);
                built.back().prime(site.adapt_luminance);
            }
        }
        filters = std::move(built);
    }

    void push_frame_pair(const img::Imagef& shown_in, const img::Imagef& reference_in)
    {
        util::expects(shown_in.width() == width && shown_in.height() == height,
                      "Flicker_assessor frame size mismatch");
        util::expects(reference_in.width() == width && reference_in.height() == height,
                      "Flicker_assessor reference size mismatch");
        img::Imagef shown_gray;
        img::Imagef reference_gray;
        const img::Imagef& shown = gray_view(shown_in, shown_gray);
        const img::Imagef& reference = gray_view(reference_in, reference_gray);

        if (frames_seen == 0) adapt(reference);
        const std::size_t observers = panel.size();
        const bool settled = frames_seen >= warmup_frames;
        const double t = static_cast<double>(frames_seen);
        for (std::size_t s = 0; s < sites.size(); ++s) {
            const Site& site = sites[s];
            // Gaze drift (phantom-array condition): the retinal site slides
            // across the screen and wraps modulo the width to stay on-frame
            // for long runs. A steady site keeps its column exactly, and no
            // site drifts vertically.
            double sx = std::fmod(site.x + options.gaze_velocity_x * t, width);
            if (sx < 0.0) sx += width;
            const double pooled = kernel.sample(shown, sx, site.y);
            const double pooled_reference = kernel.sample(reference, sx, site.y);
            // Cancel the content, keep the artifact riding at the site's
            // adaptation level. Every observer sees the same sample.
            const double sample = site.adapt_luminance + (pooled - pooled_reference);
            for (std::size_t o = 0; o < observers; ++o) {
                const double y = filters[s * observers + o].step(sample);
                double& peak = peak_amplitudes[s * observers + o];
                if (settled) peak = std::max(peak, std::fabs(y));
            }
        }
        ++frames_seen;
        img::Frame_pool::instance().recycle(std::move(shown_gray));
        img::Frame_pool::instance().recycle(std::move(reference_gray));
    }

    Flicker_result result(std::size_t o) const
    {
        Flicker_result r;
        r.frames_assessed = frames_seen;
        if (frames_seen == 0) return r;

        // Rank sites by visibility ratio; judge by the worst 1% (at least
        // 4 sites) so a single noisy site cannot dominate but localized
        // artifacts still count.
        const Observer& observer = panel[o];
        std::vector<double> ratios;
        ratios.reserve(sites.size());
        double mean_luminance = 0.0;
        for (std::size_t s = 0; s < sites.size(); ++s) {
            const double peak = peak_amplitudes[s * panel.size() + o];
            const double threshold = amplitude_threshold(observer, sites[s].adapt_luminance);
            ratios.push_back(peak / threshold);
            mean_luminance += sites[s].adapt_luminance;
            r.peak_perceived_amplitude = std::max(r.peak_perceived_amplitude, peak);
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

Flicker_assessor::Flicker_assessor(int width, int height, double fps, std::vector<Observer> panel,
                                   Flicker_options options)
    : impl_(std::make_unique<Impl>(width, height, fps, std::move(panel), options))
{
}

Flicker_assessor::~Flicker_assessor() = default;
Flicker_assessor::Flicker_assessor(Flicker_assessor&&) noexcept = default;
Flicker_assessor& Flicker_assessor::operator=(Flicker_assessor&&) noexcept = default;

void Flicker_assessor::push_frame_pair(const img::Imagef& shown, const img::Imagef& reference)
{
    impl_->push_frame_pair(shown, reference);
}

std::vector<Flicker_result> Flicker_assessor::results() const
{
    std::vector<Flicker_result> out;
    out.reserve(impl_->panel.size());
    for (std::size_t o = 0; o < impl_->panel.size(); ++o) out.push_back(impl_->result(o));
    return out;
}

} // namespace inframe::hvs
