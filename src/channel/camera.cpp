#include "channel/camera.hpp"

#include "imgproc/pool.hpp"
#include "simd/simd.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

namespace inframe::channel {

namespace {

using Taps = Camera_optics::Taps;

// Rows per parallel chunk; fixed so partitioning is thread-count-invariant.
constexpr std::int64_t row_grain = 16;

std::size_t tap_count(const Taps& taps, std::size_t row)
{
    return taps.begin[row + 1] - taps.begin[row];
}

std::size_t row_count(const Taps& taps)
{
    return taps.begin.size() - 1;
}

void push_row(Taps& taps, int first, std::span<const double> weights)
{
    taps.first.push_back(first);
    taps.weights.insert(taps.weights.end(), weights.begin(), weights.end());
    taps.begin.push_back(taps.weights.size());
}

// Photosite area integration: sensor pixel i averages the screen interval
// [i, i + 1) * n_in / n_out, each screen pixel weighted by its overlap.
Taps area_taps(int n_in, int n_out)
{
    Taps taps;
    taps.first.reserve(static_cast<std::size_t>(n_out));
    taps.begin.reserve(static_cast<std::size_t>(n_out) + 1);
    const double scale = static_cast<double>(n_in) / n_out;
    std::vector<double> row;
    for (int i = 0; i < n_out; ++i) {
        const double lo = i * scale;
        const double hi = (i + 1) * scale;
        const int first = static_cast<int>(std::floor(lo));
        const int end = std::min(static_cast<int>(std::ceil(hi)), n_in);
        row.clear();
        double area = 0.0;
        for (int j = first; j < end; ++j) {
            row.push_back(std::min<double>(hi, j + 1) - std::max<double>(lo, j));
            area += row.back();
        }
        for (double& w : row) w /= area;
        push_row(taps, first, row);
    }
    return taps;
}

// Lens blur: a normalized Gaussian truncated at max(1, ceil(3 sigma));
// sigma 0 is the identity.
std::vector<double> blur_kernel(double sigma)
{
    if (sigma == 0.0) return {1.0};
    const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    std::vector<double> kernel;
    double sum = 0.0;
    for (int k = -radius; k <= radius; ++k) {
        kernel.push_back(std::exp(-static_cast<double>(k) * k / (2.0 * sigma * sigma)));
        sum += kernel.back();
    }
    for (double& v : kernel) v /= sum;
    return kernel;
}

// The optics along one axis: area resample from n_in to n_out pixels, then
// a shift by `offset` pixels (linear interpolation at i - offset), then the
// lens blur, each step clamp-to-edge. Output i first folds its blur and
// shift taps into weights over the resampled pixels m, then adds up the
// precomputed area rows of those m.
Taps axis_taps(int n_in, int n_out, double offset, double sigma)
{
    const Taps area = area_taps(n_in, n_out);
    const std::vector<double> kernel = blur_kernel(sigma);
    const int radius = static_cast<int>(kernel.size() / 2);
    Taps taps;
    taps.first.reserve(static_cast<std::size_t>(n_out));
    taps.begin.reserve(static_cast<std::size_t>(n_out) + 1);
    taps.weights.reserve(static_cast<std::size_t>(n_out) * (kernel.size() + 1)
                         * (area.weights.size() / static_cast<std::size_t>(n_out) + 1));
    std::vector<double> resampled(static_cast<std::size_t>(n_out), 0.0);
    std::vector<double> row(static_cast<std::size_t>(n_in), 0.0);
    for (int i = 0; i < n_out; ++i) {
        int m_lo = n_out;
        int m_hi = 0;
        for (int k = -radius; k <= radius; ++k) {
            const double g = kernel[static_cast<std::size_t>(k + radius)];
            const int j = std::clamp(i + k, 0, n_out - 1);
            const double p = std::clamp(j - offset, 0.0, n_out - 1.0);
            const int m = static_cast<int>(p);
            const double t = p - m;
            resampled[static_cast<std::size_t>(m)] += g * (1.0 - t);
            m_lo = std::min(m_lo, m);
            m_hi = std::max(m_hi, m + 1);
            if (t > 0.0) {
                resampled[static_cast<std::size_t>(m) + 1] += g * t;
                m_hi = std::max(m_hi, m + 2);
            }
        }
        int lo = n_in;
        int hi = 0;
        for (auto m = static_cast<std::size_t>(m_lo); m < static_cast<std::size_t>(m_hi); ++m) {
            const auto first = static_cast<std::size_t>(area.first[m]);
            for (std::size_t k = 0; k < tap_count(area, m); ++k) {
                row[first + k] += resampled[m] * area.weights[area.begin[m] + k];
            }
            resampled[m] = 0.0;
            lo = std::min(lo, area.first[m]);
            hi = std::max(hi, area.first[m] + static_cast<int>(tap_count(area, m)));
        }
        push_row(taps, lo, std::span<const double>(row).subspan(lo, hi - lo));
        std::fill(row.begin() + lo, row.begin() + hi, 0.0);
    }
    return taps;
}

// Shared by Camera_optics and apply_sensor_noise_rows, which takes its
// parameters directly.
void check_electronics(const Camera_params& params)
{
    util::expects(std::isfinite(params.shot_noise_scale) && params.shot_noise_scale >= 0.0,
                  "shot noise scale must be finite and non-negative");
    util::expects(std::isfinite(params.read_noise_sigma) && params.read_noise_sigma >= 0.0,
                  "read noise must be finite and non-negative");
    util::expects(std::isfinite(params.gain) && params.gain > 0.0,
                  "camera gain must be finite and positive");
}

} // namespace

Camera_optics::Camera_optics(const Camera_params& params, int screen_width, int screen_height)
    : params_(params), screen_width_(screen_width), screen_height_(screen_height)
{
    util::expects(params.fps > 0.0, "camera fps must be positive");
    util::expects(params.exposure_s > 0.0, "camera exposure must be positive");
    util::expects(params.exposure_s <= 1.0 / params.fps,
                  "camera exposure cannot exceed the frame interval");
    util::expects(params.readout_s >= 0.0, "camera readout skew must be non-negative");
    util::expects(params.readout_s + params.exposure_s <= 1.0 / params.fps,
                  "rolling-shutter capture must finish within the frame interval");
    util::expects(params.sensor_width > 0 && params.sensor_height > 0,
                  "sensor resolution must be positive");
    util::expects(std::isfinite(params.optical_blur_sigma) && params.optical_blur_sigma >= 0.0,
                  "optical blur must be finite and non-negative");
    // The blur radius is an int of ceil(3 sigma) and the kernel holds
    // 2*radius + 1 taps, so sigma is bounded by the sensor size; a wider
    // blur is a nearly flat field anyway.
    util::expects(params.optical_blur_sigma
                      <= static_cast<double>(std::max(params.sensor_width, params.sensor_height)),
                  "optical blur cannot exceed the sensor size");
    util::expects(std::isfinite(params.offset_x_px) && std::isfinite(params.offset_y_px),
                  "sensor offset must be finite");
    check_electronics(params);
    util::expects(screen_width > 0 && screen_height > 0, "screen size must be positive");

    // The perspective path warps onto the sensor grid first, so its taps
    // keep only the blur (area and shift on a same-size grid are the
    // identity).
    const bool warp = params.sensor_to_screen.has_value();
    taps_x_ = axis_taps(warp ? params.sensor_width : screen_width, params.sensor_width,
                        warp ? 0.0 : params.offset_x_px, params.optical_blur_sigma);
    taps_y_ = axis_taps(warp ? params.sensor_height : screen_height, params.sensor_height,
                        warp ? 0.0 : params.offset_y_px, params.optical_blur_sigma);
}

img::Imagef Camera_optics::perspective_warp(const img::Imagef& emitted) const
{
    util::expects(emitted.width() == screen_width_ && emitted.height() == screen_height_,
                  "emitted frame does not match the configured screen size");
    if (!params_.sensor_to_screen) return {};
    // Perspective path: each sensor pixel samples the screen through the
    // viewing homography (bilinear; the optical blur stands in for
    // photosite integration).
    return img::warp_perspective(emitted, *params_.sensor_to_screen, params_.sensor_width,
                                 params_.sensor_height);
}

img::Imagef Camera_optics::optics_input(img::Imagef emitted) const
{
    img::Imagef warped = perspective_warp(emitted);
    if (warped.empty()) return emitted;
    img::Frame_pool::instance().recycle(std::move(emitted));
    return warped;
}

void Camera_optics::project_row(const img::Imagef& input, int y, std::vector<double>& column_sums,
                                std::span<float> out) const
{
    // Vertical taps first, over whole input rows, then the horizontal taps
    // along that accumulated row; every sum runs in double, in tap order, so
    // a row's value depends on nothing but the input and y.
    const bool warp = params_.sensor_to_screen.has_value();
    util::expects(input.width() == (warp ? params_.sensor_width : screen_width_)
                      && input.height() == (warp ? params_.sensor_height : screen_height_)
                      && y >= 0 && y < params_.sensor_height
                      && out.size() == static_cast<std::size_t>(params_.sensor_width)
                                           * static_cast<std::size_t>(input.channels()),
                  "project_row: input, row or output does not match the optics");
    const int ch = input.channels();
    const auto r = static_cast<std::size_t>(y);
    column_sums.assign(static_cast<std::size_t>(input.width()) * ch, 0.0);
    for (std::size_t k = 0; k < tap_count(taps_y_, r); ++k) {
        const double w = taps_y_.weights[taps_y_.begin[r] + k];
        const float* in = input.row(taps_y_.first[r] + static_cast<int>(k)).data();
        for (std::size_t i = 0; i < column_sums.size(); ++i) column_sums[i] += w * in[i];
    }
    for (std::size_t x = 0; x < row_count(taps_x_); ++x) {
        const double* w = taps_x_.weights.data() + taps_x_.begin[x];
        const double* in = column_sums.data() + static_cast<std::ptrdiff_t>(taps_x_.first[x]) * ch;
        for (int c = 0; c < ch; ++c) {
            double acc = 0.0;
            for (std::size_t k = 0; k < tap_count(taps_x_, x); ++k) acc += w[k] * in[k * ch + c];
            out[x * ch + c] = static_cast<float>(acc);
        }
    }
}

img::Imagef Camera_optics::to_sensor(const img::Imagef& emitted) const
{
    img::Imagef warped = perspective_warp(emitted);
    const img::Imagef& input = warped.empty() ? emitted : warped;
    img::Imagef sensor = img::Frame_pool::instance().acquire(
        params_.sensor_width, params_.sensor_height, input.channels());
    util::parallel_for(0, sensor.height(), row_grain, [&](std::int64_t y0, std::int64_t y1) {
        std::vector<double> column_sums;
        for (std::int64_t y = y0; y < y1; ++y) {
            project_row(input, static_cast<int>(y), column_sums, sensor.row(static_cast<int>(y)));
        }
    });
    img::Frame_pool::instance().recycle(std::move(warped));
    return sensor;
}

Camera_params auto_expose(Camera_params params, double scene_mean_level)
{
    // The metering curve: reference exposure at the reference scene level,
    // stretched up to the longest exposure a phone allows before gain.
    constexpr double reference_level = 180.0;
    constexpr double reference_exposure_s = 1.0 / 480.0;
    constexpr double max_exposure_s = 1.0 / 180.0;
    util::expects(std::isfinite(scene_mean_level) && scene_mean_level >= 0.0,
                  "auto_expose: scene level must be finite and non-negative");
    const double level = std::max(scene_mean_level, 1.0);
    const double target = reference_exposure_s * reference_level / level;
    const double frame_limit = 1.0 / params.fps - params.readout_s;
    const double exposure =
        std::clamp(target, 1e-5, std::min(max_exposure_s, frame_limit));
    params.exposure_s = exposure;
    // Metering shortfall becomes digital gain (and amplified noise).
    params.gain *= std::max(target / exposure, 1.0);
    return params;
}

namespace {

// Per-chunk scratch for one row's Box-Muller pairs.
struct Noise_scratch {
    std::vector<double> u1;
    std::vector<double> u2;
    std::vector<double> gaussians;
};

// The first `count` Gaussians of one row's stream, in the order a fresh
// util::Prng(seed) hands them out through next_gaussian: pair j draws u1
// (again while <= DBL_MIN) then u2, and yields r cos a, then r sin a.
const double* row_gaussians(std::uint64_t seed, std::size_t count, Noise_scratch& scratch)
{
    const std::size_t pairs = (count + 1) / 2;
    scratch.u1.resize(pairs);
    scratch.u2.resize(pairs);
    scratch.gaussians.resize(2 * pairs);
    util::Prng prng(seed);
    for (std::size_t j = 0; j < pairs; ++j) {
        double u1 = 0.0;
        do {
            u1 = prng.next_double();
        } while (u1 <= std::numeric_limits<double>::min());
        scratch.u1[j] = u1;
        scratch.u2[j] = prng.next_double();
    }
    simd::kernels().box_muller_f64(scratch.u1.data(), scratch.u2.data(),
                                   scratch.gaussians.data(), static_cast<int>(pairs));
    return scratch.gaussians.data();
}

// Shot noise, read noise, gain, clamp and rounding on one row in place, in
// util::Prng's draw order: value i takes Gaussian i * d (shot) and
// i * d + d - 1 (read), d the number of noise terms on. Every op is an
// exact IEEE op in a fixed order, and the loop has no branches, so the
// compiler may vectorize it (see CMakeLists.txt) without changing a bit.
// Returns false if any input value is NaN or infinite.
template <bool shot, bool read>
bool electronics_row(std::span<float> values, const Camera_params& params, const double* g)
{
    constexpr std::size_t d = std::size_t{shot} + std::size_t{read};
    const double shot_scale = params.shot_noise_scale;
    const double read_sigma = params.read_noise_sigma;
    const double gain = static_cast<float>(params.gain);
    const bool quantize = params.quantize;
    int non_finite = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const float v = values[i];
        non_finite |= std::isfinite(v) ? 0 : 1;
        double level = v;
        // 0.0 + stddev * g, as util::Prng::next_gaussian(0.0, stddev) sums
        // it: the 0.0 turns a -0.0 noise term into +0.0.
        if constexpr (shot) {
            level += 0.0 + shot_scale * std::sqrt(std::max(level, 0.0)) * g[i * d];
        }
        if constexpr (read) level += 0.0 + read_sigma * g[i * d + d - 1];
        level *= gain;
        level = std::min(std::max(level, 0.0), 255.0); // std::clamp's result
        // Round to nearest, ties to even, as nearbyint does (-0.0 stays).
        if (quantize) level = std::copysign((level + 0x1.8p52) - 0x1.8p52, level);
        values[i] = static_cast<float>(level);
    }
    return non_finite == 0;
}

std::uint64_t mix64(std::uint64_t x)
{
    // splitmix64 finalizer: full-avalanche mixing of the seed words.
    x += 0x9e37'79b9'7f4a'7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t row_noise_seed(std::uint64_t seed, std::int64_t capture_index, int row)
{
    return mix64(mix64(seed ^ mix64(static_cast<std::uint64_t>(capture_index)))
                 ^ static_cast<std::uint64_t>(row));
}

void apply_sensor_noise_rows(img::Imagef& integrated, const Camera_params& params,
                             std::int64_t capture_index)
{
    check_electronics(params);
    const bool shot = params.shot_noise_scale > 0.0;
    const bool read = params.read_noise_sigma > 0.0;
    const std::size_t per_value = std::size_t{shot} + std::size_t{read};
    const auto electronics = shot ? (read ? electronics_row<true, true>
                                          : electronics_row<true, false>)
                                  : (read ? electronics_row<false, true>
                                          : electronics_row<false, false>);
    util::parallel_for(0, integrated.height(), 8, [&](std::int64_t r0, std::int64_t r1) {
        Noise_scratch scratch;
        bool finite = true;
        for (std::int64_t r = r0; r < r1; ++r) {
            const auto row = integrated.row(static_cast<int>(r));
            const double* gaussians =
                per_value == 0 ? nullptr
                               : row_gaussians(row_noise_seed(params.seed, capture_index,
                                                              static_cast<int>(r)),
                                               row.size() * per_value, scratch);
            finite &= electronics(row, params, gaussians);
        }
        util::expects(finite, "apply_sensor_noise_rows: non-finite irradiance (NaN or Inf)");
    });
}

} // namespace inframe::channel
