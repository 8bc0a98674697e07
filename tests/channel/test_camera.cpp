#include "channel/camera.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace {

using namespace inframe::channel;
using inframe::img::Imagef;
using inframe::util::Contract_violation;
using inframe::util::Prng;

Camera_params clean_camera(int sw, int sh)
{
    Camera_params params;
    params.sensor_width = sw;
    params.sensor_height = sh;
    params.optical_blur_sigma = 0.0;
    params.offset_x_px = 0.0;
    params.offset_y_px = 0.0;
    params.shot_noise_scale = 0.0;
    params.read_noise_sigma = 0.0;
    params.quantize = false;
    return params;
}

TEST(CameraOptics, DownsamplesToSensorResolution)
{
    const auto params = clean_camera(32, 18);
    Camera_optics optics(params, 64, 36);
    const Imagef sensor = optics.to_sensor(Imagef(64, 36, 1, 99.0f));
    EXPECT_EQ(sensor.width(), 32);
    EXPECT_EQ(sensor.height(), 18);
    for (const float v : sensor.values()) EXPECT_NEAR(v, 99.0f, 1e-3f);
}

TEST(CameraOptics, PreservesMeanThroughResample)
{
    const auto params = clean_camera(40, 24);
    Camera_optics optics(params, 120, 72);
    const Imagef screen = inframe::img::checkerboard(120, 72, 6, 50.0f, 150.0f);
    const Imagef sensor = optics.to_sensor(screen);
    EXPECT_NEAR(inframe::img::mean(sensor), inframe::img::mean(screen), 1.0);
}

TEST(CameraOptics, BlurSoftensEdges)
{
    auto params = clean_camera(64, 36);
    params.optical_blur_sigma = 1.5;
    Camera_optics optics(params, 64, 36);
    Imagef screen(64, 36, 1, 0.0f);
    inframe::img::fill_rect(screen, 32, 0, 32, 36, 200.0f);
    const Imagef sensor = optics.to_sensor(screen);
    // The hard edge becomes a ramp: value at the edge is mid-level.
    EXPECT_GT(sensor(31, 18), 20.0f);
    EXPECT_LT(sensor(31, 18), 180.0f);
}

TEST(CameraOptics, MisalignmentShiftsImage)
{
    auto params = clean_camera(64, 36);
    params.offset_x_px = 3.0;
    Camera_optics optics(params, 64, 36);
    Imagef screen(64, 36, 1, 0.0f);
    inframe::img::fill_rect(screen, 10, 0, 4, 36, 100.0f);
    const Imagef sensor = optics.to_sensor(screen);
    EXPECT_NEAR(sensor(14, 18), 100.0f, 1.0f);
    EXPECT_NEAR(sensor(10, 18), 0.0f, 1.0f);
}

TEST(CameraOptics, RejectsWrongScreenSize)
{
    const auto params = clean_camera(32, 18);
    Camera_optics optics(params, 64, 36);
    EXPECT_THROW(optics.to_sensor(Imagef(60, 36)), Contract_violation);
}

TEST(CameraOptics, ParameterValidation)
{
    auto params = clean_camera(32, 18);
    params.exposure_s = 0.0;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(32, 18);
    params.exposure_s = 0.05; // exceeds 1/30 with readout
    params.readout_s = 0.0;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(32, 18);
    params.readout_s = -0.1;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(0, 18);
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(32, 18);
    params.gain = 0.0;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double sigma : {-0.5, nan, inf, 1e9, 1e300}) {
        params = clean_camera(32, 18);
        params.optical_blur_sigma = sigma;
        EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation) << sigma;
    }
    params = clean_camera(32, 18);
    params.optical_blur_sigma = 32.0; // the bound: max(sensor_width, sensor_height)
    EXPECT_NO_THROW(Camera_optics(params, 64, 36));
    for (const double offset : {nan, inf, -inf}) {
        params = clean_camera(32, 18);
        params.offset_x_px = offset;
        EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation) << offset;
        params = clean_camera(32, 18);
        params.offset_y_px = offset;
        EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation) << offset;
    }
}

// --- one optical step at a time ---------------------------------------------
// to_sensor composes area resample, sub-pixel shift and lens blur into one
// operator; each suite below switches on a single step and pins what that
// step alone must do.

Imagef project(const Imagef& screen, int sensor_width, int sensor_height, double sigma = 0.0,
               double offset_x = 0.0, double offset_y = 0.0)
{
    auto params = clean_camera(sensor_width, sensor_height);
    params.optical_blur_sigma = sigma;
    params.offset_x_px = offset_x;
    params.offset_y_px = offset_y;
    return Camera_optics(params, screen.width(), screen.height()).to_sensor(screen);
}

TEST(ResizeArea, DownscalePreservesMean)
{
    Prng prng(6);
    Imagef a(64, 48);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const Imagef out = project(a, 21, 17);
    EXPECT_NEAR(inframe::img::mean(out), inframe::img::mean(a), 1.0);
}

TEST(ResizeArea, ExactFactorAveragesBlocks)
{
    Imagef a(4, 2);
    a(0, 0) = 0.0f;
    a(1, 0) = 100.0f;
    a(2, 0) = 40.0f;
    a(3, 0) = 60.0f;
    a(0, 1) = 100.0f;
    a(1, 1) = 0.0f;
    a(2, 1) = 60.0f;
    a(3, 1) = 40.0f;
    const Imagef out = project(a, 2, 1);
    EXPECT_NEAR(out(0, 0), 50.0f, 1e-3f);
    EXPECT_NEAR(out(1, 0), 50.0f, 1e-3f);
}

TEST(ResizeArea, NonIntegerFactorWeightsOverlap)
{
    // 3 -> 2: each output pixel covers 1.5 input pixels.
    Imagef a(3, 1);
    a(0, 0) = 0.0f;
    a(1, 0) = 90.0f;
    a(2, 0) = 30.0f;
    const Imagef out = project(a, 2, 1);
    EXPECT_NEAR(out(0, 0), (0.0 * 1.0 + 90.0 * 0.5) / 1.5, 1e-3);
    EXPECT_NEAR(out(1, 0), (90.0 * 0.5 + 30.0 * 1.0) / 1.5, 1e-3);
}

TEST(Translate, IntegerShiftMovesContent)
{
    Imagef a(5, 5, 1, 0.0f);
    a(1, 1) = 77.0f;
    const Imagef out = project(a, 5, 5, 0.0, 2.0, 1.0);
    EXPECT_NEAR(out(3, 2), 77.0f, 1e-3f);
    EXPECT_NEAR(out(1, 1), 0.0f, 1e-3f);
}

TEST(Translate, SubPixelShiftSplitsEnergy)
{
    Imagef a(4, 1, 1, 0.0f);
    a(1, 0) = 100.0f;
    const Imagef out = project(a, 4, 1, 0.0, 0.5, 0.0);
    EXPECT_NEAR(out(1, 0), 50.0f, 1e-3f);
    EXPECT_NEAR(out(2, 0), 50.0f, 1e-3f);
}

TEST(GaussianKernel, NormalizedAndSymmetric)
{
    // The impulse response of the blur step is its kernel.
    Imagef a(15, 15, 1, 0.0f);
    a(7, 7) = 100.0f;
    const Imagef out = project(a, 15, 15, 1.5);
    EXPECT_NEAR(inframe::img::mean(out) * 225.0, 100.0, 1e-3);
    for (int k = 1; k <= 7; ++k) {
        EXPECT_FLOAT_EQ(out(7 - k, 7), out(7 + k, 7)) << k;
        EXPECT_FLOAT_EQ(out(7, 7 - k), out(7, 7 + k)) << k;
        EXPECT_FLOAT_EQ(out(7 - k, 7), out(7, 7 - k)) << k;
    }
}

TEST(GaussianBlur, SigmaZeroIsIdentity)
{
    Imagef a(4, 4, 1, 5.0f);
    a(1, 1) = 50.0f;
    const Imagef out = project(a, 4, 4, 0.0);
    EXPECT_FLOAT_EQ(out(1, 1), 50.0f);
    EXPECT_FLOAT_EQ(out(2, 1), 5.0f);
}

TEST(GaussianBlur, SpreadsAnImpulse)
{
    Imagef a(11, 11, 1, 0.0f);
    a(5, 5) = 100.0f;
    const Imagef out = project(a, 11, 11, 1.0);
    EXPECT_LT(out(5, 5), 100.0f);
    EXPECT_GT(out(5, 5), out(4, 5) - 1e-3f);
    EXPECT_GT(out(4, 5), 0.0f);
    // Energy conservation (clamp border far away from impulse).
    EXPECT_NEAR(inframe::img::mean(out) * 121.0, 100.0, 0.5);
}

TEST(GaussianBlur, ReducesCheckerboardContrastMoreThanGradient)
{
    using inframe::img::abs_diff;
    using inframe::img::mean;
    const Imagef board = inframe::img::checkerboard(32, 32, 1, 0.0f, 100.0f);
    const Imagef ramp = inframe::img::horizontal_gradient(32, 32, 0.0f, 100.0f);
    const Imagef board_blur = project(board, 32, 32, 1.2);
    const Imagef ramp_blur = project(ramp, 32, 32, 1.2);
    const double board_residual = mean(abs_diff(board, board_blur));
    const double ramp_residual = mean(abs_diff(ramp, ramp_blur));
    // This asymmetry is exactly what the InFrame decoder relies on.
    EXPECT_GT(board_residual, 10.0 * ramp_residual);
}

// --- bound against the separate steps ---------------------------------------
// A dense double-precision reference: each optical step written out as a
// per-axis matrix (area resample, then bilinear shift, then Gaussian, all
// clamp-to-edge) and applied one after another. to_sensor folds them into
// one precomputed operator with a different floating-point association;
// its pre-quantization irradiance must stay within 1e-3 DN of the steps.

using Matrix = std::vector<std::vector<double>>;

Matrix area_matrix(int n_in, int n_out)
{
    // Output pixel i averages the input interval [i, i + 1) * n_in / n_out,
    // each input pixel weighted by its overlap.
    Matrix m(static_cast<std::size_t>(n_out),
             std::vector<double>(static_cast<std::size_t>(n_in)));
    const double scale = static_cast<double>(n_in) / n_out;
    for (int i = 0; i < n_out; ++i) {
        auto& row = m[static_cast<std::size_t>(i)];
        double area = 0.0;
        for (int j = 0; j < n_in; ++j) {
            const double overlap =
                std::min((i + 1) * scale, j + 1.0) - std::max(i * scale, 1.0 * j);
            row[static_cast<std::size_t>(j)] = std::max(overlap, 0.0);
            area += row[static_cast<std::size_t>(j)];
        }
        for (double& w : row) w /= area;
    }
    return m;
}

Matrix shift_matrix(int n, double offset)
{
    // Output pixel i interpolates linearly at i - offset, clamped to the
    // image.
    Matrix m(static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) {
        const double p = std::clamp(i - offset, 0.0, n - 1.0);
        const int j0 = static_cast<int>(std::floor(p));
        const int j1 = std::min(j0 + 1, n - 1);
        m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j0)] += 1.0 - (p - j0);
        m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j1)] += p - j0;
    }
    return m;
}

Matrix gaussian_matrix(int n, double sigma)
{
    // Truncated at max(1, ceil(3 sigma)) and normalized; sigma 0 is the
    // identity.
    const int radius = sigma > 0.0 ? std::max(1, static_cast<int>(std::ceil(3.0 * sigma))) : 0;
    std::vector<double> kernel;
    double sum = 0.0;
    for (int k = -radius; k <= radius; ++k) {
        kernel.push_back(sigma > 0.0 ? std::exp(-k * k / (2.0 * sigma * sigma)) : 1.0);
        sum += kernel.back();
    }
    Matrix m(static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) {
        for (int k = -radius; k <= radius; ++k) {
            const auto j = static_cast<std::size_t>(std::clamp(i + k, 0, n - 1));
            m[static_cast<std::size_t>(i)][j] += kernel[static_cast<std::size_t>(k + radius)] / sum;
        }
    }
    return m;
}

Matrix multiply(const Matrix& a, const Matrix& b)
{
    Matrix out(a.size(), std::vector<double>(b[0].size()));
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t k = 0; k < b.size(); ++k) {
            if (a[i][k] == 0.0) continue; // the step matrices are banded
            for (std::size_t j = 0; j < b[0].size(); ++j) out[i][j] += a[i][k] * b[k][j];
        }
    }
    return out;
}

// out(x, y, c) = sum over (i, j) of rows[y][j] * cols[x][i] * in(i, j, c),
// channel-interleaved like Imagef.
std::vector<double> apply_separable(const Imagef& in, const Matrix& cols, const Matrix& rows)
{
    const auto ch = static_cast<std::size_t>(in.channels());
    const std::size_t out_w = cols.size();
    std::vector<double> horizontal(static_cast<std::size_t>(in.height()) * out_w * ch);
    for (int j = 0; j < in.height(); ++j) {
        for (std::size_t x = 0; x < out_w; ++x) {
            for (std::size_t c = 0; c < ch; ++c) {
                double acc = 0.0;
                for (int i = 0; i < in.width(); ++i) {
                    acc += cols[x][static_cast<std::size_t>(i)] * in(i, j, static_cast<int>(c));
                }
                horizontal[(static_cast<std::size_t>(j) * out_w + x) * ch + c] = acc;
            }
        }
    }
    std::vector<double> out(rows.size() * out_w * ch);
    for (std::size_t y = 0; y < rows.size(); ++y) {
        for (std::size_t v = 0; v < out_w * ch; ++v) {
            double acc = 0.0;
            for (std::size_t j = 0; j < rows[y].size(); ++j) {
                acc += rows[y][j] * horizontal[j * out_w * ch + v];
            }
            out[y * out_w * ch + v] = acc;
        }
    }
    return out;
}

Imagef textured_screen(int width, int height, int channels, std::uint64_t seed)
{
    Prng prng(seed);
    Imagef screen(width, height, channels);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            for (int c = 0; c < channels; ++c) {
                // Sharp edges (the chessboard) plus per-pixel noise.
                const float board = ((x / 3 + y / 2 + c) % 2) ? 200.0f : 40.0f;
                screen(x, y, c) = board + static_cast<float>(prng.next_double(-20.0, 20.0));
            }
        }
    }
    return screen;
}

double max_deviation(const Imagef& sensor, const std::vector<double>& reference)
{
    double worst = 0.0;
    const auto values = sensor.values();
    EXPECT_EQ(values.size(), reference.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        worst = std::max(worst, std::fabs(values[i] - reference[i]));
    }
    return worst;
}

TEST(CameraOptics, ComposedOperatorMatchesSeparateStepsWithinBound)
{
    struct Case {
        int channels;
        double sigma;
        double offset_x;
        double offset_y;
    };
    const Camera_params defaults;
    const Case cases[] = {
        {1, defaults.optical_blur_sigma, defaults.offset_x_px, defaults.offset_y_px},
        {3, defaults.optical_blur_sigma, defaults.offset_x_px, defaults.offset_y_px},
        {1, 0.0, 0.0, 0.0},
        {3, 0.0, 0.0, 0.0},
        {1, 1.3, -0.7, 2.45},
        {3, 0.8, 1.5, -0.35},
    };
    // The paper rig's 3:2 ratio on a small screen, then a wide strip whose
    // coordinates reach the hundreds, where float position arithmetic
    // loses the most.
    const std::array<int, 4> geometries[] = {{96, 54, 64, 36}, {960, 6, 640, 4}};
    for (const auto& [screen_w, screen_h, sensor_w, sensor_h] : geometries) {
        for (const auto& k : cases) {
            const Imagef screen = textured_screen(screen_w, screen_h, k.channels, 11);
            const Imagef sensor =
                project(screen, sensor_w, sensor_h, k.sigma, k.offset_x, k.offset_y);
            const Matrix cols = multiply(gaussian_matrix(sensor_w, k.sigma),
                                         multiply(shift_matrix(sensor_w, k.offset_x),
                                                  area_matrix(screen_w, sensor_w)));
            const Matrix rows = multiply(gaussian_matrix(sensor_h, k.sigma),
                                         multiply(shift_matrix(sensor_h, k.offset_y),
                                                  area_matrix(screen_h, sensor_h)));
            EXPECT_LE(max_deviation(sensor, apply_separable(screen, cols, rows)), 1e-3)
                << screen_w << "x" << screen_h << " -> " << sensor_w << "x" << sensor_h
                << " channels " << k.channels << " sigma " << k.sigma << " offset ("
                << k.offset_x << ", " << k.offset_y << ")";
        }
    }
}

TEST(CameraOptics, PerspectivePathMatchesWarpThenBlurWithinBound)
{
    constexpr int screen_w = 96;
    constexpr int screen_h = 54;
    constexpr int sensor_w = 80;
    constexpr int sensor_h = 45;
    const auto sensor_to_screen = inframe::img::Homography::rect_to_quad(
        sensor_w, sensor_h, {3.0, 2.0, 92.0, 4.0, 94.0, 51.0, 1.0, 50.0});
    for (const int channels : {1, 3}) {
        for (const double sigma : {0.0, Camera_params{}.optical_blur_sigma, 1.1}) {
            auto params = clean_camera(sensor_w, sensor_h);
            params.optical_blur_sigma = sigma;
            params.sensor_to_screen = sensor_to_screen;
            const Imagef screen = textured_screen(screen_w, screen_h, channels, 12);
            const Imagef sensor = Camera_optics(params, screen_w, screen_h).to_sensor(screen);
            const Imagef warped =
                inframe::img::warp_perspective(screen, sensor_to_screen, sensor_w, sensor_h);
            const auto reference = apply_separable(warped, gaussian_matrix(sensor_w, sigma),
                                                   gaussian_matrix(sensor_h, sigma));
            EXPECT_LE(max_deviation(sensor, reference), 1e-3)
                << "channels " << channels << " sigma " << sigma;
        }
    }
}

TEST(SensorNoise, CleanConfigurationIsIdentity)
{
    auto params = clean_camera(8, 8);
    Imagef image(8, 8, 1, 77.25f);
    apply_sensor_noise_rows(image, params, 1);
    for (const float v : image.values()) EXPECT_FLOAT_EQ(v, 77.25f);
}

TEST(SensorNoise, QuantizationRounds)
{
    auto params = clean_camera(8, 8);
    params.quantize = true;
    Imagef image(8, 8, 1, 77.25f);
    apply_sensor_noise_rows(image, params, 1);
    for (const float v : image.values()) EXPECT_FLOAT_EQ(v, 77.0f);
}

TEST(SensorNoise, ReadNoiseHasConfiguredSpread)
{
    auto params = clean_camera(64, 64);
    params.read_noise_sigma = 3.0;
    params.quantize = false;
    Imagef image(64, 64, 1, 128.0f);
    apply_sensor_noise_rows(image, params, 2);
    inframe::util::Running_stats stats;
    for (const float v : image.values()) stats.add(v);
    EXPECT_NEAR(stats.mean(), 128.0, 0.5);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.4);
}

TEST(SensorNoise, ShotNoiseGrowsWithLevel)
{
    auto params = clean_camera(64, 64);
    params.shot_noise_scale = 0.5;
    params.quantize = false;
    Imagef dim(64, 64, 1, 20.0f);
    Imagef bright(64, 64, 1, 220.0f);
    apply_sensor_noise_rows(dim, params, 3);
    apply_sensor_noise_rows(bright, params, 3);
    inframe::util::Running_stats s_dim;
    inframe::util::Running_stats s_bright;
    for (const float v : dim.values()) s_dim.add(v);
    for (const float v : bright.values()) s_bright.add(v);
    EXPECT_GT(s_bright.stddev(), 2.0 * s_dim.stddev());
}

TEST(AutoExpose, BrightSceneGetsReferenceExposure)
{
    const Camera_params metered = auto_expose(Camera_params{}, 180.0);
    EXPECT_NEAR(metered.exposure_s, 1.0 / 480.0, 1e-9);
    EXPECT_DOUBLE_EQ(metered.gain, 1.0);
}

TEST(AutoExpose, DarkerSceneStretchesExposure)
{
    const Camera_params metered = auto_expose(Camera_params{}, 90.0);
    EXPECT_NEAR(metered.exposure_s, 2.0 / 480.0, 1e-9);
    EXPECT_DOUBLE_EQ(metered.gain, 1.0);
}

TEST(AutoExpose, VeryDarkSceneCapsExposureAndRaisesGain)
{
    const Camera_params metered = auto_expose(Camera_params{}, 20.0);
    // Target would be 9x the reference: capped at max_exposure (1/180 s),
    // shortfall becomes gain.
    EXPECT_NEAR(metered.exposure_s, 1.0 / 180.0, 1e-9);
    EXPECT_GT(metered.gain, 2.0);
}

TEST(AutoExpose, ExposureNeverExceedsFrameInterval)
{
    Camera_params params;
    params.fps = 30.0;
    params.readout_s = 0.02; // large skew leaves ~13 ms for exposure
    const Camera_params metered = auto_expose(params, 1.0);
    EXPECT_LE(metered.exposure_s + metered.readout_s, 1.0 / params.fps + 1e-12);
}

TEST(AutoExpose, BrighterThanReferenceDoesNotReduceGain)
{
    const Camera_params metered = auto_expose(Camera_params{}, 250.0);
    EXPECT_GE(metered.gain, 1.0);
    EXPECT_LT(metered.exposure_s, 1.0 / 480.0);
}

TEST(AutoExpose, Validation)
{
    EXPECT_THROW(auto_expose(Camera_params{}, -1.0), Contract_violation);
    EXPECT_THROW(auto_expose(Camera_params{}, std::numeric_limits<double>::quiet_NaN()),
                 Contract_violation);
    EXPECT_THROW(auto_expose(Camera_params{}, std::numeric_limits<double>::infinity()),
                 Contract_violation);
}

TEST(SensorNoise, GainScalesAndClamps)
{
    auto params = clean_camera(4, 4);
    params.gain = 2.0;
    Imagef image(4, 4, 1, 150.0f);
    apply_sensor_noise_rows(image, params, 4);
    for (const float v : image.values()) EXPECT_FLOAT_EQ(v, 255.0f);
}

} // namespace
