#include "channel/link.hpp"

#include "imgproc/pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>

namespace inframe::channel {

Screen_camera_link::Screen_camera_link(Display_params display, Camera_params camera,
                                       int screen_width, int screen_height,
                                       const Impairment_config& impairments)
    : display_(display), camera_params_(camera), optics_(camera, screen_width, screen_height),
      impairments_(make_impairment_chain(impairments))
{
    util::expects(std::isfinite(camera.phase_offset_s) && camera.phase_offset_s >= 0.0,
                  "camera phase offset must be finite and non-negative");
}

bool Screen_camera_link::capture_complete(double now) const
{
    // Capture k is complete once the last row's exposure window has ended.
    const double start =
        camera_params_.phase_offset_s + static_cast<double>(capture_index_) / camera_params_.fps;
    const double end = start + camera_params_.readout_s + camera_params_.exposure_s;
    return end <= now + 1e-12;
}

std::vector<Capture> Screen_camera_link::push_display_frame(const img::Imagef& frame)
{
    const double period = display_.refresh_period();
    const double start_time = static_cast<double>(display_index_) * period;

    // Emission chains every frame through the panel's persistence, so it
    // stays eager; the optics projection waits for an exposure window.
    buffer_.push_back(Buffered_frame{optics_.optics_input(display_.emit(frame)), start_time,
                                     start_time + period});
    ++display_index_;

    std::vector<Capture> completed;
    const double now = static_cast<double>(display_index_) * period;
    while (capture_complete(now)) {
        Capture capture = assemble_capture();
        ++capture_index_;
        // Captures flow through the impairment chain serially in index
        // order; each stage's draws are a pure function of the capture
        // index, so the impaired stream is bit-identical at any thread
        // count.
        if (!impairments_.empty()
            && impairments_.apply(capture.image, capture.index) == Capture_fate::dropped) {
            ++captures_dropped_;
            static const int dropped_metric =
                telemetry::intern_metric("link.captures_dropped", telemetry::Metric_kind::counter);
            telemetry::counter_add(dropped_metric);
            img::Frame_pool::instance().recycle(std::move(capture.image));
            continue;
        }
        static const int delivered_metric =
            telemetry::intern_metric("link.captures_delivered", telemetry::Metric_kind::counter);
        telemetry::counter_add(delivered_metric);
        completed.push_back(std::move(capture));
    }
    trim_buffer();
    return completed;
}

Capture Screen_camera_link::assemble_capture()
{
    telemetry::Scoped_span span("link.capture");
    const double capture_start =
        camera_params_.phase_offset_s + static_cast<double>(capture_index_) / camera_params_.fps;
    const int rows = camera_params_.sensor_height;
    const int cols = camera_params_.sensor_width;
    const double exposure = camera_params_.exposure_s;
    const int channels = buffer_.empty() ? 1 : buffer_.front().optics_input.channels();
    static const int rows_projected_metric =
        telemetry::intern_metric("link.rows_projected", telemetry::Metric_kind::counter);

    img::Imagef integrated = img::Frame_pool::instance().acquire(cols, rows, channels, 0.0f);
    // Rows integrate independently (each owns its exposure window and its
    // output row), so the rolling-shutter pass parallelizes over row bands.
    // A row projects only the display frames its window overlaps, one row
    // of each; the projection is a pure function of (frame, row), so the
    // capture is the same as projecting every frame in full first.
    util::parallel_for(0, rows, 8, [&](std::int64_t r0, std::int64_t r1) {
        std::vector<float> projected(static_cast<std::size_t>(cols) * channels);
        std::vector<double> column_sums;
        std::uint64_t rows_projected = 0;
        for (std::int64_t rr = r0; rr < r1; ++rr) {
            const int r = static_cast<int>(rr);
            // Row r starts integrating after its share of the readout skew.
            const double row_start =
                capture_start
                + (rows > 1 ? camera_params_.readout_s * static_cast<double>(r) / (rows - 1)
                            : 0.0);
            const double row_end = row_start + exposure;
            auto out_row = integrated.row(r);
            double covered = 0.0;
            for (const auto& frame : buffer_) {
                const double overlap = std::min(frame.end_time, row_end)
                                       - std::max(frame.start_time, row_start);
                if (overlap <= 0.0) continue;
                const auto weight = static_cast<float>(overlap / exposure);
                covered += overlap;
                optics_.project_row(frame.optics_input, r, column_sums, projected);
                ++rows_projected;
                for (std::size_t i = 0; i < out_row.size(); ++i) {
                    out_row[i] += weight * projected[i];
                }
            }
            util::ensures(covered >= exposure - 1e-9,
                          "capture exposure window not fully covered by buffered frames");
        }
        telemetry::counter_add(rows_projected_metric, rows_projected);
    });

    // Per-row seeded noise streams: the noise field depends only on
    // (camera seed, capture index, row), never on thread scheduling.
    apply_sensor_noise_rows(integrated, camera_params_, capture_index_);

    Capture capture;
    capture.image = std::move(integrated);
    capture.index = capture_index_;
    capture.start_time = capture_start;
    return capture;
}

void Screen_camera_link::trim_buffer()
{
    // Frames that end before the next capture's earliest window can never
    // contribute again.
    const double next_start =
        camera_params_.phase_offset_s + static_cast<double>(capture_index_) / camera_params_.fps;
    // The frame's storage is freed, not recycled: optics inputs are
    // screen-size, and parked in the frame pool they would serve the
    // sensor-size requests (best fit) and crowd the freelist.
    while (!buffer_.empty() && buffer_.front().end_time <= next_start - 1e-12) {
        buffer_.pop_front();
    }
}

std::vector<Capture> run_link(const Display_params& display, const Camera_params& camera,
                              std::span<const img::Imagef> display_frames)
{
    util::expects(!display_frames.empty(), "run_link needs display frames");
    Screen_camera_link link(display, camera, display_frames[0].width(),
                            display_frames[0].height());
    std::vector<Capture> captures;
    for (const auto& frame : display_frames) {
        auto completed = link.push_display_frame(frame);
        for (auto& c : completed) captures.push_back(std::move(c));
    }
    return captures;
}

} // namespace inframe::channel
