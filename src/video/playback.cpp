#include "video/playback.hpp"

#include "util/contract.hpp"

#include <cmath>
#include <limits>

namespace inframe::video {

namespace {

void check_rates(const Playback_schedule& schedule)
{
    util::expects(std::isfinite(schedule.display_fps) && schedule.display_fps > 0.0
                      && std::isfinite(schedule.video_fps) && schedule.video_fps > 0.0,
                  "playback rates must be finite and positive");
}

} // namespace

int Playback_schedule::repeats_per_video_frame() const
{
    check_rates(*this);
    const double ratio = display_fps / video_fps;
    // An overflowing ratio (inf) fails the integer test, as does one past
    // int range, before any conversion.
    const double repeats = std::round(ratio);
    util::expects(std::fabs(ratio - repeats) < 1e-9 && repeats >= 1.0
                      && repeats <= static_cast<double>(std::numeric_limits<int>::max()),
                  "display rate must be an integer multiple of the video rate");
    return static_cast<int>(repeats);
}

std::int64_t Playback_schedule::video_frame_for_display(std::int64_t display_index) const
{
    util::expects(display_index >= 0, "display index must be non-negative");
    return display_index / repeats_per_video_frame();
}

double Playback_schedule::display_time(std::int64_t display_index) const
{
    check_rates(*this);
    util::expects(display_index >= 0, "display index must be non-negative");
    return static_cast<double>(display_index) / display_fps;
}

namespace {

std::shared_ptr<const Video_source> cached(std::shared_ptr<const Video_source> source)
{
    return std::make_shared<Cached_video>(std::move(source));
}

} // namespace

std::shared_ptr<const Video_source> make_gray_video(int width, int height)
{
    // "Pure light gray": RGB (180, 180, 180) in the paper's setup.
    return cached(std::make_shared<Solid_video>(width, height, 180.0f));
}

std::shared_ptr<const Video_source> make_dark_gray_video(int width, int height)
{
    // "Pure dark gray": RGB (127, 127, 127).
    return cached(std::make_shared<Solid_video>(width, height, 127.0f));
}

std::shared_ptr<const Video_source> make_sunrise_video(int width, int height, std::uint64_t seed)
{
    return cached(std::make_shared<Sunrise_video>(width, height, 30.0, seed));
}

} // namespace inframe::video
