#include "channel/display.hpp"

#include "imgproc/pool.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace inframe::channel {

namespace {

// Values per parallel chunk (the split never changes the result: every
// value is computed on its own).
constexpr std::int64_t value_grain = 1 << 15;

} // namespace

std::int64_t display_frame_count(double duration_s, double refresh_hz)
{
    const double frames = duration_s * refresh_hz;
    // At least one frame: a run of none reports empty results (a perfect
    // flicker score of 0) as if it had measured something. 2^63 is the
    // first double past std::int64_t's range.
    util::expects(std::isfinite(duration_s) && refresh_hz > 0.0 && frames >= 0.5
                      && frames < 0x1p63,
                  "duration_s must be finite and span at least one display frame, and its "
                  "display-frame count must fit std::int64_t");
    return static_cast<std::int64_t>(std::llround(frames));
}

Display_model::Display_model(Display_params params) : params_(params)
{
    util::expects(params.refresh_hz > 0.0, "display refresh rate must be positive");
    util::expects(params.brightness > 0.0 && params.brightness <= 1.0,
                  "display brightness must be in (0, 1]");
    util::expects(params.response_persistence >= 0.0 && params.response_persistence < 1.0,
                  "pixel response persistence must be in [0, 1)");
    util::expects(params.black_level >= 0.0, "black level must be non-negative");
}

img::Imagef Display_model::emit(const img::Imagef& frame)
{
    util::expects(!frame.empty(), "display cannot emit an empty frame");
    const auto scale = static_cast<float>(params_.brightness);
    const auto offset = static_cast<float>(params_.black_level);
    const auto persistence = static_cast<float>(params_.response_persistence);
    // Panel state is kept only when it can matter; a frame of a new shape
    // starts without history.
    const bool persist = params_.response_persistence > 0.0;
    const bool history = persist && previous_emitted_.same_shape(frame);
    if (persist && !history) {
        previous_emitted_ = img::Imagef(frame.width(), frame.height(), frame.channels());
    }

    img::Imagef out =
        img::Frame_pool::instance().acquire(frame.width(), frame.height(), frame.channels());
    const auto in = frame.values();
    const auto dst = out.values();
    const auto state = previous_emitted_.values();
    // One pass: brightness and black level, clamp to [0, 255] (the
    // img::clamp op order), then the first-order LC response, with the
    // result also becoming the panel state.
    util::parallel_for(0, static_cast<std::int64_t>(dst.size()), value_grain,
                       [&](std::int64_t i0, std::int64_t i1) {
                           for (auto i = static_cast<std::size_t>(i0);
                                i < static_cast<std::size_t>(i1); ++i) {
                               float v = std::min(std::max(in[i] * scale + offset, 0.0f), 255.0f);
                               if (history) {
                                   v = state[i] * persistence + v * (1.0f - persistence);
                               }
                               dst[i] = v;
                               if (persist) state[i] = v;
                           }
                       });
    return out;
}

} // namespace inframe::channel
