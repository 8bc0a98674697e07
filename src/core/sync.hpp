// Data-frame phase synchronization.
//
// The paper's prototype assumes the receiver knows where data frames
// begin (a "strawman" limitation of 5). A real receiver only knows the
// protocol constants (tau, display rate) — not the offset between its
// clock and the transmitter's data-frame boundaries.
//
// Phase_estimator recovers that offset by trying candidate offsets and
// scoring each by *decode quality*: group the buffered captures into data
// frames under the candidate, average the stable-window captures of each
// frame, and measure (a) how cleanly the averaged block metrics split into
// two classes (d') and (b) how well the captures grouped together agree on
// the bit pattern. The true offset maximizes the combination; offsets
// equivalent up to capture assignment score identically, which is exactly
// the equivalence the decoder cares about.
#pragma once

#include "core/decoder.hpp"

#include <optional>
#include <vector>

namespace inframe::core {

class Phase_estimator {
public:
    // Captures required before an estimate is produced. Each data frame
    // spans ~tau/4 captures, so 24 covers several boundaries.
    static constexpr int min_captures = 24;

    explicit Phase_estimator(Decoder_params decoder_params);

    // Feeds a capture stamped with the *receiver's* clock.
    void push_capture(const img::Imagef& capture, double receiver_time);

    // Offset to subtract from receiver times so data-frame boundaries land
    // on multiples of the frame period; available once enough captures
    // with detectable structure have been seen.
    std::optional<double> estimated_offset() const;

    // Diagnostic: the winning candidate's score.
    double lock_score() const { return lock_score_; }

private:
    double score_candidate(double offset) const;

    Inframe_decoder metric_probe_;
    double frame_period_;

    struct Observation {
        double time = 0.0;
        std::vector<double> metrics;
    };
    std::vector<Observation> observations_;
    mutable std::optional<double> cached_offset_;
    mutable double lock_score_ = 0.0;
};

// Convenience wrapper: buffers captures, locks phase, then replays them
// through a decoder with corrected timestamps and keeps decoding live.
class Synced_decoder {
public:
    explicit Synced_decoder(Decoder_params params);

    // Returns finalized data frames (empty until phase lock).
    std::vector<Data_frame_result> push_capture(const img::Imagef& capture,
                                                double receiver_time);

    bool locked() const { return decoder_.has_value(); }
    std::optional<double> offset() const { return offset_; }

private:
    Decoder_params params_;
    Phase_estimator estimator_;
    std::optional<Inframe_decoder> decoder_;
    std::optional<double> offset_;
    std::vector<std::pair<img::Imagef, double>> backlog_;
};

} // namespace inframe::core
