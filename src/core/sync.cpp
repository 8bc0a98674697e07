#include "core/sync.hpp"

#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace inframe::core {

namespace {

// Candidate offsets tested across one data-frame period. Resolution is
// period / candidates; 48 gives a quarter display frame at tau = 12.
constexpr int candidates = 48;

// Required best score (d'-based) for a confident lock; matches the
// decoder's separation gate.
constexpr double min_lock_score = 3.0;

// Penalty weight on within-frame pattern disagreement.
constexpr double disagreement_weight = 10.0;

} // namespace

Phase_estimator::Phase_estimator(Decoder_params decoder_params)
    : metric_probe_(decoder_params), frame_period_(decoder_params.tau / decoder_params.display_fps)
{
}

void Phase_estimator::push_capture(const img::Imagef& capture, double receiver_time)
{
    util::expects(receiver_time >= 0.0, "sync: receiver time must be non-negative");
    observations_.push_back({receiver_time, metric_probe_.block_metrics(capture)});
    cached_offset_.reset();
}

double Phase_estimator::score_candidate(double offset) const
{
    // Group stable-window captures into data frames under this offset.
    std::map<std::int64_t, std::vector<const Observation*>> frames;
    for (const auto& observation : observations_) {
        const double shifted = observation.time - offset;
        if (shifted < 0.0) continue;
        const auto frame = static_cast<std::int64_t>(std::floor(shifted / frame_period_));
        const double phase = shifted / frame_period_ - static_cast<double>(frame);
        if (phase < Decoder_params::stable_fraction - 1e-9) {
            frames[frame].push_back(&observation);
        }
    }

    util::Running_stats dprimes;
    double disagreement = 0.0;
    std::size_t pairs = 0;
    const std::size_t block_count = observations_.front().metrics.size();
    for (const auto& [frame, members] : frames) {
        std::vector<double> averaged(block_count, 0.0);
        for (const auto* member : members) {
            for (std::size_t i = 0; i < block_count; ++i) averaged[i] += member->metrics[i];
        }
        for (auto& v : averaged) v /= static_cast<double>(members.size());
        const auto split = metric_probe_.split_metrics(averaged);
        dprimes.add(split.bimodal ? split.dprime : 0.0);

        // Pattern agreement between the captures grouped into this frame:
        // captures from different true frames disagree on ~half the bits.
        for (std::size_t a = 1; a < members.size(); ++a) {
            double distance = 0.0;
            for (std::size_t i = 0; i < block_count; ++i) {
                const bool bit_prev = members[a - 1]->metrics[i] > split.value;
                const bool bit_this = members[a]->metrics[i] > split.value;
                distance += bit_prev != bit_this;
            }
            disagreement += distance / static_cast<double>(block_count);
            ++pairs;
        }
    }
    if (dprimes.count() < 3) return -1e9;
    const double mean_disagreement = pairs > 0 ? disagreement / static_cast<double>(pairs) : 0.0;
    return dprimes.mean() - disagreement_weight * mean_disagreement;
}

std::optional<double> Phase_estimator::estimated_offset() const
{
    if (cached_offset_) return cached_offset_;
    if (static_cast<int>(observations_.size()) < min_captures) {
        return std::nullopt;
    }

    telemetry::Scoped_span span("sync.estimate");
    double best_score = -1e9;
    double best_offset = 0.0;
    for (int c = 0; c < candidates; ++c) {
        const double offset = frame_period_ * static_cast<double>(c) / candidates;
        const double score = score_candidate(offset);
        if (score > best_score) {
            best_score = score;
            best_offset = offset;
        }
    }

    lock_score_ = best_score;
    static const int score_metric =
        telemetry::intern_metric("sync.lock_score", telemetry::Metric_kind::gauge);
    telemetry::gauge_set(score_metric, best_score);
    if (best_score < min_lock_score) {
        telemetry::emit_event({"sync", "search", static_cast<std::int64_t>(observations_.size()),
                               best_score});
        return std::nullopt;
    }
    cached_offset_ = best_offset;
    telemetry::emit_event({"sync", "lock", static_cast<std::int64_t>(observations_.size()),
                           best_offset});
    return cached_offset_;
}

Synced_decoder::Synced_decoder(Decoder_params params)
    : params_(std::move(params)), estimator_(params_)
{
}

std::vector<Data_frame_result> Synced_decoder::push_capture(const img::Imagef& capture,
                                                            double receiver_time)
{
    std::vector<Data_frame_result> results;
    if (!decoder_) {
        estimator_.push_capture(capture, receiver_time);
        backlog_.emplace_back(capture, receiver_time);
        offset_ = estimator_.estimated_offset();
        if (!offset_) return results;
        decoder_.emplace(params_);
        decoder_->set_sync_context(1, *offset_);
        // Replay buffered captures with corrected timestamps. Captures
        // earlier than the offset fall before the first complete frame
        // and are dropped.
        for (const auto& [buffered, time] : backlog_) {
            const double corrected = time - *offset_;
            if (corrected < 0.0) continue;
            for (auto& r : decoder_->push_capture(buffered, corrected)) {
                results.push_back(std::move(r));
            }
        }
        backlog_.clear();
        return results;
    }
    const double corrected = receiver_time - *offset_;
    if (corrected < 0.0) return results;
    return decoder_->push_capture(capture, corrected);
}

} // namespace inframe::core
