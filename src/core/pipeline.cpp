#include "core/pipeline.hpp"

#include "imgproc/pool.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/spsc_queue.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace inframe::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void recycle_token(Frame_token&& token)
{
    img::Frame_pool::instance().recycle(std::move(token.image));
}

// One timed stage call: push(*token), or flush() when token is empty. The
// stage's trace span and Stage_metrics::wall_s bracket the same call.
std::vector<Frame_token> timed_call(Stage& stage, Stage_metrics& sm,
                                    std::optional<Frame_token> token)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<Frame_token> outputs;
    {
        telemetry::Scoped_span span(stage.name());
        outputs = token ? stage.push(std::move(*token)) : stage.flush();
    }
    sm.wall_s += seconds_since(t0);
    return outputs;
}

} // namespace

Stage& Pipeline::add_stage(std::unique_ptr<Stage> stage)
{
    util::expects(stage != nullptr, "pipeline stage must not be null");
    stages_.push_back(std::move(stage));
    return *stages_.back();
}

Pipeline_metrics Pipeline::run(std::int64_t head_tokens, Pipeline_options options)
{
    util::expects(!stages_.empty(), "pipeline has no stages");
    util::expects(head_tokens >= 0, "head token count must be >= 0");
    if (options.frames_in_flight < 1) options.frames_in_flight = 1;

    // Record which SIMD level the kernels below will run at; telemetry
    // reports print gauges, so the dispatch decision shows up next to the
    // stage timings it explains (Level enum value: 0=scalar 1=avx2).
    static const int simd_gauge =
        telemetry::intern_metric("simd.dispatch_level", telemetry::Metric_kind::gauge);
    telemetry::gauge_set(simd_gauge, static_cast<double>(simd::active_level()));

    const img::Frame_pool::Counters pool_before = img::Frame_pool::instance().counters();
    const Clock::time_point start = Clock::now();

    Pipeline_metrics metrics = (options.frames_in_flight == 1 || stages_.size() == 1)
                                   ? run_serial(head_tokens, options)
                                   : run_overlapped(head_tokens, options);

    metrics.wall_s = seconds_since(start);
    metrics.frames_in_flight = options.frames_in_flight;
    const img::Frame_pool::Counters pool_after = img::Frame_pool::instance().counters();
    metrics.pool_hits = static_cast<std::int64_t>(pool_after.hits - pool_before.hits);
    metrics.pool_misses = static_cast<std::int64_t>(pool_after.misses - pool_before.misses);
    return metrics;
}

Pipeline_metrics Pipeline::run_serial(std::int64_t head_tokens, const Pipeline_options& options)
{
    const std::size_t n = stages_.size();
    Pipeline_metrics metrics;
    metrics.stages.resize(n);
    for (std::size_t s = 0; s < n; ++s) metrics.stages[s].name = stages_[s]->name();

    // Depth-first drive: every output token is carried all the way to the
    // sink before the next head token is injected, so each stage still sees
    // its inputs in index order. Stage timing brackets only that stage's
    // push/flush — the recursion into downstream stages happens outside it.
    std::function<void(std::size_t, Frame_token)> feed = [&](std::size_t s, Frame_token token) {
        if (s == n) {
            recycle_token(std::move(token));
            return;
        }
        Stage_metrics& sm = metrics.stages[s];
        ++sm.tokens_in;
        std::vector<Frame_token> outputs = timed_call(*stages_[s], sm, std::move(token));
        sm.tokens_out += static_cast<std::int64_t>(outputs.size());
        for (Frame_token& out : outputs) feed(s + 1, std::move(out));
    };

    for (std::int64_t i = 0; i < head_tokens; ++i) {
        if (options.stop_when && options.stop_when()) break;
        Frame_token token;
        token.index = i;
        feed(0, std::move(token));
        ++metrics.head_tokens;
    }

    for (std::size_t s = 0; s < n; ++s) {
        Stage_metrics& sm = metrics.stages[s];
        std::vector<Frame_token> outputs = timed_call(*stages_[s], sm, std::nullopt);
        sm.tokens_out += static_cast<std::int64_t>(outputs.size());
        for (Frame_token& out : outputs) feed(s + 1, std::move(out));
    }
    return metrics;
}

Pipeline_metrics Pipeline::run_overlapped(std::int64_t head_tokens, const Pipeline_options& options)
{
    const std::size_t n = stages_.size();
    Pipeline_metrics metrics;
    metrics.stages.resize(n);
    for (std::size_t s = 0; s < n; ++s) metrics.stages[s].name = stages_[s]->name();

    // One bounded queue per edge; the capacity is the frames-in-flight
    // window between adjacent stages.
    std::vector<std::unique_ptr<util::Spsc_queue<Frame_token>>> queues;
    queues.reserve(n - 1);
    for (std::size_t e = 0; e + 1 < n; ++e) {
        queues.push_back(std::make_unique<util::Spsc_queue<Frame_token>>(
            static_cast<std::size_t>(options.frames_in_flight)));
    }

    std::atomic<bool> stop{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto record_error = [&] {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
    };

    // Each stage thread writes only its own Stage_metrics entry; entries
    // are read after the joins, so no locking is needed.
    auto stage_thread = [&](std::size_t s) {
        Stage& stage = *stages_[s];
        Stage_metrics& sm = metrics.stages[s];
        util::Spsc_queue<Frame_token>* in = s > 0 ? queues[s - 1].get() : nullptr;
        util::Spsc_queue<Frame_token>* out = s + 1 < n ? queues[s].get() : nullptr;
        const bool is_sink = out == nullptr;
        try {
            auto emit = [&](std::vector<Frame_token> outputs) -> bool {
                sm.tokens_out += static_cast<std::int64_t>(outputs.size());
                for (Frame_token& token : outputs) {
                    if (is_sink) {
                        recycle_token(std::move(token));
                    } else if (!out->push(std::move(token))) {
                        // Downstream died; nothing we produce can land.
                        return false;
                    }
                }
                if (is_sink && options.stop_when && options.stop_when()) {
                    stop.store(true, std::memory_order_relaxed);
                }
                return true;
            };

            bool downstream_alive = true;
            if (in == nullptr) {
                // Head: manufacture the token stream.
                for (std::int64_t i = 0; i < head_tokens; ++i) {
                    if (stop.load(std::memory_order_relaxed)) break;
                    Frame_token token;
                    token.index = i;
                    std::vector<Frame_token> outputs = timed_call(stage, sm, std::move(token));
                    ++sm.tokens_in;
                    ++metrics.head_tokens;
                    if (!emit(std::move(outputs))) {
                        downstream_alive = false;
                        break;
                    }
                }
            } else {
                while (std::optional<Frame_token> token = in->pop()) {
                    ++sm.tokens_in;
                    std::vector<Frame_token> outputs = timed_call(stage, sm, std::move(token));
                    if (!emit(std::move(outputs))) {
                        downstream_alive = false;
                        break;
                    }
                }
            }

            if (downstream_alive) emit(timed_call(stage, sm, std::nullopt));
            // Normal end of stream: downstream drains what is queued,
            // then sees the close and flushes in turn.
            if (out != nullptr) out->close();
            if (!downstream_alive && in != nullptr) in->close();
        } catch (...) {
            record_error();
            // Unblock both neighbours; upstream sees failed pushes and
            // unwinds without flushing, downstream drains and finishes.
            if (in != nullptr) in->close();
            if (out != nullptr) out->close();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t s = 0; s < n; ++s) threads.emplace_back(stage_thread, s);
    for (std::thread& t : threads) t.join();

    // Queued tokens abandoned by an aborted run still hold pool-backed
    // frames; recycle them rather than letting the queue destructor free
    // the storage cold.
    for (auto& queue : queues) {
        while (std::optional<Frame_token> token = queue->pop()) recycle_token(std::move(*token));
    }

    for (std::size_t s = 0; s < n; ++s) {
        Stage_metrics& sm = metrics.stages[s];
        if (s > 0) {
            sm.mean_input_queue_depth = queues[s - 1]->mean_depth();
            sm.input_waits = queues[s - 1]->empty_waits();
        }
        if (s + 1 < n) sm.output_waits = queues[s]->full_waits();
    }

    if (first_error) std::rethrow_exception(first_error);
    return metrics;
}

} // namespace inframe::core
