// Stage-graph runtime: executor semantics (composition, fan-out, flush
// cascade, early stop, error propagation) and the determinism contract —
// the decoded output of a full link experiment is bit-identical for every
// frames_in_flight window and kernel thread count.

#include "core/link_runner.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "imgproc/pool.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "video/source.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

namespace {

using namespace inframe;
using core::Frame_token;
using core::Function_stage;
using core::Pipeline;
using core::Pipeline_options;

// --- executor semantics -------------------------------------------------

TEST(Pipeline, SinkSeesTokensInOrder)
{
    for (const int fif : {1, 4}) {
        Pipeline pipeline;
        std::vector<std::int64_t> seen;
        pipeline.emplace_stage<Function_stage>("sink", [&seen](Frame_token token) {
            seen.push_back(token.index);
            std::vector<Frame_token> out;
            out.push_back(std::move(token));
            return out;
        });
        Pipeline_options options;
        options.frames_in_flight = fif;
        const auto metrics = pipeline.run(32, options);
        EXPECT_EQ(metrics.head_tokens, 32);
        ASSERT_EQ(seen.size(), 32u) << "fif=" << fif;
        for (std::int64_t i = 0; i < 32; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
    }
}

TEST(Pipeline, FanOutBufferingAndFlushCascadeInOrder)
{
    // Stage A doubles each token (fan-out) and emits one trailing token at
    // flush; stage B buffers pairs and re-emits them (0 outputs now, 2
    // later); the sink must still see one ordered stream, and the flush
    // cascade must run A before B. Identical across serial and overlap.
    auto run_with = [](int fif) {
        Pipeline pipeline;
        pipeline.emplace_stage<Function_stage>(
            "double",
            [](Frame_token token) {
                std::vector<Frame_token> out;
                Frame_token copy;
                copy.index = token.index * 2;
                out.push_back(std::move(copy));
                Frame_token second;
                second.index = token.index * 2 + 1;
                out.push_back(std::move(second));
                img::Frame_pool::instance().recycle(std::move(token.image));
                return out;
            },
            [] {
                std::vector<Frame_token> out;
                Frame_token trailer;
                trailer.index = 1000;
                out.push_back(std::move(trailer));
                return out;
            });
        auto held = std::make_shared<std::vector<Frame_token>>();
        pipeline.emplace_stage<Function_stage>(
            "pair",
            [held](Frame_token token) {
                held->push_back(std::move(token));
                std::vector<Frame_token> out;
                if (held->size() == 2) {
                    out.push_back(std::move((*held)[0]));
                    out.push_back(std::move((*held)[1]));
                    held->clear();
                }
                return out;
            },
            [held] {
                auto out = std::move(*held);
                held->clear();
                return out;
            });
        std::vector<std::int64_t> seen;
        pipeline.emplace_stage<Function_stage>("sink", [&seen](Frame_token token) {
            seen.push_back(token.index);
            std::vector<Frame_token> out;
            out.push_back(std::move(token));
            return out;
        });
        Pipeline_options options;
        options.frames_in_flight = fif;
        pipeline.run(5, options);
        return seen;
    };

    const auto serial = run_with(1);
    // 5 inputs -> 10 doubled tokens + the flush trailer from stage A.
    const std::vector<std::int64_t> expected = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
    EXPECT_EQ(serial, expected);
    EXPECT_EQ(run_with(4), serial);
}

TEST(Pipeline, EarlyStopSerialIsExact)
{
    Pipeline pipeline;
    int consumed = 0;
    pipeline.emplace_stage<Function_stage>("sink", [&consumed](Frame_token token) {
        ++consumed;
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    Pipeline_options options;
    options.stop_when = [&consumed] { return consumed >= 5; };
    const auto metrics = pipeline.run(100, options);
    // Serial mode checks the probe before each head token: exactly 5 run.
    EXPECT_EQ(metrics.head_tokens, 5);
    EXPECT_EQ(consumed, 5);
}

TEST(Pipeline, EarlyStopOverlappedStopsPromptly)
{
    Pipeline pipeline;
    pipeline.emplace_stage<Function_stage>("pass", [](Frame_token token) {
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    int consumed = 0;
    pipeline.emplace_stage<Function_stage>("sink", [&consumed](Frame_token token) {
        ++consumed;
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    Pipeline_options options;
    options.frames_in_flight = 4;
    options.stop_when = [&consumed] { return consumed >= 5; };
    const auto metrics = pipeline.run(1000, options);
    EXPECT_GE(consumed, 5);
    // The head may overrun by the tokens already in flight (one window per
    // edge) but must not run anywhere near the full schedule.
    EXPECT_LE(metrics.head_tokens, 5 + 2 * 4 + 2);
}

TEST(Pipeline, ExceptionInOverlappedStagePropagates)
{
    Pipeline pipeline;
    pipeline.emplace_stage<Function_stage>("pass", [](Frame_token token) {
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    pipeline.emplace_stage<Function_stage>("boom", [](Frame_token token) -> std::vector<Frame_token> {
        if (token.index == 3) throw std::runtime_error("stage failure");
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    pipeline.emplace_stage<Function_stage>("sink", [](Frame_token token) {
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    Pipeline_options options;
    options.frames_in_flight = 4;
    EXPECT_THROW(pipeline.run(100, options), std::runtime_error);
}

TEST(Pipeline, MetricsCountTokensPerStage)
{
    Pipeline pipeline;
    pipeline.emplace_stage<Function_stage>("drop-odd", [](Frame_token token) {
        std::vector<Frame_token> out;
        if (token.index % 2 == 0) {
            out.push_back(std::move(token));
        } else {
            img::Frame_pool::instance().recycle(std::move(token.image));
        }
        return out;
    });
    pipeline.emplace_stage<Function_stage>("sink", [](Frame_token token) {
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    const auto metrics = pipeline.run(10);
    ASSERT_EQ(metrics.stages.size(), 2u);
    EXPECT_EQ(metrics.stages[0].name, "drop-odd");
    EXPECT_EQ(metrics.stages[0].tokens_in, 10);
    EXPECT_EQ(metrics.stages[0].tokens_out, 5);
    EXPECT_EQ(metrics.stages[1].tokens_in, 5);
}

TEST(Pipeline, QueueMetricsUseSentinelsWhereNoQueueExists)
{
    // Stage_metrics queue fields are -1 wherever no queue exists: serial
    // mode has no queues at all; in overlapped mode the head has no input
    // queue and the sink has no output queue. Consumers gate on >= 0.
    auto make = [](Pipeline& pipeline) {
        for (const char* name : {"head", "middle", "sink"}) {
            pipeline.emplace_stage<Function_stage>(name, [](Frame_token token) {
                std::vector<Frame_token> out;
                out.push_back(std::move(token));
                return out;
            });
        }
    };

    {
        Pipeline pipeline;
        make(pipeline);
        const auto metrics = pipeline.run(8);
        ASSERT_EQ(metrics.stages.size(), 3u);
        for (const auto& stage : metrics.stages) {
            EXPECT_EQ(stage.mean_input_queue_depth, -1.0) << stage.name << " (serial)";
            EXPECT_EQ(stage.input_waits, -1) << stage.name << " (serial)";
            EXPECT_EQ(stage.output_waits, -1) << stage.name << " (serial)";
        }
    }

    {
        Pipeline pipeline;
        make(pipeline);
        Pipeline_options options;
        options.frames_in_flight = 4;
        const auto metrics = pipeline.run(8, options);
        ASSERT_EQ(metrics.stages.size(), 3u);
        const auto& head = metrics.stages[0];
        const auto& middle = metrics.stages[1];
        const auto& sink = metrics.stages[2];
        EXPECT_EQ(head.mean_input_queue_depth, -1.0);
        EXPECT_EQ(head.input_waits, -1);
        EXPECT_GE(head.output_waits, 0);
        EXPECT_GE(middle.mean_input_queue_depth, 0.0);
        EXPECT_GE(middle.input_waits, 0);
        EXPECT_GE(middle.output_waits, 0);
        EXPECT_GE(sink.mean_input_queue_depth, 0.0);
        EXPECT_GE(sink.input_waits, 0);
        EXPECT_EQ(sink.output_waits, -1);
    }
}

TEST(Pipeline, TokenAccountingConsistentUnderEarlyStop)
{
    // stop_when cuts the schedule short at an arbitrary point; the metrics
    // must still balance: the head stage consumed exactly head_tokens, and
    // every downstream stage consumed exactly what its upstream emitted —
    // in both execution modes, at several stop points.
    for (const int fif : {1, 4}) {
        for (const int stop_at : {1, 5, 17}) {
            Pipeline pipeline;
            for (const char* name : {"head", "middle", "sink"}) {
                pipeline.emplace_stage<Function_stage>(name, [](Frame_token token) {
                    std::vector<Frame_token> out;
                    out.push_back(std::move(token));
                    return out;
                });
            }
            int polls = 0;
            Pipeline_options options;
            options.frames_in_flight = fif;
            options.stop_when = [&polls, stop_at] { return ++polls > stop_at; };
            const auto metrics = pipeline.run(1000, options);
            const std::string label =
                "fif=" + std::to_string(fif) + " stop=" + std::to_string(stop_at);
            ASSERT_EQ(metrics.stages.size(), 3u) << label;
            EXPECT_GT(metrics.head_tokens, 0) << label;
            EXPECT_LT(metrics.head_tokens, 1000) << label;
            EXPECT_EQ(metrics.stages[0].tokens_in, metrics.head_tokens) << label;
            for (std::size_t i = 0; i + 1 < metrics.stages.size(); ++i) {
                EXPECT_EQ(metrics.stages[i].tokens_out, metrics.stages[i].tokens_in)
                    << label << " stage " << metrics.stages[i].name;
                EXPECT_EQ(metrics.stages[i + 1].tokens_in, metrics.stages[i].tokens_out)
                    << label << " edge " << i;
            }
            EXPECT_GE(metrics.pool_hits, 0) << label;
            EXPECT_GE(metrics.pool_misses, 0) << label;
        }
    }
}

// --- lazy payload source ------------------------------------------------

TEST(Pipeline, LazyPayloadSourceMatchesUpfrontQueueing)
{
    // The Encode_stage pulls payloads just-in-time; the old harness queued
    // them all before the run. Both must put the same bits on air.
    constexpr int width = 480;
    constexpr int height = 270;
    auto config = core::paper_config(width, height);
    config.geometry = coding::fitted_geometry(width, height, 2);
    config.tau = 12;

    core::Inframe_encoder upfront(config);
    util::Prng prng(77);
    for (int i = 0; i < 4; ++i) {
        upfront.queue_payload(prng.next_bits(
            static_cast<std::size_t>(config.geometry.payload_bits_per_frame())));
    }

    core::Encode_stage::Options options;
    options.payloads =
        core::make_random_payload_source(77, config.geometry.payload_bits_per_frame());
    core::Encode_stage lazy(config, std::move(options));

    const img::Imagef video(width, height, 1, 127.0f);
    for (int j = 0; j < 2 * config.tau; ++j) {
        const auto expected = upfront.next_display_frame(video);
        auto actual = lazy.encode(video);
        ASSERT_EQ(actual.values().size(), expected.values().size());
        for (std::size_t i = 0; i < expected.values().size(); ++i) {
            ASSERT_EQ(actual.values()[i], expected.values()[i]) << "display frame " << j;
        }
        img::Frame_pool::instance().recycle(std::move(actual));
    }
}

// --- determinism across execution configurations ------------------------

// The noisy 480x270 rig: small enough for a sub-second run, noisy enough
// that any cross-configuration divergence (RNG stream, capture order,
// accounting order) shows up in the decoded metrics.
core::Link_experiment_config noisy_rig(int threads, int frames_in_flight)
{
    core::Link_experiment_config config;
    constexpr int width = 480;
    constexpr int height = 270;
    config.video = video::make_sunrise_video(width, height);
    config.inframe = core::paper_config(width, height);
    config.inframe.geometry = coding::fitted_geometry(width, height, 2);
    config.inframe.tau = 12;
    config.camera.sensor_width = width;
    config.camera.sensor_height = height;
    config.camera.shot_noise_scale = 0.25;
    config.camera.read_noise_sigma = 1.5;
    config.camera.quantize = true;
    config.detector = core::Detector::matched;
    config.duration_s = 0.4;
    config.inframe.threads = threads;
    config.frames_in_flight = frames_in_flight;
    return config;
}

void expect_identical(const core::Link_experiment_result& a,
                      const core::Link_experiment_result& b, const std::string& label)
{
    EXPECT_EQ(a.data_frames, b.data_frames) << label;
    EXPECT_EQ(a.captures, b.captures) << label;
    EXPECT_EQ(a.available_gob_ratio, b.available_gob_ratio) << label;
    EXPECT_EQ(a.gob_error_rate, b.gob_error_rate) << label;
    EXPECT_EQ(a.goodput_kbps, b.goodput_kbps) << label;
    EXPECT_EQ(a.block_error_rate, b.block_error_rate) << label;
    EXPECT_EQ(a.unknown_block_ratio, b.unknown_block_ratio) << label;
    EXPECT_EQ(a.trusted_bit_error_rate, b.trusted_bit_error_rate) << label;
    EXPECT_EQ(a.payload_bit_error_rate, b.payload_bit_error_rate) << label;
    EXPECT_EQ(a.captures_dropped, b.captures_dropped) << label;
}

TEST(Pipeline, LinkExperimentBitIdenticalAcrossFifAndThreads)
{
    const auto baseline = core::run_link_experiment(noisy_rig(1, 1));
    EXPECT_GT(baseline.data_frames, 0);
    EXPECT_GT(baseline.goodput_kbps, 0.0);
    for (const int threads : {1, 4}) {
        for (const int fif : {1, 2, 8}) {
            if (threads == 1 && fif == 1) continue;
            const auto result = core::run_link_experiment(noisy_rig(threads, fif));
            expect_identical(result, baseline,
                             "threads=" + std::to_string(threads)
                                 + " fif=" + std::to_string(fif));
            EXPECT_EQ(result.pipeline.frames_in_flight, fif);
        }
    }
}

TEST(Pipeline, FlickerExperimentBitIdenticalAcrossThreads)
{
    core::Flicker_experiment_config config;
    constexpr int width = 480;
    constexpr int height = 270;
    config.video = video::make_sunrise_video(width, height);
    config.inframe = core::paper_config(width, height);
    config.inframe.geometry = coding::fitted_geometry(width, height, 2);
    config.observers = 3;
    config.duration_s = 0.8;

    config.inframe.threads = 1;
    const auto serial = core::run_flicker_experiment(config);
    ASSERT_EQ(serial.scores.size(), 3u);
    config.inframe.threads = 4;
    const auto threaded = core::run_flicker_experiment(config);
    EXPECT_EQ(threaded.mean_score, serial.mean_score);
    EXPECT_EQ(threaded.stddev_score, serial.stddev_score);
    EXPECT_EQ(threaded.scores, serial.scores);
}

} // namespace
