// Telemetry subsystem: the JSON reader it exports through, the registry
// (interning, per-thread shards, merge-at-snapshot), span recording, the
// Session scope rules, and the two contracts the instrumentation must
// keep: decoded payload bits are identical with telemetry on or off at
// any execution configuration, and a traced run exports artifacts that
// parse and reference only instrumented span names.

#include "core/link_runner.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "video/source.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace inframe;
namespace json = telemetry::json;

// --- JSON reader --------------------------------------------------------

TEST(TelemetryJson, ParsesScalarsAndContainers)
{
    json::Value value;
    ASSERT_TRUE(json::parse(R"({"a": 1.5, "b": [true, null, "x"], "c": {"d": -2e3}})", value));
    ASSERT_TRUE(value.is_object());
    EXPECT_DOUBLE_EQ(value["a"].as_number(), 1.5);
    ASSERT_TRUE(value["b"].is_array());
    ASSERT_EQ(value["b"].as_array().size(), 3u);
    EXPECT_TRUE(value["b"].as_array()[0].as_bool());
    EXPECT_TRUE(value["b"].as_array()[1].is_null());
    EXPECT_EQ(value["b"].as_array()[2].as_string(), "x");
    EXPECT_DOUBLE_EQ(value["c"]["d"].as_number(), -2000.0);
}

TEST(TelemetryJson, ParsesStringEscapes)
{
    json::Value value;
    ASSERT_TRUE(json::parse(R"(["a\"b", "tab\tnewline\n", "Aé"])", value));
    const auto& array = value.as_array();
    EXPECT_EQ(array[0].as_string(), "a\"b");
    EXPECT_EQ(array[1].as_string(), "tab\tnewline\n");
    EXPECT_EQ(array[2].as_string(), "A\xc3\xa9");
}

TEST(TelemetryJson, RejectsMalformedInput)
{
    json::Value value;
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\": }", value, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(json::parse("[1, 2] trailing", value, &error));
    EXPECT_FALSE(json::parse("", value, &error));
    EXPECT_FALSE(json::parse("{\"a\" 1}", value, &error));
}

TEST(TelemetryJson, MissingKeysAndFallbacks)
{
    json::Value value;
    ASSERT_TRUE(json::parse(R"({"n": 3, "s": "hi"})", value));
    EXPECT_DOUBLE_EQ(value.number_or("n", -1.0), 3.0);
    EXPECT_DOUBLE_EQ(value.number_or("missing", -1.0), -1.0);
    EXPECT_EQ(value.string_or("s", "no"), "hi");
    EXPECT_EQ(value.string_or("missing", "no"), "no");
    EXPECT_TRUE(value["missing"].is_null());
    EXPECT_TRUE(value["missing"]["deeper"].is_null());
}

TEST(TelemetryJson, ParseLinesSkipsBlanksAndReportsBadLine)
{
    std::vector<json::Value> lines;
    ASSERT_TRUE(json::parse_lines("{\"a\":1}\n\n{\"a\":2}\n", lines));
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_DOUBLE_EQ(lines[1].number_or("a", 0.0), 2.0);

    std::string error;
    lines.clear();
    EXPECT_FALSE(json::parse_lines("{\"a\":1}\nnot json\n", lines, &error));
    EXPECT_NE(error.find("2"), std::string::npos) << error;
}

// --- histograms ---------------------------------------------------------

TEST(TelemetryHistogram, BucketsAreMonotonicAndClamped)
{
    using telemetry::Histogram_data;
    EXPECT_EQ(Histogram_data::bucket_of(0.0), 0);
    EXPECT_EQ(Histogram_data::bucket_of(-5.0), 0);
    int previous = 0;
    for (double v = 1e-4; v < 1e3; v *= 1.7) {
        const int bucket = Histogram_data::bucket_of(v);
        EXPECT_GE(bucket, previous) << v;
        EXPECT_LT(bucket, Histogram_data::bucket_count) << v;
        previous = bucket;
    }
    EXPECT_EQ(Histogram_data::bucket_of(1e30), Histogram_data::bucket_count - 1);
    // The lower bound of a value's bucket never exceeds the value.
    for (double v : {0.01, 0.5, 1.0, 3.7, 100.0}) {
        const int bucket = Histogram_data::bucket_of(v);
        EXPECT_LE(Histogram_data::bucket_lower_bound(bucket), v) << v;
    }
}

TEST(TelemetryHistogram, RecordAndMergeTrackMoments)
{
    telemetry::Histogram_data a, b;
    a.record(1.0);
    a.record(4.0);
    b.record(0.25);
    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_DOUBLE_EQ(a.sum, 5.25);
    EXPECT_DOUBLE_EQ(a.min, 0.25);
    EXPECT_DOUBLE_EQ(a.max, 4.0);
}

TEST(TelemetryFrameRecord, MarginBucketsClampAndOrder)
{
    using telemetry::Frame_record;
    EXPECT_EQ(Frame_record::margin_bucket(0.0), 0);
    EXPECT_EQ(Frame_record::margin_bucket(1e9), Frame_record::margin_buckets - 1);
    EXPECT_LE(Frame_record::margin_bucket(0.01), Frame_record::margin_bucket(0.5));
    EXPECT_LE(Frame_record::margin_bucket(0.5), Frame_record::margin_bucket(8.0));
}

// --- registry -----------------------------------------------------------

TEST(TelemetryRegistry, InternIsIdempotent)
{
    const int a = telemetry::intern_metric("test.intern", telemetry::Metric_kind::counter);
    const int b = telemetry::intern_metric("test.intern", telemetry::Metric_kind::counter);
    EXPECT_EQ(a, b);
    const auto names = telemetry::metric_names();
    ASSERT_GT(names.size(), static_cast<std::size_t>(a));
    EXPECT_EQ(names[static_cast<std::size_t>(a)].name, "test.intern");
}

TEST(TelemetryRegistry, HooksAreInertWithoutRegistry)
{
    ASSERT_EQ(telemetry::current(), nullptr);
    const int counter = telemetry::intern_metric("test.inert", telemetry::Metric_kind::counter);
    telemetry::counter_add(counter, 7);
    telemetry::gauge_set(counter, 1.0);
    telemetry::histogram_record(counter, 1.0);
    { telemetry::Scoped_span span("test.inert.span"); }
    telemetry::emit_frame(telemetry::Frame_record{});
    telemetry::emit_event({"test", "inert", 0, 0.0});
    // Nothing to observe — the assertions are that none of the above
    // crashed and telemetry stayed disabled throughout.
    EXPECT_FALSE(telemetry::enabled());
}

TEST(TelemetryRegistry, CountersMergeAcrossThreads)
{
    const int counter =
        telemetry::intern_metric("test.multithread", telemetry::Metric_kind::counter);
    telemetry::Registry registry;
    telemetry::install(&registry);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([counter] {
            for (int i = 0; i < 1000; ++i) telemetry::counter_add(counter);
        });
    }
    for (auto& thread : threads) thread.join();
    telemetry::install(nullptr);

    const auto snapshot = registry.snapshot();
    bool found = false;
    for (const auto& value : snapshot.counters) {
        if (value.name == "test.multithread") {
            EXPECT_EQ(value.value, 4000u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(TelemetryRegistry, SpansFramesAndEventsAreCaptured)
{
    telemetry::Registry registry;
    telemetry::install(&registry);
    { telemetry::Scoped_span span("test.span"); }
    telemetry::Frame_record frame;
    frame.data_frame_index = 3;
    frame.blocks_total = 10;
    telemetry::emit_frame(frame);
    telemetry::emit_event({"test", "ping", 5, 2.5});
    telemetry::install(nullptr);

    const auto snapshot = registry.snapshot();
    EXPECT_GE(snapshot.span_count, 1u);
    EXPECT_EQ(snapshot.frame_count, 1u);
    EXPECT_EQ(snapshot.event_count, 1u);

    std::ostringstream jsonl;
    registry.write_frames_jsonl(jsonl);
    std::vector<json::Value> lines;
    ASSERT_TRUE(json::parse_lines(jsonl.str(), lines));
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].string_or("type", ""), "frame");
    EXPECT_DOUBLE_EQ(lines[0].number_or("data_frame_index", -1.0), 3.0);
    EXPECT_EQ(lines[1].string_or("type", ""), "event");
    EXPECT_EQ(lines[1].string_or("name", ""), "ping");
}

TEST(TelemetryRegistry, StaleSpanAcrossReinstallIsDropped)
{
    // A span that outlives the registry it started under must not record
    // into (or crash on) whatever is installed when it ends.
    auto first = std::make_unique<telemetry::Registry>();
    telemetry::install(first.get());
    auto span = std::make_unique<telemetry::Scoped_span>("test.stale");
    telemetry::install(nullptr);
    first.reset();

    telemetry::Registry second;
    telemetry::install(&second);
    span.reset(); // ends under `second`, started under `first` — dropped
    telemetry::install(nullptr);
    EXPECT_EQ(second.snapshot().span_count, 0u);
}

// --- session ------------------------------------------------------------

TEST(TelemetrySession, DisabledConfigIsInert)
{
    telemetry::Session session(telemetry::Config{});
    EXPECT_FALSE(session.active());
    EXPECT_FALSE(telemetry::enabled());
}

TEST(TelemetrySession, OutermostSessionWins)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) / "telemetry_nested";
    {
        telemetry::Session outer({(dir / "outer").string()});
        ASSERT_TRUE(outer.active());
        telemetry::Session inner({(dir / "inner").string()});
        EXPECT_FALSE(inner.active());
        EXPECT_EQ(telemetry::current(), outer.registry());
    }
    EXPECT_FALSE(telemetry::enabled());
    EXPECT_TRUE(std::filesystem::exists(dir / "outer" / "trace.json"));
    EXPECT_FALSE(std::filesystem::exists(dir / "inner"));
}

// --- end-to-end contracts -----------------------------------------------

core::Link_experiment_config traced_rig(int threads, int frames_in_flight)
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
    config.duration_s = 0.3;
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
    EXPECT_EQ(a.trusted_bit_error_rate, b.trusted_bit_error_rate) << label;
    EXPECT_EQ(a.payload_bit_error_rate, b.payload_bit_error_rate) << label;
}

TEST(TelemetryContract, PayloadBitsIdenticalWithTelemetryOnOrOff)
{
    const auto baseline = core::run_link_experiment(traced_rig(1, 1));
    ASSERT_GT(baseline.data_frames, 0);
    for (const int threads : {1, 4}) {
        for (const int fif : {1, 4}) {
            auto config = traced_rig(threads, fif);
            const auto dir = std::filesystem::path(::testing::TempDir())
                             / ("telemetry_identity_t" + std::to_string(threads) + "_f"
                                + std::to_string(fif));
            config.telemetry.trace_dir = dir.string();
            const auto traced = core::run_link_experiment(config);
            expect_identical(traced, baseline,
                             "threads=" + std::to_string(threads)
                                 + " fif=" + std::to_string(fif));
            EXPECT_TRUE(std::filesystem::exists(dir / "trace.json"));
        }
    }
}

std::string slurp(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(TelemetryContract, TracedRunExportsValidArtifacts)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) / "telemetry_smoke";
    auto config = traced_rig(1, 4);
    config.telemetry.trace_dir = dir.string();
    const auto result = core::run_link_experiment(config);
    ASSERT_GT(result.data_frames, 0);

    // trace.json: parses, and every span name is an instrumented one.
    const std::set<std::string> allowed = {
        // pipeline stages (link + flicker drivers)
        "video", "encode", "link", "decode", "send", "receive", "assess",
        // instrumented operations
        "encode.embed", "decode.capture", "decode.finalize", "link.capture",
        "pool.batch", "sync.estimate",
        // impairment stages
        "timing", "exposure-drift", "shake", "tear", "occlusion"};
    json::Value trace;
    std::string error;
    ASSERT_TRUE(json::parse(slurp(dir / "trace.json"), trace, &error)) << error;
    const auto& events = trace["traceEvents"].as_array();
    ASSERT_FALSE(events.empty());
    std::set<std::string> seen;
    for (const auto& event : events) {
        EXPECT_EQ(event.string_or("ph", ""), "X");
        EXPECT_GE(event.number_or("dur", -1.0), 0.0);
        const std::string name = event.string_or("name", "?");
        EXPECT_TRUE(allowed.count(name)) << "unregistered span name: " << name;
        seen.insert(name);
    }
    // The core of the pipeline must actually appear.
    for (const char* expected : {"video", "encode", "link", "decode", "encode.embed",
                                 "decode.finalize", "link.capture"}) {
        EXPECT_TRUE(seen.count(expected)) << "missing span: " << expected;
    }

    // frames.jsonl: one frame record per decoded data frame, well formed.
    std::vector<json::Value> lines;
    ASSERT_TRUE(json::parse_lines(slurp(dir / "frames.jsonl"), lines, &error)) << error;
    std::int64_t frames = 0;
    for (const auto& line : lines) {
        if (line.string_or("type", "") != "frame") continue;
        ++frames;
        EXPECT_GT(line.number_or("blocks_total", 0.0), 0.0);
        EXPECT_GT(line.number_or("gobs_total", 0.0), 0.0);
        ASSERT_TRUE(line["margin_hist"].is_array());
        EXPECT_EQ(line["margin_hist"].as_array().size(),
                  static_cast<std::size_t>(telemetry::Frame_record::margin_buckets));
    }
    EXPECT_EQ(frames, result.data_frames);

    // metrics.json: parses and reports the shapes the exporter promises.
    json::Value metrics;
    ASSERT_TRUE(json::parse(slurp(dir / "metrics.json"), metrics, &error)) << error;
    ASSERT_TRUE(metrics["counters"].is_object());
    ASSERT_TRUE(metrics["histograms"].is_object());
    EXPECT_GE(metrics.number_or("span_count", 0.0), static_cast<double>(events.size()));
    EXPECT_EQ(metrics.number_or("frame_count", -1.0), static_cast<double>(frames));
}

} // namespace
