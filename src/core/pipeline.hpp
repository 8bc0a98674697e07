// Stage-graph runtime for the simulation dataflow.
//
// The paper's whole evaluation is one pipeline — video -> encoder ->
// display/camera link -> decoder — and every driver in this repo
// (link_runner, the examples, the benches) is some assembly of that
// graph. core::Pipeline owns the assembly: stages implement a common
// push/flush interface, the runtime connects them with bounded SPSC
// queues carrying pool-backed frames by move, and a frames-in-flight
// executor overlaps stages across display frames.
//
// Determinism: each stage runs serially, in token-index order, on at
// most one thread. Its internal state therefore evolves exactly as in
// the serial loop, regardless of how many frames are in flight — overlap
// changes *when* a stage runs relative to other stages, never the order
// of inputs any single stage sees. All stochastic stages are already
// keyed by (seed, stage, index), and sinks observe tokens in index
// order, so the output is bit-identical for every frames_in_flight and
// thread count. tests/core/test_pipeline.cpp asserts this.
#pragma once

#include "imgproc/image.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace inframe::core {

// The unit of work flowing along pipeline edges: one frame, `image`
// (pool-backed; stages recycle or forward it — see Stage). A stage that
// needs a second frame keeps it itself (the flicker experiment makes the
// shown frame next to the video frame inside one stage).
struct Frame_token {
    std::int64_t index = 0;  // sequence position within this edge's stream
    double time_s = 0.0;     // simulation timestamp (display/capture start)
    img::Imagef image;
};

// A pipeline stage. Contract:
//  - push() receives tokens in ascending index order and returns zero or
//    more output tokens, also in ascending index order. A stage may
//    buffer (0 outputs now, several later) or fan out (several outputs
//    per input) as long as the cumulative output sequence is ordered.
//  - The stage takes ownership of the input token's image: it must
//    either move it into an output token or recycle it into
//    img::Frame_pool. Images on returned tokens become the runtime's
//    (and then the next stage's) responsibility.
//  - flush() is called exactly once, after the final push(), and may
//    emit trailing tokens (e.g. the decoder's partially captured frame).
//  - A stage is driven from a single thread at a time; it needs no
//    internal locking. Stages may call util::parallel_for freely — the
//    ambient pool supports concurrent top-level calls from different
//    stage threads.
class Stage {
public:
    virtual ~Stage() = default;
    virtual const char* name() const = 0;
    virtual std::vector<Frame_token> push(Frame_token token) = 0;
    virtual std::vector<Frame_token> flush() { return {}; }
};

// Adapter for one-off stages: wraps callables instead of requiring a
// named subclass. Used by drivers whose sink logic is a few lines.
class Function_stage : public Stage {
public:
    using Push_fn = std::function<std::vector<Frame_token>(Frame_token)>;
    using Flush_fn = std::function<std::vector<Frame_token>()>;

    Function_stage(std::string name, Push_fn push, Flush_fn flush = {})
        : name_(std::move(name)), push_(std::move(push)), flush_(std::move(flush))
    {
    }

    const char* name() const override { return name_.c_str(); }
    std::vector<Frame_token> push(Frame_token token) override { return push_(std::move(token)); }
    std::vector<Frame_token> flush() override { return flush_ ? flush_() : std::vector<Frame_token>{}; }

private:
    std::string name_;
    Push_fn push_;
    Flush_fn flush_;
};

// Per-stage observability, harvested after a run.
//
// The queue-derived fields only exist where a queue exists, i.e. in
// overlapped mode: serial execution has no edges (all three absent), the
// head stage has no input queue (depth and input_waits absent) and the
// sink has no output queue (output_waits absent). Absent values are
// reported as the sentinel -1, never as a misleadingly quiet 0 —
// consumers must check `>= 0` before aggregating.
struct Stage_metrics {
    std::string name;
    double wall_s = 0.0;              // time spent inside push()/flush()
    std::int64_t tokens_in = 0;
    std::int64_t tokens_out = 0;
    double mean_input_queue_depth = -1.0;  // occupancy seen at pop; -1 = no input queue
    std::int64_t input_waits = -1;    // pops that blocked; -1 = no input queue
    std::int64_t output_waits = -1;   // pushes that blocked; -1 = no output queue
};

struct Pipeline_metrics {
    double wall_s = 0.0;
    int frames_in_flight = 1;
    std::int64_t head_tokens = 0;     // tokens injected at the head stage
    std::vector<Stage_metrics> stages;
    // img::Frame_pool acquire outcomes during the run (delta, not lifetime).
    std::int64_t pool_hits = 0;
    std::int64_t pool_misses = 0;
};

struct Pipeline_options {
    // Bound on tokens concurrently in flight between adjacent stages
    // (the SPSC edge capacity). 1 = serial execution on the calling
    // thread; >1 runs each stage on its own thread with backpressure.
    int frames_in_flight = 1;
    // Optional early stop: once it returns true, no further head tokens
    // are injected (tokens already in flight drain normally). Serial
    // mode evaluates it before each head token; overlap mode evaluates
    // it on the sink thread after each consumed token, so a lambda may
    // safely read sink-stage state.
    std::function<bool()> stop_when;
};

// A linear stage graph plus its executor. Assemble with emplace_stage /
// add_stage (source first, sink last), then run(): the runtime injects
// `head_tokens` empty tokens (index 0..n-1) into the first stage and
// drives every token through to the sink, flushing each stage in order
// after its input stream ends. Images on tokens leaving the sink are
// recycled into img::Frame_pool by the runtime.
class Pipeline {
public:
    Pipeline() = default;
    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    Stage& add_stage(std::unique_ptr<Stage> stage);

    template <typename S, typename... Args>
    S& emplace_stage(Args&&... args)
    {
        auto stage = std::make_unique<S>(std::forward<Args>(args)...);
        S& ref = *stage;
        add_stage(std::move(stage));
        return ref;
    }


    // Drives the graph to completion and returns the run's metrics.
    // May be called repeatedly; stages keep their internal state across
    // runs, but head token indices restart at 0 for each run.
    Pipeline_metrics run(std::int64_t head_tokens, Pipeline_options options = {});

private:
    Pipeline_metrics run_serial(std::int64_t head_tokens, const Pipeline_options& options);
    Pipeline_metrics run_overlapped(std::int64_t head_tokens, const Pipeline_options& options);

    std::vector<std::unique_ptr<Stage>> stages_;
};

} // namespace inframe::core
