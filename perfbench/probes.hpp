// Measurement probes the benchmark attaches from outside the library: a
// timing decorator for pipeline stages, process resource readings, and
// the sample statistics every latency metric is reported with.
#pragma once

#include "core/pipeline.hpp"

#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
double ms_since(Clock::time_point start);

// CPU seconds used so far by every thread of the process.
double process_cpu_s();

// Peak resident set size of the process since the last reset_peak_rss(),
// MB.
double peak_rss_mb();

// Restarts the peak RSS from the current RSS (Linux clear_refs); a no-op
// where the kernel does not allow it.
void reset_peak_rss();

// CPUs this process may run on (what `nproc` prints).
int nproc();

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// The tail of a sample: the highest percentile that still has at least ten
// samples above it, so a single outlier is never the tail. With too few
// samples the maximum is reported at percentile 100.
struct Tail {
    double value = 0.0;
    double percentile = 0.0; // share of samples at or below `value`, %
    std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values);

// Times each push() of the wrapped stage. flush() time is added to the
// last push sample, so a sink's end-of-stream finalize is charged to the
// capture before it. A head stage also stamps the wall-clock and process
// CPU time at which each display frame enters the pipeline.
class Timed_stage final : public inframe::core::Stage {
public:
    Timed_stage(std::unique_ptr<inframe::core::Stage> inner, bool head);

    const char* name() const override { return inner_->name(); }
    std::vector<inframe::core::Frame_token> push(inframe::core::Frame_token token) override;
    std::vector<inframe::core::Frame_token> flush() override;

    const std::vector<double>& push_ms() const { return push_ms_; }
    // Head stage only: steady-clock and process CPU seconds at the start
    // of each push().
    const std::vector<double>& start_s() const { return start_s_; }
    const std::vector<double>& start_cpu_s() const { return start_cpu_s_; }

private:
    std::unique_ptr<inframe::core::Stage> inner_;
    bool head_;
    std::vector<double> push_ms_;
    std::vector<double> start_s_;
    std::vector<double> start_cpu_s_;
};

} // namespace perfbench
