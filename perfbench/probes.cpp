#include "probes.hpp"

#include <algorithm>
#include <ctime>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>

#include <sched.h>

namespace perfbench {

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) { return 1e3 * seconds_since(start); }

double process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb()
{
    // getrusage's ru_maxrss cannot be reset; /proc/self/status's VmHWM can.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

void reset_peak_rss()
{
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";
}

int nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
}

double median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    if (values.size() % 2 == 1) return *mid;
    return 0.5 * (*mid + *std::max_element(values.begin(), mid));
}

double mean(const std::vector<double>& values)
{
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

Tail tail_of(std::vector<double> values)
{
    constexpr std::size_t beyond = 10;
    Tail tail;
    tail.samples = values.size();
    if (values.empty()) return tail;
    std::sort(values.begin(), values.end());
    const std::size_t index = values.size() > beyond ? values.size() - beyond - 1 : values.size() - 1;
    tail.value = values[index];
    tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(values.size());
    return tail;
}

Timed_stage::Timed_stage(std::unique_ptr<inframe::core::Stage> inner, bool head)
    : inner_(std::move(inner)), head_(head)
{
}

std::vector<inframe::core::Frame_token> Timed_stage::push(inframe::core::Frame_token token)
{
    if (head_) start_cpu_s_.push_back(process_cpu_s());
    const Clock::time_point start = Clock::now();
    if (head_) start_s_.push_back(std::chrono::duration<double>(start.time_since_epoch()).count());
    std::vector<inframe::core::Frame_token> out = inner_->push(std::move(token));
    push_ms_.push_back(ms_since(start));
    return out;
}

std::vector<inframe::core::Frame_token> Timed_stage::flush()
{
    const Clock::time_point start = Clock::now();
    std::vector<inframe::core::Frame_token> out = inner_->flush();
    const double ms = ms_since(start);
    if (push_ms_.empty()) {
        push_ms_.push_back(ms);
    } else {
        push_ms_.back() += ms;
    }
    return out;
}

} // namespace perfbench
