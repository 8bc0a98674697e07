// Streaming statistics used by the evaluation harness: Fig. 6 reports mean
// and standard deviation over an observer panel; Fig. 7 reports ratios with
// run-to-run spread. Welford's algorithm keeps the accumulators stable.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace inframe::util {

class Running_stats {
public:
    void add(double x);
    void add(std::span<const double> xs);

    std::size_t count() const { return count_; }
    double mean() const;
    // Sample variance (n-1 denominator); 0 for fewer than two samples.
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

    void reset();

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

// Median of a copy of the data (handy for robust thresholds).
double median(std::vector<double> values);

} // namespace inframe::util
