#include "util/stats.hpp"

#include "util/contract.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace inframe::util {

void Running_stats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void Running_stats::add(std::span<const double> xs)
{
    for (const double x : xs) add(x);
}

double Running_stats::mean() const
{
    return count_ > 0 ? mean_ : 0.0;
}

double Running_stats::variance() const
{
    if (count_ < 2) return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double Running_stats::stddev() const
{
    return std::sqrt(variance());
}

double Running_stats::min() const
{
    return count_ > 0 ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double Running_stats::max() const
{
    return count_ > 0 ? max_ : std::numeric_limits<double>::quiet_NaN();
}

void Running_stats::reset()
{
    *this = Running_stats{};
}

double median(std::vector<double> values)
{
    expects(!values.empty(), "median of empty set");
    const auto mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
    double hi = values[mid];
    if (values.size() % 2 == 1) return hi;
    const auto lo_it = std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return (*lo_it + hi) / 2.0;
}

} // namespace inframe::util
