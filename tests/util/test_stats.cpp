#include "util/stats.hpp"

#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace inframe::util;

TEST(RunningStats, EmptyIsWellDefined)
{
    Running_stats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, SingleSample)
{
    Running_stats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMoments)
{
    Running_stats s;
    const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    s.add(xs);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance with n-1 = 7: sum of squared deviations is 32.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MatchesGaussianMoments)
{
    Prng prng(77);
    Running_stats s;
    for (int i = 0; i < 100'000; ++i) s.add(prng.next_gaussian(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(RunningStats, ResetClears)
{
    Running_stats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Median, OddAndEvenSizes)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
}

TEST(Median, EmptyThrows)
{
    EXPECT_THROW(median({}), Contract_violation);
}

} // namespace
