/**
 * @file
 * Unit tests for the double-precision statistical feature set.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "dsp/features.hh"

namespace
{

using namespace xpro;

const std::vector<double> ramp = {1.0, 2.0, 3.0, 4.0, 5.0};

TEST(FeaturesTest, MaxMinMean)
{
    EXPECT_DOUBLE_EQ(featureMax(ramp.data(), ramp.size()), 5.0);
    EXPECT_DOUBLE_EQ(featureMin(ramp.data(), ramp.size()), 1.0);
    EXPECT_DOUBLE_EQ(featureMean(ramp.data(), ramp.size()), 3.0);
}

TEST(FeaturesTest, VarAndStd)
{
    EXPECT_DOUBLE_EQ(featureVar(ramp.data(), ramp.size()), 2.0);
    EXPECT_DOUBLE_EQ(featureStd(ramp.data(), ramp.size()), std::sqrt(2.0));
}

TEST(FeaturesTest, ConstantSignal)
{
    const std::vector<double> flat(16, 7.0);
    EXPECT_DOUBLE_EQ(featureVar(flat.data(), flat.size()), 0.0);
    EXPECT_DOUBLE_EQ(featureStd(flat.data(), flat.size()), 0.0);
    EXPECT_DOUBLE_EQ(featureSkew(flat.data(), flat.size()), 0.0);
    EXPECT_DOUBLE_EQ(featureKurt(flat.data(), flat.size()), 0.0);
    EXPECT_DOUBLE_EQ(featureCzero(flat.data(), flat.size()), 0.0);
}

TEST(FeaturesTest, ZeroCrossingsAlternating)
{
    const std::vector<double> alternating = {1.0, -1.0, 1.0, -1.0, 1.0};
    EXPECT_DOUBLE_EQ(
        featureCzero(alternating.data(), alternating.size()), 4.0);
}

TEST(FeaturesTest, ZeroCrossingsWithZeroSamples)
{
    // Zero counts as non-negative, matching the hardware comparator
    // on the sign bit.
    const std::vector<double> signal = {-1.0, 0.0, -1.0, 2.0};
    EXPECT_DOUBLE_EQ(featureCzero(signal.data(), signal.size()), 3.0);
}

TEST(FeaturesTest, SkewOfSymmetricIsZero)
{
    const std::vector<double> symmetric = {-2.0, -1.0, 0.0, 1.0, 2.0};
    EXPECT_NEAR(featureSkew(symmetric.data(), symmetric.size()), 0.0, 1e-12);
}

TEST(FeaturesTest, SkewSignFollowsTail)
{
    const std::vector<double> right_tail = {0.0, 0.0, 0.0, 0.0, 10.0};
    EXPECT_GT(featureSkew(right_tail.data(), right_tail.size()), 0.0);
    const std::vector<double> left_tail = {0.0, 0.0, 0.0, 0.0, -10.0};
    EXPECT_LT(featureSkew(left_tail.data(), left_tail.size()), 0.0);
}

TEST(FeaturesTest, KurtosisOfTwoPointMassIsOne)
{
    // Bernoulli(+-1) has kurtosis exactly 1 (non-excess).
    const std::vector<double> two_point = {1.0, -1.0, 1.0, -1.0};
    EXPECT_NEAR(featureKurt(two_point.data(), two_point.size()), 1.0, 1e-12);
}

TEST(FeaturesTest, GaussianKurtosisNearThree)
{
    Rng rng(77);
    std::vector<double> noise(200000);
    for (double &v : noise)
        v = rng.gaussian();
    EXPECT_NEAR(featureKurt(noise.data(), noise.size()), 3.0, 0.1);
    EXPECT_NEAR(featureSkew(noise.data(), noise.size()), 0.0, 0.05);
}

TEST(FeaturesTest, DispatchMatchesDirectCalls)
{
    for (FeatureKind kind : allFeatureKinds) {
        const double *x = ramp.data();
        const size_t n = ramp.size();
        const double via_dispatch = computeFeature(kind, x, n);
        double direct = 0.0;
        switch (kind) {
          case FeatureKind::Max:   direct = featureMax(x, n); break;
          case FeatureKind::Min:   direct = featureMin(x, n); break;
          case FeatureKind::Mean:  direct = featureMean(x, n); break;
          case FeatureKind::Var:   direct = featureVar(x, n); break;
          case FeatureKind::Std:   direct = featureStd(x, n); break;
          case FeatureKind::Czero: direct = featureCzero(x, n); break;
          case FeatureKind::Skew:  direct = featureSkew(x, n); break;
          case FeatureKind::Kurt:  direct = featureKurt(x, n); break;
        }
        EXPECT_DOUBLE_EQ(via_dispatch, direct)
            << featureName(kind);
    }
}

TEST(FeaturesTest, ComputeAllMatchesCanonicalOrder)
{
    const auto all = computeAllFeatures(ramp);
    for (size_t i = 0; i < featureKindCount; ++i)
        EXPECT_DOUBLE_EQ(all[i], computeFeature(allFeatureKinds[i],
                                                ramp.data(), ramp.size()));
}

TEST(FeaturesTest, EmptySignalPanics)
{
    const std::vector<double> empty;
    EXPECT_THROW(featureMax(empty.data(), empty.size()), PanicError);
    EXPECT_THROW(featureMean(empty.data(), empty.size()), PanicError);
    EXPECT_THROW(featureCzero(empty.data(), empty.size()), PanicError);
}

TEST(FeaturesTest, NamesAreUnique)
{
    std::set<std::string> names;
    for (FeatureKind kind : allFeatureKinds)
        names.insert(featureName(kind));
    EXPECT_EQ(names.size(), featureKindCount);
}

/** Invariance properties under shifting and scaling. */
class FeatureInvarianceTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FeatureInvarianceTest, ShiftAndScaleBehaviour)
{
    Rng rng(GetParam());
    std::vector<double> signal(128);
    for (double &v : signal)
        v = rng.gaussian(0.0, 2.0);

    std::vector<double> shifted = signal;
    for (double &v : shifted)
        v += 5.0;
    // Variance is shift-invariant; mean shifts by the offset.
    const size_t n = signal.size();
    EXPECT_NEAR(featureVar(shifted.data(), n),
                featureVar(signal.data(), n), 1e-9);
    EXPECT_NEAR(featureMean(shifted.data(), n),
                featureMean(signal.data(), n) + 5.0, 1e-9);
    // Skew and kurtosis are shift- and scale-invariant.
    std::vector<double> scaled = signal;
    for (double &v : scaled)
        v *= 3.0;
    EXPECT_NEAR(featureSkew(scaled.data(), n),
                featureSkew(signal.data(), n), 1e-9);
    EXPECT_NEAR(featureKurt(scaled.data(), n),
                featureKurt(signal.data(), n), 1e-9);
    // Std scales linearly.
    EXPECT_NEAR(featureStd(scaled.data(), n),
                3.0 * featureStd(signal.data(), n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureInvarianceTest,
                         ::testing::Values(5u, 6u, 7u, 8u));

} // namespace
