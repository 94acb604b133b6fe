/**
 * @file
 * Tests that the Q16.16 feature cells (computeFixedFeature) track the
 * double-precision reference within quantization error, on signals
 * with the dynamic range of normalized biosignals.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "dsp/dwt_fixed.hh"
#include "dsp/features.hh"
#include "hw/cell_sim.hh"

namespace
{

using namespace xpro;

std::vector<double>
randomSignal(Rng &rng, size_t n, double amplitude)
{
    std::vector<double> signal(n);
    for (double &v : signal)
        v = rng.gaussian(0.0, amplitude);
    return signal;
}

TEST(FeaturesFixedTest, QuantizeRoundTrips)
{
    const std::vector<double> signal = {0.5, -1.25, 3.75};
    const std::vector<Fixed> q = quantizeSignal(signal);
    ASSERT_EQ(q.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(q[i].toDouble(), signal[i], 1.0 / 65536.0);
}

TEST(FeaturesFixedTest, MaxMinExactOnGrid)
{
    const std::vector<double> signal = {0.5, -1.5, 2.0, 0.25};
    const auto q = quantizeSignal(signal);
    EXPECT_DOUBLE_EQ(
        computeFixedFeature(FeatureKind::Max, q).toDouble(), 2.0);
    EXPECT_DOUBLE_EQ(
        computeFixedFeature(FeatureKind::Min, q).toDouble(), -1.5);
}

TEST(FeaturesFixedTest, CzeroMatchesReferenceExactly)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const auto signal = randomSignal(rng, 128, 1.0);
        const auto q = quantizeSignal(signal);
        EXPECT_DOUBLE_EQ(
            computeFixedFeature(FeatureKind::Czero, q).toDouble(),
            featureCzero(signal.data(), signal.size()));
    }
}

TEST(FeaturesFixedTest, MeanTracksReference)
{
    Rng rng(33);
    for (int trial = 0; trial < 20; ++trial) {
        const auto signal = randomSignal(rng, 128, 2.0);
        const auto q = quantizeSignal(signal);
        EXPECT_NEAR(computeFixedFeature(FeatureKind::Mean, q).toDouble(),
                    featureMean(signal.data(), signal.size()), 1e-3);
    }
}

TEST(FeaturesFixedTest, VarAndStdTrackReference)
{
    Rng rng(35);
    for (int trial = 0; trial < 20; ++trial) {
        const auto signal = randomSignal(rng, 128, 2.0);
        const auto q = quantizeSignal(signal);
        const double var_ref = featureVar(signal.data(), signal.size());
        EXPECT_NEAR(computeFixedFeature(FeatureKind::Var, q).toDouble(),
                    var_ref, 1e-3 * (1.0 + var_ref));
        EXPECT_NEAR(computeFixedFeature(FeatureKind::Std, q).toDouble(),
                    std::sqrt(var_ref), 1e-2);
    }
}

TEST(FeaturesFixedTest, SkewKurtTrackReference)
{
    Rng rng(37);
    for (int trial = 0; trial < 20; ++trial) {
        const auto signal = randomSignal(rng, 128, 1.0);
        const auto q = quantizeSignal(signal);
        // Division-heavy z-score path accumulates more error.
        EXPECT_NEAR(computeFixedFeature(FeatureKind::Skew, q).toDouble(),
                    featureSkew(signal.data(), signal.size()), 0.05);
        EXPECT_NEAR(computeFixedFeature(FeatureKind::Kurt, q).toDouble(),
                    featureKurt(signal.data(), signal.size()), 0.1);
    }
}

TEST(FeaturesFixedTest, ConstantSignalDegenerates)
{
    const std::vector<Fixed> flat(16, Fixed::fromDouble(3.0));
    EXPECT_EQ(computeFixedFeature(FeatureKind::Var, flat).raw(), 0);
    EXPECT_EQ(computeFixedFeature(FeatureKind::Std, flat).raw(), 0);
    EXPECT_EQ(computeFixedFeature(FeatureKind::Skew, flat).raw(), 0);
    EXPECT_EQ(computeFixedFeature(FeatureKind::Kurt, flat).raw(), 0);
}

TEST(FeaturesFixedTest, StdIsSqrtOfVar)
{
    // The Std cell reuses the Var cell output (paper Fig. 5); verify
    // the composition identity on the fixed grid.
    Rng rng(39);
    for (int trial = 0; trial < 10; ++trial) {
        const auto q = quantizeSignal(randomSignal(rng, 64, 3.0));
        EXPECT_EQ(computeFixedFeature(FeatureKind::Std, q).raw(),
                  computeFixedFeature(FeatureKind::Var, q).sqrt().raw());
    }
}

/** Parameterized sweep across segment lengths used by the 6 cases. */
class FixedFeatureSweepTest
    : public ::testing::TestWithParam<size_t>
{
};

TEST_P(FixedFeatureSweepTest, AllFeaturesTrackReference)
{
    Rng rng(1000 + GetParam());
    const auto signal = randomSignal(rng, GetParam(), 1.5);
    const auto q = quantizeSignal(signal);
    for (FeatureKind kind : allFeatureKinds) {
        const double ref = computeFeature(kind, signal.data(), signal.size());
        const double fixed = computeFixedFeature(kind, q).toDouble();
        EXPECT_NEAR(fixed, ref, 0.1 * (1.0 + std::fabs(ref)))
            << featureName(kind) << " at length " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(SegmentLengths, FixedFeatureSweepTest,
                         ::testing::Values(82, 128, 132, 136));

} // namespace
