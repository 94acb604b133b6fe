/**
 * @file
 * Tests for the Q16.16 DWT datapath: quantization error bounds
 * against the double-precision reference across levels, and
 * end-to-end agreement of DWT-domain features computed entirely on
 * the fixed grid.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "dsp/dwt_fixed.hh"
#include "dsp/features.hh"
#include "hw/cell_sim.hh"

namespace
{

using namespace xpro;

std::vector<Fixed>
quantize(const std::vector<double> &signal)
{
    return quantizeSignal(signal);
}

std::vector<double>
toDouble(const std::vector<Fixed> &signal)
{
    std::vector<double> out;
    out.reserve(signal.size());
    for (Fixed v : signal)
        out.push_back(v.toDouble());
    return out;
}

TEST(DwtFixedTest, TapsQuantizeAccurately)
{
    for (Wavelet w : {Wavelet::Haar, Wavelet::Db4}) {
        const auto low = fixedLowPassTaps(w);
        const auto high = fixedHighPassTaps(w);
        EXPECT_EQ(low.size(), w == Wavelet::Haar ? 2u : 4u);
        EXPECT_EQ(high.size(), low.size());
        // QMF relation survives quantization: high[i] = +-low[rev].
        for (size_t i = 0; i < low.size(); ++i) {
            const double sign = (i % 2 == 0) ? 1.0 : -1.0;
            EXPECT_NEAR(high[i].toDouble(),
                        sign * low[low.size() - 1 - i].toDouble(),
                        1e-4);
        }
    }
}

TEST(DwtFixedTest, StepTracksDoubleReference)
{
    Rng rng(1701);
    std::vector<double> signal(64);
    for (double &v : signal)
        v = rng.gaussian(0.0, 2.0);

    for (Wavelet w : {Wavelet::Haar, Wavelet::Db4}) {
        const DwtLevel ref = dwtStep(signal, w);
        const FixedDwtLevel fixed = fixedDwtStep(quantize(signal), w);
        ASSERT_EQ(fixed.approx.size(), ref.approx.size());
        for (size_t i = 0; i < ref.approx.size(); ++i) {
            EXPECT_NEAR(fixed.approx[i].toDouble(), ref.approx[i],
                        1e-3)
                << waveletName(w);
            EXPECT_NEAR(fixed.detail[i].toDouble(), ref.detail[i],
                        1e-3)
                << waveletName(w);
        }
    }
}

TEST(DwtFixedTest, FiveLevelErrorStaysBounded)
{
    // Quantization error accumulates across levels but must stay at
    // the 1e-2 scale after five cascaded MAC stages.
    Rng rng(1703);
    std::vector<double> signal(128);
    for (double &v : signal)
        v = rng.gaussian(0.0, 1.5);

    const DwtDecomposition ref =
        dwtDecompose(signal, Wavelet::Db4, 5);
    const FixedDwtDecomposition fixed =
        fixedDwtDecompose(quantize(signal), Wavelet::Db4, 5);

    ASSERT_EQ(fixed.detail.size(), 5u);
    for (size_t level = 0; level < 5; ++level) {
        ASSERT_EQ(fixed.detail[level].size(),
                  ref.detail[level].size());
        for (size_t i = 0; i < ref.detail[level].size(); ++i) {
            EXPECT_NEAR(fixed.detail[level][i].toDouble(),
                        ref.detail[level][i], 2e-2)
                << "level " << level + 1;
        }
    }
    for (size_t i = 0; i < ref.approx.size(); ++i)
        EXPECT_NEAR(fixed.approx[i].toDouble(), ref.approx[i], 2e-2);
}

TEST(DwtFixedTest, FeaturesOnFixedBandsTrackReference)
{
    // Full hardware path: quantize -> fixed DWT -> fixed features,
    // compared against the all-double path.
    Rng rng(1705);
    std::vector<double> signal(128);
    for (double &v : signal)
        v = rng.gaussian(0.0, 1.0);

    const DwtDecomposition ref =
        dwtDecompose(signal, Wavelet::Db4, 5);
    const FixedDwtDecomposition fixed =
        fixedDwtDecompose(quantize(signal), Wavelet::Db4, 5);

    for (size_t level = 0; level < 3; ++level) {
        const std::vector<double> &band = ref.detail[level];
        const double ref_var = featureVar(band.data(), band.size());
        const double fixed_var =
            computeFixedFeature(FeatureKind::Var, fixed.detail[level])
                .toDouble();
        EXPECT_NEAR(fixed_var, ref_var, 0.05 * (1.0 + ref_var))
            << "level " << level + 1;
        const double ref_max = featureMax(band.data(), band.size());
        EXPECT_NEAR(
            computeFixedFeature(FeatureKind::Max, fixed.detail[level])
                .toDouble(),
            ref_max, 0.02)
            << "level " << level + 1;
    }
}

TEST(DwtFixedTest, HaarStepOfConstantIsExactScaling)
{
    const std::vector<Fixed> flat(8, Fixed::fromDouble(1.0));
    const FixedDwtLevel level = fixedDwtStep(flat, Wavelet::Haar);
    for (Fixed v : level.approx)
        EXPECT_NEAR(v.toDouble(), std::numbers::sqrt2, 1e-4);
    for (Fixed v : level.detail)
        EXPECT_NEAR(v.toDouble(), 0.0, 1e-4);
}

TEST(DwtFixedTest, InvalidInputsPanic)
{
    const std::vector<Fixed> odd(7, Fixed());
    EXPECT_THROW(fixedDwtStep(odd, Wavelet::Haar), PanicError);
    const std::vector<Fixed> bad(100, Fixed());
    EXPECT_THROW(fixedDwtDecompose(bad, Wavelet::Haar, 5),
                 PanicError);
}

TEST(DwtFixedTest, ToDoubleHelperSanity)
{
    // Guard the test helper itself.
    const std::vector<Fixed> v = {Fixed::fromDouble(0.5)};
    EXPECT_NEAR(toDouble(v)[0], 0.5, 1e-4);
}

} // namespace
