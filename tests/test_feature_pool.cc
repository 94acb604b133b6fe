/**
 * @file
 * Unit tests for the 48-feature pool, the extractor and the min-max
 * scaler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "dsp/feature_pool.hh"

namespace
{

using namespace xpro;

TEST(FeaturePoolTest, PoolSizeIs48)
{
    EXPECT_EQ(featurePoolSize, 48u);
    EXPECT_EQ(featureDomainCount * featureKindCount, featurePoolSize);
}

TEST(FeaturePoolTest, IndexRoundTrips)
{
    for (size_t i = 0; i < featurePoolSize; ++i) {
        const FeatureId id = featureFromIndex(i);
        EXPECT_EQ(featureIndex(id), i);
    }
}

TEST(FeaturePoolTest, IndexOutOfRangePanics)
{
    EXPECT_THROW(featureFromIndex(featurePoolSize), PanicError);
}

TEST(FeaturePoolTest, FullNamesAreUnique)
{
    std::set<std::string> names;
    for (size_t i = 0; i < featurePoolSize; ++i)
        names.insert(featureFullName(featureFromIndex(i)));
    EXPECT_EQ(names.size(), featurePoolSize);
}

TEST(FeaturePoolTest, DomainLevels)
{
    EXPECT_EQ(domainLevel(FeatureDomain::Time), 0u);
    EXPECT_EQ(domainLevel(FeatureDomain::Dwt1), 1u);
    EXPECT_EQ(domainLevel(FeatureDomain::Dwt5), 5u);
}

TEST(FeaturePoolTest, DomainSignalLengths)
{
    FeatureExtractor extractor;
    Rng rng(81);
    std::vector<double> segment(128);
    for (double &v : segment)
        v = rng.gaussian();

    EXPECT_EQ(extractor.domainSignal(segment, FeatureDomain::Time).size(),
              128u);
    EXPECT_EQ(extractor.domainSignal(segment, FeatureDomain::Dwt1).size(),
              64u);
    EXPECT_EQ(extractor.domainSignal(segment, FeatureDomain::Dwt4).size(),
              8u);
    // Level 5 holds both 4-sample segments (detail + approximation).
    EXPECT_EQ(extractor.domainSignal(segment, FeatureDomain::Dwt5).size(),
              8u);
}

TEST(FeaturePoolTest, ExtractAllMatchesSingleExtract)
{
    FeatureExtractor extractor;
    Rng rng(83);
    std::vector<double> segment(128);
    for (double &v : segment)
        v = rng.gaussian();

    const std::vector<double> all = extractor.extractAll(segment);
    ASSERT_EQ(all.size(), featurePoolSize);
    for (size_t i = 0; i < featurePoolSize; ++i) {
        const FeatureId id = featureFromIndex(i);
        EXPECT_NEAR(all[i], extractor.extract(segment, id), 1e-12)
            << featureFullName(id);
    }
}

TEST(FeaturePoolTest, TimeDomainUsesRawSegmentLength)
{
    // Short segments keep their native length in the time domain
    // (only the DWT path is framed to 128 samples).
    FeatureExtractor extractor;
    std::vector<double> segment(82, 0.0);
    segment[0] = 82.0; // make the mean depend on the divisor
    const double mean = extractor.extract(
        segment, {FeatureDomain::Time, FeatureKind::Mean});
    EXPECT_NEAR(mean, 1.0, 1e-12);
}

TEST(FeaturePoolTest, HaarAndDb4Differ)
{
    Rng rng(85);
    std::vector<double> segment(128);
    for (double &v : segment)
        v = rng.gaussian();
    FeatureExtractor haar(Wavelet::Haar);
    FeatureExtractor db4(Wavelet::Db4);
    const FeatureId var_d1{FeatureDomain::Dwt1, FeatureKind::Var};
    EXPECT_NE(haar.extract(segment, var_d1),
              db4.extract(segment, var_d1));
}

TEST(FeatureScalerTest, MapsToUnitInterval)
{
    FeatureScaler scaler;
    scaler.fit(FlatMatrix{{0.0, 10.0}, {5.0, 20.0}, {10.0, 30.0}});
    const std::vector<double> mid = scaler.transform({5.0, 20.0});
    EXPECT_DOUBLE_EQ(mid[0], 0.5);
    EXPECT_DOUBLE_EQ(mid[1], 0.5);
    const std::vector<double> low = scaler.transform({0.0, 10.0});
    EXPECT_DOUBLE_EQ(low[0], 0.0);
    const std::vector<double> high = scaler.transform({10.0, 30.0});
    EXPECT_DOUBLE_EQ(high[1], 1.0);
}

TEST(FeatureScalerTest, ClampsOutOfRangeTestValues)
{
    FeatureScaler scaler;
    scaler.fit(FlatMatrix{{0.0}, {1.0}});
    EXPECT_DOUBLE_EQ(scaler.transform({-5.0})[0], 0.0);
    EXPECT_DOUBLE_EQ(scaler.transform({5.0})[0], 1.0);
}

TEST(FeatureScalerTest, ConstantColumnMapsToZero)
{
    FeatureScaler scaler;
    scaler.fit(FlatMatrix{{3.0, 1.0}, {3.0, 2.0}});
    EXPECT_DOUBLE_EQ(scaler.transform({3.0, 1.5})[0], 0.0);
}

TEST(FeatureScalerTest, UnfittedTransformPanics)
{
    FeatureScaler scaler;
    EXPECT_THROW(scaler.transform({1.0}), PanicError);
    EXPECT_FALSE(scaler.fitted());
}

TEST(FeatureScalerTest, ColumnMismatchPanics)
{
    FeatureScaler scaler;
    scaler.fit(FlatMatrix{{1.0, 2.0}});
    EXPECT_THROW(scaler.transform({1.0}), PanicError);
}

// Golden feature vector for a deterministic probe signal, captured
// from the scalar extractor. Pins the whole chain — framing, DWT,
// domain slicing, every statistic — against silent numeric drift;
// the SIMD-vs-scalar half of the contract lives in
// test_hotpath_identity.cc.
TEST(FeaturePoolTest, GoldenFeatureVector)
{
    std::vector<double> signal(128);
    for (size_t i = 0; i < 128; ++i)
        signal[i] = std::sin(0.37 * double(i)) +
                    0.5 * std::cos(1.3 * double(i)) +
                    0.01 * double(i);

    const double golden[featurePoolSize] = {
        2.5132217202016442,     -1.3402197431652243,
        0.6812448670379404,     0.75659112872921852,
        0.86982246966218257,    20,
        0.0013319174640767997,  2.2647244580166328,
        0.43584080471586517,    -0.46607753737669633,
        -0.002527368535929728,  0.079889282261902422,
        0.28264692155037247,    52,
        -0.0024818626376288747, 1.6174515284446389,
        1.2428419631132028,     -1.0346456870505429,
        0.025940745297335893,   0.43952233241336891,
        0.66296480480744147,    11,
        0.025288424719681304,   1.9928404326995044,
        1.8251711792592367,     -1.8599147242913734,
        -0.044256987590351703,  1.6800713374224852,
        1.296175658397613,      14,
        0.098608375299362283,   1.5187198480577246,
        2.9691203529724501,     -1.8755822789175975,
        0.96865391294437153,    2.5624340270665917,
        1.6007604527431929,     2,
        -0.41105867330014956,   2.0378515609517445,
        6.8947559134969154,     -1.9770604860330581,
        1.6243920508066312,     7.6275907823482445,
        2.7618093312805367,     1,
        0.6542928959829365,     2.255774236126495,
    };

    const FeatureExtractor extractor(Wavelet::Db4);
    const std::vector<double> feats = extractor.extractAll(signal);
    ASSERT_EQ(feats.size(), featurePoolSize);
    for (size_t f = 0; f < featurePoolSize; ++f)
        EXPECT_EQ(feats[f], golden[f]) << "feature " << f;
}

} // namespace
