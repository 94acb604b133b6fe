/**
 * @file
 * Tests for the fixed-point RBF-SVM and the end-to-end all-fixed
 * inference pipeline: the e^-t unit's accuracy, decision agreement
 * between the quantized and double-precision SVM, and the headline
 * check that the 32-bit fixed datapath (paper Section 4.4) preserves
 * the classifier's decisions on a real test case.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/fixed_pipeline.hh"
#include "data/testcases.hh"
#include "hw/cell_sim.hh"

namespace
{

using namespace xpro;

/** FNV-1a, 64-bit. */
uint64_t
digest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Append the raw bit patterns of @p values, space separated. */
void
appendRaw(std::string &text, const std::vector<Fixed> &values)
{
    char buf[16];
    for (Fixed v : values) {
        std::snprintf(buf, sizeof(buf), "%d ", v.raw());
        text += buf;
    }
    text += '\n';
}

/** The quantized C1 pipeline the end-to-end agreement check runs. */
struct TrainedCase
{
    SignalDataset dataset;
    TrainedPipeline pipeline;
};

TrainedCase
trainC1()
{
    SignalDataset dataset = makeTestCase(TestCase::C1, 9);
    EngineConfig config;
    config.subspace.candidates = 25;
    config.subspace.keepFraction = 0.2;
    TrainingOptions options;
    options.maxTrainingSegments = 150;
    options.seed = 99;
    TrainedPipeline pipeline = trainPipeline(dataset, config, options);
    return {std::move(dataset), std::move(pipeline)};
}

TEST(FixedExpTest, MatchesDoubleExponential)
{
    for (double t = 0.0; t <= 12.0; t += 0.037) {
        const double expected = std::exp(-t);
        const double got =
            fixedExpNeg(Fixed::fromDouble(t)).toDouble();
        EXPECT_NEAR(got, expected, 4e-4) << "t=" << t;
    }
}

TEST(FixedExpTest, BoundaryBehaviour)
{
    EXPECT_DOUBLE_EQ(fixedExpNeg(Fixed()).toDouble(), 1.0);
    // Negative inputs clamp to e^0.
    EXPECT_DOUBLE_EQ(fixedExpNeg(Fixed::fromDouble(-3.0)).toDouble(),
                     1.0);
    // Deep tail underflows to zero on the Q16.16 grid.
    EXPECT_DOUBLE_EQ(fixedExpNeg(Fixed::fromDouble(30.0)).toDouble(),
                     0.0);
    // Monotone non-increasing along the useful range.
    Fixed previous = Fixed::fromInt(1);
    for (double t = 0.0; t < 16.0; t += 0.25) {
        const Fixed v = fixedExpNeg(Fixed::fromDouble(t));
        EXPECT_LE(v.raw(), previous.raw()) << "t=" << t;
        previous = v;
    }
}

TEST(FixedSvmTest, DecisionsAgreeWithDoubleModel)
{
    Rng rng(2001);
    // Train a double SVM on separable 2-D data.
    LabeledData data;
    for (int i = 0; i < 120; ++i) {
        const bool positive = i % 2 == 0;
        const std::vector<double> row = {
            rng.gaussian(positive ? 0.7 : 0.3, 0.1),
            rng.gaussian(positive ? 0.3 : 0.7, 0.1)};
        data.rows.push_back(row);
        data.labels.push_back(positive ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 2.0};
    config.c = 10.0;
    const Svm model = Svm::train(data, config);
    const FixedSvm fixed(model);
    EXPECT_EQ(fixed.supportVectorCount(),
              model.supportVectorCount());

    size_t agree = 0;
    const size_t n = 500;
    for (size_t i = 0; i < n; ++i) {
        const std::vector<double> x = {rng.uniform(0.0, 1.0),
                                       rng.uniform(0.0, 1.0)};
        const std::vector<Fixed> xq = {Fixed::fromDouble(x[0]),
                                       Fixed::fromDouble(x[1])};
        agree += model.predict(x) == fixed.predict(xq);
    }
    // Disagreements can only occur within a hair of the boundary.
    EXPECT_GT(static_cast<double>(agree) / n, 0.98);
}

TEST(FixedSvmTest, DecisionValuesTrackDoubleModel)
{
    Rng rng(2003);
    LabeledData data;
    for (int i = 0; i < 60; ++i) {
        const bool positive = i % 2 == 0;
        const std::vector<double> row = {
            rng.gaussian(positive ? 0.8 : 0.2, 0.1)};
        data.rows.push_back(row);
        data.labels.push_back(positive ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 1.0};
    const Svm model = Svm::train(data, config);
    const FixedSvm fixed(model);
    for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        const std::vector<double> point = {x};
        EXPECT_NEAR(fixed.decision({Fixed::fromDouble(x)}).toDouble(),
                    model.decision(point), 0.02);
    }
}

TEST(FixedSvmTest, LinearKernelIsRejected)
{
    Rng rng(2005);
    LabeledData data;
    for (int i = 0; i < 20; ++i) {
        const std::vector<double> row = {
            rng.gaussian(i % 2 ? 1.0 : -1.0, 0.2)};
        data.rows.push_back(row);
        data.labels.push_back(i % 2 ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Linear, 0.0};
    const Svm model = Svm::train(data, config);
    EXPECT_THROW(FixedSvm{model}, PanicError);
}

// --- full-scale wide accumulators ---------------------------------

/**
 * The Var cell's value recomputed with the squares summed exactly in
 * 128 bits and saturated once: every term is non-negative, so this
 * is what the saturating running sum must produce.
 */
Fixed
saturatedVarReference(const std::vector<Fixed> &input)
{
    const Fixed mu = computeFixedFeature(FeatureKind::Mean, input);
    __int128 sum = 0;
    for (Fixed v : input) {
        const int64_t d = (v - mu).raw();
        sum += static_cast<__int128>(d) * d;
    }
    const int64_t acc = Fixed::addWide(0, sum);
    return Fixed::fromQ32(Fixed::roundedQuotient(acc, input.size()));
}

/**
 * Full-scale inputs: deviations near 2^31 square to ~2^62, so the
 * second-moment sums leave int64 after a few terms. The wide add
 * saturates instead of overflowing (clean under UBSan), the moments
 * pin at the top of the Q16.16 range, and a mixed-sign full-scale
 * Skew/Kurt run stays defined.
 */
TEST(FixedWideAccumulatorTest, FullScaleMomentsSaturate)
{
    Rng rng(4242);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t n = 2 + rng.below(63);
        std::vector<Fixed> input(n);
        for (Fixed &v : input) {
            const double pick = rng.uniform(0.0, 1.0);
            v = pick < 0.2   ? Fixed::max()
                : pick < 0.4 ? Fixed::min()
                             : Fixed::fromRaw(static_cast<int32_t>(
                                   rng.below(uint64_t{1} << 32) -
                                   (uint64_t{1} << 31)));
        }
        const Fixed var = computeFixedFeature(FeatureKind::Var, input);
        EXPECT_EQ(var, saturatedVarReference(input)) << "trial " << trial;
        EXPECT_GE(var.raw(), 0);
        EXPECT_EQ(computeFixedFeature(FeatureKind::Std, input),
                  var.sqrt());
        EXPECT_GE(computeFixedFeature(FeatureKind::Kurt, input).raw(), 0);
        computeFixedFeature(FeatureKind::Skew, input);
    }
    // Alternating extremes: the sum passes 2^63 after two squares.
    std::vector<Fixed> extremes;
    for (int i = 0; i < 8; ++i)
        extremes.push_back(i % 2 ? Fixed::min() : Fixed::max());
    EXPECT_EQ(computeFixedFeature(FeatureKind::Var, extremes),
              Fixed::max());
}

/**
 * A point at the far end of the Q16.16 range from every support
 * vector: one coordinate's difference squares past int64 on its own.
 * The saturated distance reads as infinitely far, so every kernel
 * term is zero and the decision is exactly the bias.
 */
TEST(FixedWideAccumulatorTest, FullScaleSvmDistanceSaturates)
{
    Rng rng(4243);
    LabeledData data;
    for (int i = 0; i < 40; ++i) {
        const bool positive = i % 2 == 0;
        const std::vector<double> row = {
            rng.gaussian(positive ? 30000.0 : -30000.0, 1.0)};
        data.rows.push_back(row);
        data.labels.push_back(positive ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 1.0};
    const Svm model = Svm::train(data, config);
    const FixedSvm fixed(model);
    const Fixed bias = Fixed::fromDouble(model.bias());
    EXPECT_EQ(fixed.decision({Fixed::max()}), bias);
    EXPECT_EQ(fixed.decision({Fixed::min()}), bias);
}

TEST(FixedPipelineTest, EndToEndAgreementOnRealCase)
{
    // The headline hardware-faithfulness check: quantize a trained
    // pipeline and classify real segments entirely on the Q16.16
    // grid. The paper's 32-bit fixed-number choice must preserve
    // nearly every decision.
    const TrainedCase trained = trainC1();
    const FixedPipeline fixed(trained.pipeline);

    const double agreement = FixedPipeline::agreement(
        trained.pipeline, fixed, trained.dataset, 200);
    EXPECT_GT(agreement, 0.95);
}

/**
 * Golden digests of the whole Q16.16 datapath: every feature value,
 * the serial cell's op and cycle counts, the fixed DWT coefficients
 * and the quantized pipeline's features and decisions. Each section
 * is hashed on its own so a mismatch names the stage that moved.
 * Update a value only for an intended change of the fixed-point
 * arithmetic, never for a refactoring.
 */
TEST(FixedPipelineTest, Q16DatapathMatchesGoldenDigest)
{
    const Technology &tech90 = Technology::get(ProcessNode::Tsmc90);
    std::vector<std::vector<Fixed>> inputs;
    Rng rng(1901);
    for (size_t n : {2, 8, 64, 82, 128, 136}) {
        std::vector<Fixed> input;
        for (size_t i = 0; i < n; ++i)
            input.push_back(Fixed::fromDouble(rng.gaussian(0.0, 1.5)));
        inputs.push_back(std::move(input));
    }
    inputs.emplace_back(64, Fixed::fromDouble(2.0));

    std::string features;
    std::string cells;
    char buf[32];
    for (const std::vector<Fixed> &input : inputs) {
        for (FeatureKind kind : allFeatureKinds) {
            std::snprintf(buf, sizeof(buf), "%d ",
                          computeFixedFeature(kind, input).raw());
            features += buf;
            const CellExecution exec =
                executeFeatureCell(kind, input, tech90);
            for (size_t count : exec.ops) {
                std::snprintf(buf, sizeof(buf), "%zu ", count);
                cells += buf;
            }
            std::snprintf(buf, sizeof(buf), "c%zu\n", exec.cycles);
            cells += buf;
        }
        features += '\n';
    }

    std::string dwt;
    for (Wavelet w : {Wavelet::Haar, Wavelet::Db4}) {
        for (size_t i : {2, 4}) {
            const FixedDwtDecomposition decomp =
                fixedDwtDecompose(inputs[i], w, 5);
            for (const std::vector<Fixed> &band : decomp.detail)
                appendRaw(dwt, band);
            appendRaw(dwt, decomp.approx);
        }
    }

    const TrainedCase trained = trainC1();
    const FixedPipeline fixed(trained.pipeline);
    std::string pipeline;
    for (size_t s = 0; s < 50; ++s) {
        const auto &samples = trained.dataset.segments[s].samples;
        appendRaw(pipeline, fixed.extractFeatures(samples));
        pipeline += fixed.classify(samples) > 0 ? "+\n" : "-\n";
    }

    EXPECT_EQ(digest(features), 0x448eac3fe8f7cc4bULL)
        << "features digest 0x" << std::hex << digest(features);
    EXPECT_EQ(digest(cells), 0xbde64db45885a4c0ULL)
        << "cells digest 0x" << std::hex << digest(cells);
    EXPECT_EQ(digest(dwt), 0xd251c4ff2d1c9c5fULL)
        << "dwt digest 0x" << std::hex << digest(dwt);
    EXPECT_EQ(digest(pipeline), 0xb7363dcbb39e28c2ULL)
        << "pipeline digest 0x" << std::hex << digest(pipeline);
}

TEST(FixedPipelineTest, FixedFeaturesMatchQuantizedReference)
{
    const SignalDataset dataset = makeTestCase(TestCase::E1, 9);
    EngineConfig config;
    config.subspace.candidates = 12;
    config.subspace.keepFraction = 0.25;
    TrainingOptions options;
    options.maxTrainingSegments = 80;
    const TrainedPipeline pipeline =
        trainPipeline(dataset, config, options);
    const FixedPipeline fixed(pipeline);

    // Spot-check: fixed features track the double extractor within
    // quantization error on a few segments.
    for (size_t s = 0; s < 5; ++s) {
        const auto &samples = dataset.segments[s].samples;
        const std::vector<Fixed> fixed_features =
            fixed.extractFeatures(samples);
        const std::vector<double> ref =
            pipeline.extractor.extractAll(samples);
        ASSERT_EQ(fixed_features.size(), ref.size());
        for (size_t c = 0; c < ref.size(); ++c) {
            EXPECT_NEAR(fixed_features[c].toDouble(), ref[c],
                        0.15 * (1.0 + std::fabs(ref[c])))
                << "feature " << featureFullName(featureFromIndex(c));
        }
    }
}

} // namespace
