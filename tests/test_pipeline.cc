/**
 * @file
 * Integration tests: full training pipeline and one-call XPro design
 * on the paper's test cases (scaled-down training budgets).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/pipeline.hh"
#include "data/testcases.hh"

namespace
{

using namespace xpro;

EngineConfig
quickConfig()
{
    EngineConfig config;
    config.subspace.candidates = 15;
    config.subspace.keepFraction = 0.2;
    config.subspace.subspaceDimension = 8;
    return config;
}

TrainingOptions
quickOptions()
{
    TrainingOptions options;
    options.maxTrainingSegments = 100;
    options.seed = 123;
    return options;
}

TEST(PipelineTest, TrainsAboveChanceOnEveryCase)
{
    for (TestCase tc : allTestCases) {
        const SignalDataset dataset = makeTestCase(tc, 5);
        const TrainedPipeline pipeline =
            trainPipeline(dataset, quickConfig(), quickOptions());
        EXPECT_GT(pipeline.testAccuracy, 0.55)
            << testCaseInfo(tc).symbol;
        EXPECT_GT(pipeline.trainCount, 0u);
        EXPECT_GT(pipeline.testCount, 0u);
    }
}

TEST(PipelineTest, EasyCasesReachHighAccuracy)
{
    const SignalDataset dataset = makeTestCase(TestCase::M1, 5);
    const TrainedPipeline pipeline =
        trainPipeline(dataset, quickConfig(), quickOptions());
    EXPECT_GT(pipeline.testAccuracy, 0.9);
}

TEST(PipelineTest, ClassifyMatchesEnsembleOnSegments)
{
    const SignalDataset dataset = makeTestCase(TestCase::C1, 5);
    const TrainedPipeline pipeline =
        trainPipeline(dataset, quickConfig(), quickOptions());
    size_t correct = 0;
    const size_t n = 100;
    for (size_t i = 0; i < n; ++i) {
        correct += pipeline.classify(dataset.segments[i].samples) ==
                   dataset.segments[i].label;
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.7);
}

TEST(PipelineTest, DesignProducesConsistentArtifacts)
{
    const SignalDataset dataset = makeTestCase(TestCase::E1, 5);
    const XProDesign design =
        designXPro(dataset, quickConfig(), quickOptions());

    EXPECT_EQ(design.topology.segmentLength, dataset.segmentLength);
    EXPECT_EQ(design.topology.graph.validate(), "");
    EXPECT_LE(design.partition.delay.total().us(),
              design.partition.delayLimit.us() + 1e-6);
    // Reported energy matches re-evaluating the placement.
    const WirelessLink link(transceiver(design.config.wireless));
    EXPECT_NEAR(design.partition.energy.total().nj(),
                sensorEventEnergy(design.topology,
                                  design.partition.placement, link)
                    .total()
                    .nj(),
                1e-6);
}

TEST(PipelineTest, DesignIsDeterministic)
{
    const SignalDataset dataset = makeTestCase(TestCase::C2, 5);
    const XProDesign a =
        designXPro(dataset, quickConfig(), quickOptions());
    const XProDesign b =
        designXPro(dataset, quickConfig(), quickOptions());
    EXPECT_EQ(a.partition.placement.sensorCellCount(),
              b.partition.placement.sensorCellCount());
    EXPECT_DOUBLE_EQ(a.partition.energy.total().nj(),
                     b.partition.energy.total().nj());
}

TEST(PipelineTest, TinyDatasetIsRejected)
{
    SignalDataset dataset;
    dataset.segments.resize(3);
    EXPECT_THROW(trainPipeline(dataset, quickConfig(), {}),
                 PanicError);
}

TEST(PipelineTest, UntrainableOptionsAreUserErrors)
{
    TrainingOptions options = quickOptions();
    options.maxTrainingSegments = 2;
    EXPECT_NO_THROW(options.validate());
    // One segment cannot train an SVM: a clean fatal() before the
    // feature pass, not the SVM's internal assertion.
    options.maxTrainingSegments = 1;
    EXPECT_THROW(options.validate(), FatalError);
    const SignalDataset dataset = makeTestCase(TestCase::C1, 5);
    EXPECT_THROW(trainPipeline(dataset, quickConfig(), options),
                 FatalError);
    options = quickOptions();
    for (double fraction : {0.0, -0.5, 1.5}) {
        options.trainFraction = fraction;
        EXPECT_THROW(options.validate(), FatalError) << fraction;
    }
}

} // namespace
