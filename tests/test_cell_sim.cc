/**
 * @file
 * Tests closing the loop between the serial-cell feature programs
 * and the cost library: measured op/cycle counts must agree with the
 * modeled workloads. The programs' values are checked against the
 * double reference in test_features_fixed and pinned bit for bit by
 * the golden digest in test_fixed_pipeline.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "hw/cell_library.hh"
#include "hw/cell_model.hh"
#include "hw/cell_sim.hh"

namespace
{

using namespace xpro;

const Technology &tech90 = Technology::get(ProcessNode::Tsmc90);

std::vector<Fixed>
randomInput(Rng &rng, size_t n, double amplitude = 1.5)
{
    std::vector<Fixed> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(Fixed::fromDouble(rng.gaussian(0.0, amplitude)));
    return out;
}

TEST(CellSimTest, OpCountsMatchCostLibrary)
{
    Rng rng(1803);
    const size_t n = 128;
    const auto input = randomInput(rng, n);
    for (FeatureKind kind : allFeatureKinds) {
        const CellExecution exec =
            executeFeatureCell(kind, input, tech90);
        const CellWorkload model = featureCellWorkload(kind, n);
        for (AluOp op : allAluOps) {
            const double executed =
                static_cast<double>(exec.count(op));
            const double modeled =
                static_cast<double>(model.count(op));
            // Czero's Add count is data dependent (one increment per
            // crossing); the model uses n/2.
            const double tolerance =
                (kind == FeatureKind::Czero && op == AluOp::Add)
                    ? 0.6 * static_cast<double>(n)
                    : 0.15 * std::max(modeled, 8.0);
            EXPECT_NEAR(executed, modeled, tolerance)
                << featureName(kind) << " " << aluOpName(op);
        }
    }
}

TEST(CellSimTest, CyclesMatchSerialModeModel)
{
    Rng rng(1805);
    const size_t n = 128;
    const auto input = randomInput(rng, n);
    for (FeatureKind kind : allFeatureKinds) {
        const CellExecution exec =
            executeFeatureCell(kind, input, tech90);
        const ModeCosts model = evaluateCellMode(
            featureCellWorkload(kind, n), AluMode::Serial, tech90);
        const double ratio = static_cast<double>(exec.cycles) /
                             static_cast<double>(model.cycles);
        EXPECT_GT(ratio, 0.8) << featureName(kind);
        EXPECT_LT(ratio, 1.25) << featureName(kind);
    }
}

TEST(CellSimTest, MaxMinCountsAreExact)
{
    Rng rng(1807);
    const auto input = randomInput(rng, 100);
    for (FeatureKind kind : {FeatureKind::Max, FeatureKind::Min}) {
        const CellExecution exec =
            executeFeatureCell(kind, input, tech90);
        EXPECT_EQ(exec.count(AluOp::Buf), 100u);
        EXPECT_EQ(exec.count(AluOp::Cmp), 99u);
        EXPECT_EQ(exec.count(AluOp::Mul), 0u);
    }
}

TEST(CellSimTest, StdIssuesExactlyOneSqrt)
{
    Rng rng(1809);
    const auto input = randomInput(rng, 64);
    const CellExecution exec =
        executeFeatureCell(FeatureKind::Std, input, tech90);
    EXPECT_EQ(exec.count(AluOp::Sqrt), 1u);
}

TEST(CellSimTest, CyclesScaleWithInputLength)
{
    Rng rng(1811);
    const auto short_input = randomInput(rng, 32);
    const auto long_input = randomInput(rng, 128);
    for (FeatureKind kind : allFeatureKinds) {
        const size_t short_cycles =
            executeFeatureCell(kind, short_input, tech90).cycles;
        const size_t long_cycles =
            executeFeatureCell(kind, long_input, tech90).cycles;
        EXPECT_GT(long_cycles, 3 * short_cycles)
            << featureName(kind);
    }
}

TEST(CellSimTest, TooShortInputPanics)
{
    const std::vector<Fixed> one(1, Fixed());
    EXPECT_THROW(executeFeatureCell(FeatureKind::Max, one, tech90),
                 PanicError);
}

} // namespace
