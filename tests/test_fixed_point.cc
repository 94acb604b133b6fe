/**
 * @file
 * Unit and property tests for the Q16.16 fixed-point type that
 * models the paper's 32-bit in-sensor datapath.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fixed_point.hh"
#include "common/random.hh"

namespace
{

using xpro::Fixed;

constexpr double quantum = 1.0 / 65536.0;

TEST(FixedPointTest, RoundTripSmallValues)
{
    for (double v : {0.0, 1.0, -1.0, 0.5, -0.25, 123.456, -9876.5}) {
        EXPECT_NEAR(Fixed::fromDouble(v).toDouble(), v, quantum)
            << "value " << v;
    }
}

TEST(FixedPointTest, FromIntExact)
{
    EXPECT_EQ(Fixed::fromInt(42).toDouble(), 42.0);
    EXPECT_EQ(Fixed::fromInt(-17).toInt(), -17);
    EXPECT_EQ(Fixed::fromInt(0).raw(), 0);
}

TEST(FixedPointTest, AdditionAndSubtraction)
{
    const Fixed a = Fixed::fromDouble(1.5);
    const Fixed b = Fixed::fromDouble(2.25);
    EXPECT_DOUBLE_EQ((a + b).toDouble(), 3.75);
    EXPECT_DOUBLE_EQ((b - a).toDouble(), 0.75);
    EXPECT_DOUBLE_EQ((-a).toDouble(), -1.5);
}

TEST(FixedPointTest, MultiplicationRounds)
{
    const Fixed a = Fixed::fromDouble(3.0);
    const Fixed b = Fixed::fromDouble(2.5);
    EXPECT_NEAR((a * b).toDouble(), 7.5, quantum);
    const Fixed tiny = Fixed::fromDouble(0.0001);
    EXPECT_NEAR((tiny * tiny).toDouble(), 0.0, quantum);
}

TEST(FixedPointTest, DivisionBasics)
{
    const Fixed a = Fixed::fromDouble(7.5);
    const Fixed b = Fixed::fromDouble(2.5);
    EXPECT_NEAR((a / b).toDouble(), 3.0, quantum);
    EXPECT_NEAR((b / a).toDouble(), 1.0 / 3.0, quantum);
}

TEST(FixedPointTest, DivisionByZeroSaturates)
{
    const Fixed pos = Fixed::fromDouble(5.0);
    const Fixed neg = Fixed::fromDouble(-5.0);
    EXPECT_EQ(pos / Fixed(), Fixed::max());
    EXPECT_EQ(neg / Fixed(), Fixed::min());
}

TEST(FixedPointTest, AdditionSaturates)
{
    const Fixed big = Fixed::fromDouble(32000.0);
    EXPECT_EQ(big + big, Fixed::max());
    EXPECT_EQ((-big) - big, Fixed::min());
}

TEST(FixedPointTest, MultiplicationSaturates)
{
    const Fixed big = Fixed::fromDouble(30000.0);
    EXPECT_EQ(big * big, Fixed::max());
    EXPECT_EQ(big * (-big), Fixed::min());
}

TEST(FixedPointTest, FromDoubleSaturates)
{
    EXPECT_EQ(Fixed::fromDouble(1.0e9), Fixed::max());
    EXPECT_EQ(Fixed::fromDouble(-1.0e9), Fixed::min());
}

TEST(FixedPointTest, AbsoluteValue)
{
    EXPECT_DOUBLE_EQ(Fixed::fromDouble(-3.5).abs().toDouble(), 3.5);
    EXPECT_DOUBLE_EQ(Fixed::fromDouble(3.5).abs().toDouble(), 3.5);
    EXPECT_EQ(Fixed().abs().raw(), 0);
}

TEST(FixedPointTest, Ordering)
{
    EXPECT_LT(Fixed::fromDouble(-1.0), Fixed::fromDouble(1.0));
    EXPECT_LT(Fixed::fromDouble(1.0), Fixed::fromDouble(1.5));
    EXPECT_EQ(Fixed::fromDouble(2.0), Fixed::fromInt(2));
}

TEST(FixedPointTest, SqrtExactSquares)
{
    for (int v : {0, 1, 4, 9, 16, 25, 100, 1024}) {
        const Fixed root = Fixed::fromInt(v).sqrt();
        EXPECT_NEAR(root.toDouble(), std::sqrt(double(v)), 2 * quantum)
            << "sqrt(" << v << ")";
    }
}

TEST(FixedPointTest, SqrtFractionalValues)
{
    EXPECT_NEAR(Fixed::fromDouble(2.0).sqrt().toDouble(),
                std::numbers::sqrt2, 2 * quantum);
    EXPECT_NEAR(Fixed::fromDouble(0.25).sqrt().toDouble(), 0.5,
                2 * quantum);
}

TEST(FixedPointTest, SqrtOfNegativeIsZero)
{
    EXPECT_EQ(Fixed::fromDouble(-4.0).sqrt().raw(), 0);
}

TEST(FixedPointTest, AccumulatorMeanRoundsHalfAwayFromZero)
{
    // Raw Q16.16 sums over a count: ties move away from zero on both
    // sides, anything short of a tie truncates toward the nearest.
    EXPECT_EQ(Fixed::fromAccumulator(5, 2).raw(), 3);
    EXPECT_EQ(Fixed::fromAccumulator(-5, 2).raw(), -3);
    EXPECT_EQ(Fixed::fromAccumulator(-6, 4).raw(), -2);
    EXPECT_EQ(Fixed::fromAccumulator(-5, 4).raw(), -1);
    EXPECT_EQ(Fixed::fromAccumulator(-7, 4).raw(), -2);
    // The quotient keeps a wide accumulator's format unsaturated.
    EXPECT_EQ(Fixed::roundedQuotient(-5, 2), -3);
    EXPECT_EQ(Fixed::roundedQuotient(int64_t{3} << 40, 2),
              int64_t{3} << 39);
}

TEST(FixedPointTest, Q32HalfwayRoundsUp)
{
    const int64_t half = int64_t{1} << 15;
    EXPECT_EQ(Fixed::fromQ32((int64_t{3} << 16) + half).raw(), 4);
    EXPECT_EQ(Fixed::fromQ32((int64_t{3} << 16) + half - 1).raw(), 3);
    // Round half up, not away from zero: -3.5 quanta -> -3.
    EXPECT_EQ(Fixed::fromQ32(-(int64_t{3} << 16) - half).raw(), -3);
    EXPECT_EQ(Fixed::fromQ32(-(int64_t{3} << 16) - half - 1).raw(), -4);
    // The multiplier rounds its Q32.32 product the same way.
    const Fixed a = Fixed::fromRaw(3);
    const Fixed b = Fixed::fromRaw(0x8000 + 0x10000 / 3);
    EXPECT_EQ((a * b).raw(),
              Fixed::fromQ32(int64_t{a.raw()} * b.raw()).raw());
}

TEST(FixedPointTest, WideHelpersSaturate)
{
    const int64_t big = int64_t{1} << 50;
    EXPECT_EQ(Fixed::fromQ32(big), Fixed::max());
    EXPECT_EQ(Fixed::fromQ32(-big), Fixed::min());
    EXPECT_EQ(Fixed::fromAccumulator(big, 1), Fixed::max());
    EXPECT_EQ(Fixed::fromAccumulator(-big, 1), Fixed::min());
    EXPECT_EQ(Fixed::fromAccumulator(big, 128), Fixed::max());
    EXPECT_EQ(Fixed::fromAccumulator(-big, 128), Fixed::min());
    // The extremes themselves pass through unchanged.
    const int64_t top = std::numeric_limits<int32_t>::max();
    const int64_t bottom = std::numeric_limits<int32_t>::min();
    EXPECT_EQ(Fixed::fromQ32(top << 16), Fixed::max());
    EXPECT_EQ(Fixed::fromQ32(bottom * 65536), Fixed::min());
    EXPECT_EQ(Fixed::fromAccumulator(top, 1), Fixed::max());
    EXPECT_EQ(Fixed::fromAccumulator(bottom, 1), Fixed::min());
}

TEST(FixedPointTest, WideAddAndReadoutsAreDefinedAtTheLimits)
{
    const int64_t top = std::numeric_limits<int64_t>::max();
    const int64_t bottom = std::numeric_limits<int64_t>::min();
    EXPECT_EQ(Fixed::addWide(top, 1), top);
    EXPECT_EQ(Fixed::addWide(bottom, -1), bottom);
    EXPECT_EQ(Fixed::addWide(top, -top), 0);
    // The square of a full-scale raw difference (~2^64) in one term.
    const __int128 diff = int64_t{1} << 32;
    EXPECT_EQ(Fixed::addWide(0, diff * diff), top);
    EXPECT_EQ(Fixed::addWide(bottom, diff * diff), top);
    // Saturated accumulators read out without overflowing.
    EXPECT_EQ(Fixed::fromQ32(top), Fixed::max());
    EXPECT_EQ(Fixed::fromQ32(bottom), Fixed::min());
    EXPECT_EQ(Fixed::roundedQuotient(top, 2), int64_t{1} << 62);
    EXPECT_EQ(Fixed::roundedQuotient(bottom, 2), bottom / 2);
    EXPECT_EQ(Fixed::roundedQuotient(bottom, 1), bottom);
    EXPECT_EQ(Fixed::fromAccumulator(top, 3), Fixed::max());
    EXPECT_EQ(Fixed::fromAccumulator(bottom, 3), Fixed::min());
}

/** Property sweep: fixed arithmetic tracks double arithmetic. */
class FixedPointPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FixedPointPropertyTest, ArithmeticTracksDouble)
{
    xpro::Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const double a = rng.uniform(-100.0, 100.0);
        const double b = rng.uniform(-100.0, 100.0);
        const Fixed fa = Fixed::fromDouble(a);
        const Fixed fb = Fixed::fromDouble(b);
        EXPECT_NEAR((fa + fb).toDouble(), a + b, 3 * quantum);
        EXPECT_NEAR((fa - fb).toDouble(), a - b, 3 * quantum);
        // Product error scales with the magnitudes involved.
        EXPECT_NEAR((fa * fb).toDouble(), a * b,
                    (std::fabs(a) + std::fabs(b) + 1.0) * quantum);
    }
}

TEST_P(FixedPointPropertyTest, SqrtSquaredIsIdentity)
{
    xpro::Rng rng(GetParam() + 17);
    for (int i = 0; i < 200; ++i) {
        const double v = rng.uniform(0.0, 1000.0);
        const Fixed f = Fixed::fromDouble(v);
        const Fixed root = f.sqrt();
        EXPECT_NEAR((root * root).toDouble(), v,
                    (2.0 * std::sqrt(v) + 2.0) * quantum)
            << "value " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedPointPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 12345u));

} // namespace
