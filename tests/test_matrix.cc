/**
 * @file
 * Unit tests for ridge least squares (the fusion-weight solver).
 * Square nonsingular systems with ridge 0 check the elimination
 * itself: their least-squares solution is the exact solution.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/matrix.hh"
#include "common/random.hh"

namespace
{

using xpro::FlatMatrix;
using xpro::ridgeLeastSquares;

/** b = A x. */
std::vector<double>
multiply(const FlatMatrix &a, const std::vector<double> &x)
{
    std::vector<double> b(a.size(), 0.0);
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            b[i] += a[i][j] * x[j];
    return b;
}

double
distance(const std::vector<double> &a, const std::vector<double> &b)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(sum);
}

TEST(MatrixTest, SolveDiagonal)
{
    const FlatMatrix a{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}};
    const std::vector<double> x =
        ridgeLeastSquares(a, {2.0, 4.0, 6.0});
    ASSERT_EQ(x.size(), 3u);
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
    EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(MatrixTest, SolveRequiresPivoting)
{
    // Normal matrix [[1, 3], [3, 10]]: the larger entry below the
    // first pivot forces a row swap.
    const FlatMatrix a{{1, 3}, {0, 1}};
    const std::vector<double> x = ridgeLeastSquares(a, {16.0, 3.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(MatrixTest, SolveSingularIsFatal)
{
    const FlatMatrix a{{1, 1}, {1, 1}}; // rank one
    EXPECT_THROW(ridgeLeastSquares(a, {1.0, 2.0}), xpro::FatalError);
}

TEST(MatrixTest, SolveRandomSystems)
{
    xpro::Rng rng(101);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t n = 1 + trial % 8;
        FlatMatrix a(n, n);
        for (size_t i = 0; i < n; ++i) {
            double *row = a.rowData(i);
            for (size_t j = 0; j < n; ++j)
                row[j] = rng.uniform(-1.0, 1.0);
            row[i] += 3.0; // Diagonally dominant => nonsingular.
        }
        std::vector<double> x_true(n);
        for (size_t i = 0; i < n; ++i)
            x_true[i] = rng.uniform(-5.0, 5.0);
        const std::vector<double> x =
            ridgeLeastSquares(a, multiply(a, x_true));
        EXPECT_NEAR(distance(x, x_true), 0.0, 1e-9);
    }
}

TEST(MatrixTest, LeastSquaresRecoverExactSolution)
{
    // Overdetermined but consistent system.
    const FlatMatrix a{{1, 0}, {0, 1}, {1, 1}, {2, -1}};
    const std::vector<double> x_true = {2.0, -3.0};
    const std::vector<double> x =
        ridgeLeastSquares(a, multiply(a, x_true));
    EXPECT_NEAR(distance(x, x_true), 0.0, 1e-9);
}

TEST(MatrixTest, LeastSquaresMinimizesResidual)
{
    // Inconsistent system: fit y = w * x through three points.
    const FlatMatrix a{{1}, {2}, {3}};
    const std::vector<double> x = ridgeLeastSquares(a, {1.1, 1.9, 3.2});
    // Closed form: w = sum(x*y) / sum(x*x).
    const double expected = (1 * 1.1 + 2 * 1.9 + 3 * 3.2) / 14.0;
    EXPECT_NEAR(x[0], expected, 1e-12);
}

TEST(MatrixTest, RidgeShrinksSolution)
{
    const FlatMatrix a{{1, 0}, {0, 1}};
    const std::vector<double> plain = ridgeLeastSquares(a, {1.0, 1.0});
    const std::vector<double> ridge =
        ridgeLeastSquares(a, {1.0, 1.0}, 1.0);
    EXPECT_NEAR(plain[0], 1.0, 1e-12);
    EXPECT_NEAR(ridge[0], 0.5, 1e-12);
}

TEST(MatrixTest, RowTargetMismatchPanics)
{
    const FlatMatrix a{{1, 0}, {0, 1}};
    EXPECT_THROW(ridgeLeastSquares(a, {1.0}), xpro::PanicError);
}

} // namespace
