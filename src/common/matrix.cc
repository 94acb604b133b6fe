#include "common/matrix.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

FlatMatrix::FlatMatrix(size_t rows, size_t cols, double fill)
    : _rows(rows), _cols(cols), _data(rows * cols, fill)
{
}

FlatMatrix::FlatMatrix(
    std::initializer_list<std::initializer_list<double>> rows)
{
    for (const auto &row : rows)
        push_back(RowView(row.begin(), row.size()));
}

void
FlatMatrix::push_back(RowView row)
{
    if (_rows == 0 && _cols == 0) {
        _cols = row.size();
    } else {
        xproAssert(row.size() == _cols,
                   "row length %zu does not match matrix width %zu",
                   row.size(), _cols);
    }
    _data.insert(_data.end(), row.begin(), row.end());
    ++_rows;
}

FlatMatrix
FlatMatrix::multiplyTransposed(const FlatMatrix &other) const
{
    if (_rows == 0 || other._rows == 0)
        return FlatMatrix(_rows, other._rows, 0.0);
    xproAssert(_cols == other._cols,
               "shared dimension mismatch in multiplyTransposed: "
               "%zu vs %zu",
               _cols, other._cols);

    FlatMatrix out(_rows, other._rows, 0.0);
    const size_t dims = _cols;
    // Tile over the rows of the right operand: each tile of
    // simdPackWidth right-hand rows is transposed once into the
    // interleaved pack layout, then every left row streams past it
    // through the SIMD multi-dot micro-kernel. Per output the
    // reduction stays serial left-to-right, so results are
    // bit-identical to the scalar dot schedule.
    std::vector<double> packed(dims * simdPackWidth);
    const double *tileRows[simdPackWidth];
    double lane[simdPackWidth];
    for (size_t jb = 0; jb < other._rows; jb += simdPackWidth) {
        const size_t count =
            std::min(simdPackWidth, other._rows - jb);
        for (size_t j = 0; j < count; ++j)
            tileRows[j] = other.rowData(jb + j);
        simdPackRows(tileRows, count, dims, packed.data());
        for (size_t i = 0; i < _rows; ++i) {
            simdDotPacked(rowData(i), packed.data(), dims, lane);
            double *o = out.rowData(i) + jb;
            for (size_t j = 0; j < count; ++j)
                o[j] = lane[j];
        }
    }
    return out;
}

std::vector<double>
FlatMatrix::rowSquaredNorms() const
{
    std::vector<double> norms(_rows);
    std::vector<double> packed(_cols * simdPackWidth);
    const double *tileRows[simdPackWidth];
    double lane[simdPackWidth];
    for (size_t ib = 0; ib < _rows; ib += simdPackWidth) {
        const size_t count = std::min(simdPackWidth, _rows - ib);
        for (size_t i = 0; i < count; ++i)
            tileRows[i] = rowData(ib + i);
        simdPackRows(tileRows, count, _cols, packed.data());
        simdSquaredNormsPacked(packed.data(), _cols, lane);
        for (size_t i = 0; i < count; ++i)
            norms[ib + i] = lane[i];
    }
    return norms;
}

std::vector<double>
ridgeLeastSquares(const FlatMatrix &a, const std::vector<double> &b,
                  double ridge)
{
    xproAssert(a.size() == b.size(),
               "ridgeLeastSquares() has %zu rows but %zu targets",
               a.size(), b.size());
    const size_t n = a.cols();

    // Normal equations (A^T A + ridge I) x = A^T b.
    FlatMatrix normal(n, n, 0.0);
    std::vector<double> rhs(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        double *out = normal.rowData(i);
        for (size_t k = 0; k < a.size(); ++k) {
            const double *row = a.rowData(k);
            const double lhs = row[i];
            if (lhs == 0.0)
                continue;
            for (size_t j = 0; j < n; ++j)
                out[j] += lhs * row[j];
            rhs[i] += lhs * b[k];
        }
        out[i] += ridge;
    }

    // Forward elimination with partial pivoting.
    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        for (size_t r = col + 1; r < n; ++r) {
            if (std::fabs(normal.rowData(r)[col]) >
                std::fabs(normal.rowData(pivot)[col]))
                pivot = r;
        }
        if (std::fabs(normal.rowData(pivot)[col]) < 1e-12)
            fatal("singular system in ridgeLeastSquares at column %zu",
                  col);
        double *top = normal.rowData(col);
        if (pivot != col) {
            std::swap_ranges(top, top + n, normal.rowData(pivot));
            std::swap(rhs[col], rhs[pivot]);
        }

        const double diag = top[col];
        for (size_t r = col + 1; r < n; ++r) {
            double *row = normal.rowData(r);
            const double factor = row[col] / diag;
            if (factor == 0.0)
                continue;
            for (size_t j = col; j < n; ++j)
                row[j] -= factor * top[j];
            rhs[r] -= factor * rhs[col];
        }
    }

    // Back substitution.
    std::vector<double> x(n, 0.0);
    for (size_t i = n; i-- > 0;) {
        const double *row = normal.rowData(i);
        double acc = rhs[i];
        for (size_t j = i + 1; j < n; ++j)
            acc -= row[j] * x[j];
        x[i] = acc / row[i];
    }
    return x;
}

} // namespace xpro
