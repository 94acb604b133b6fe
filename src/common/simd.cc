#include "common/simd.hh"

namespace xpro
{

namespace scalar_ref
{

double
dot(const double *a, const double *b, size_t n)
{
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

double
squaredNorm(const double *a, size_t n)
{
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * a[i];
    return acc;
}

void
dotPacked(const double *a, const double *packed, size_t n, double *out)
{
    double acc[simdPackWidth] = {};
    for (size_t k = 0; k < n; ++k) {
        const double ak = a[k];
        const double *col = packed + k * simdPackWidth;
        for (size_t j = 0; j < simdPackWidth; ++j)
            acc[j] += ak * col[j];
    }
    for (size_t j = 0; j < simdPackWidth; ++j)
        out[j] = acc[j];
}

void
squaredNormsPacked(const double *packed, size_t n, double *out)
{
    double acc[simdPackWidth] = {};
    for (size_t k = 0; k < n; ++k) {
        const double *col = packed + k * simdPackWidth;
        for (size_t j = 0; j < simdPackWidth; ++j)
            acc[j] += col[j] * col[j];
    }
    for (size_t j = 0; j < simdPackWidth; ++j)
        out[j] = acc[j];
}

void
axpy(double *dst, const double *src, double c, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] += c * src[i];
}

void
zscore(double *dst, const double *src, double mu, double sigma,
       size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = (src[i] - mu) / sigma;
}

void
maxMinSumPacked(const double *packed, size_t n, double *maxOut,
                double *minOut, double *sumOut)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        double mx = packed[j];
        double mn = packed[j];
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double v = packed[i * simdPackWidth + j];
            if (mx < v)
                mx = v;
            if (v < mn)
                mn = v;
            sum += v;
        }
        maxOut[j] = mx;
        minOut[j] = mn;
        sumOut[j] = sum;
    }
}

void
centeredSquareSumPacked(const double *packed, size_t n,
                        const double *mu, double *accOut)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        double acc = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double d = packed[i * simdPackWidth + j] - mu[j];
            acc += d * d;
        }
        accOut[j] = acc;
    }
}

void
signCrossingsPacked(const double *packed, size_t n, double *out)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        size_t crossings = 0;
        for (size_t i = 1; i < n; ++i) {
            const bool prev =
                packed[(i - 1) * simdPackWidth + j] < 0.0;
            const bool cur = packed[i * simdPackWidth + j] < 0.0;
            crossings += prev != cur;
        }
        out[j] = static_cast<double>(crossings);
    }
}

void
moment34Packed(const double *packed, size_t n, const double *mu,
               const double *sigma, double *acc3, double *acc4)
{
    for (size_t j = 0; j < simdPackWidth; ++j) {
        double a3 = 0.0;
        double a4 = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double z =
                (packed[i * simdPackWidth + j] - mu[j]) / sigma[j];
            const double z3 = z * z * z;
            a3 += z3;
            a4 += z3 * z;
        }
        acc3[j] = a3;
        acc4[j] = a4;
    }
}

} // namespace scalar_ref

namespace
{

struct Backend
{
    const char *name;
    void (*axpy)(double *, const double *, double, size_t);
    void (*dotPacked)(const double *, const double *, size_t,
                      double *);
    void (*squaredNormsPacked)(const double *, size_t, double *);
    void (*zscore)(double *, const double *, double, double, size_t);
    void (*maxMinSumPacked)(const double *, size_t, double *,
                            double *, double *);
    void (*centeredSquareSumPacked)(const double *, size_t,
                                    const double *, double *);
    void (*signCrossingsPacked)(const double *, size_t, double *);
    void (*moment34Packed)(const double *, size_t, const double *,
                           const double *, double *, double *);
};

Backend
pickBackend()
{
#if XPRO_SIMD_AVX2_AVAILABLE
    if (__builtin_cpu_supports("avx2")) {
        return {"avx2", detail::avx2Axpy, detail::avx2DotPacked,
                detail::avx2SquaredNormsPacked, detail::avx2ZScore,
                detail::avx2MaxMinSumPacked,
                detail::avx2CenteredSquareSumPacked,
                detail::avx2SignCrossingsPacked,
                detail::avx2Moment34Packed};
    }
#endif
    return {"scalar", scalar_ref::axpy, scalar_ref::dotPacked,
            scalar_ref::squaredNormsPacked, scalar_ref::zscore,
            scalar_ref::maxMinSumPacked,
            scalar_ref::centeredSquareSumPacked,
            scalar_ref::signCrossingsPacked,
            scalar_ref::moment34Packed};
}

const Backend &
backend()
{
    static const Backend chosen = pickBackend();
    return chosen;
}

} // namespace

const char *
simdBackendName()
{
    return backend().name;
}

void
simdAxpy(double *dst, const double *src, double c, size_t n)
{
    backend().axpy(dst, src, c, n);
}

void
simdDotPacked(const double *a, const double *packed, size_t n,
              double *out)
{
    backend().dotPacked(a, packed, n, out);
}

void
simdSquaredNormsPacked(const double *packed, size_t n, double *out)
{
    backend().squaredNormsPacked(packed, n, out);
}

void
simdZScore(double *dst, const double *src, double mu, double sigma,
           size_t n)
{
    backend().zscore(dst, src, mu, sigma, n);
}

void
simdMaxMinSumPacked(const double *packed, size_t n, double *maxOut,
                    double *minOut, double *sumOut)
{
    backend().maxMinSumPacked(packed, n, maxOut, minOut, sumOut);
}

void
simdCenteredSquareSumPacked(const double *packed, size_t n,
                            const double *mu, double *accOut)
{
    backend().centeredSquareSumPacked(packed, n, mu, accOut);
}

void
simdSignCrossingsPacked(const double *packed, size_t n, double *out)
{
    backend().signCrossingsPacked(packed, n, out);
}

void
simdMoment34Packed(const double *packed, size_t n, const double *mu,
                   const double *sigma, double *acc3, double *acc4)
{
    backend().moment34Packed(packed, n, mu, sigma, acc3, acc4);
}

void
simdPackRows(const double *const *rows, size_t count, size_t n,
             double *packed)
{
    for (size_t k = 0; k < n; ++k) {
        double *col = packed + k * simdPackWidth;
        size_t j = 0;
        for (; j < count; ++j)
            col[j] = rows[j][k];
        for (; j < simdPackWidth; ++j)
            col[j] = 0.0;
    }
}

} // namespace xpro
