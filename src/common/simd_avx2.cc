/**
 * @file
 * AVX2 SIMD backend, isolated in its own translation unit so it can
 * be compiled with -mavx2 while the rest of the build stays on the
 * baseline ISA. simd.cc selects these at load time with
 * __builtin_cpu_supports("avx2"); they are never reached on CPUs
 * without AVX2. Mul + add only — no FMA — so lane arithmetic matches
 * the scalar reference loops bit for bit.
 */

#include "common/simd.hh"

#if XPRO_SIMD_AVX2_AVAILABLE

#include <immintrin.h>

namespace xpro
{
namespace detail
{

void
avx2Axpy(double *dst, const double *src, double c, size_t n)
{
    const __m256d vc = _mm256_set1_pd(c);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_add_pd(
            _mm256_loadu_pd(dst + i),
            _mm256_mul_pd(vc, _mm256_loadu_pd(src + i)));
        _mm256_storeu_pd(dst + i, v);
    }
    for (; i < n; ++i)
        dst[i] += c * src[i];
}

void
avx2DotPacked(const double *a, const double *packed, size_t n,
              double *out)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t k = 0; k < n; ++k) {
        const __m256d ak = _mm256_set1_pd(a[k]);
        const double *col = packed + k * simdPackWidth;
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(ak, _mm256_loadu_pd(col + 0)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(ak, _mm256_loadu_pd(col + 4)));
    }
    _mm256_storeu_pd(out + 0, acc0);
    _mm256_storeu_pd(out + 4, acc1);
}

void
avx2SquaredNormsPacked(const double *packed, size_t n, double *out)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t k = 0; k < n; ++k) {
        const double *col = packed + k * simdPackWidth;
        const __m256d c0 = _mm256_loadu_pd(col + 0);
        const __m256d c1 = _mm256_loadu_pd(col + 4);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(c0, c0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(c1, c1));
    }
    _mm256_storeu_pd(out + 0, acc0);
    _mm256_storeu_pd(out + 4, acc1);
}

void
avx2ZScore(double *dst, const double *src, double mu, double sigma,
           size_t n)
{
    const __m256d vmu = _mm256_set1_pd(mu);
    const __m256d vsigma = _mm256_set1_pd(sigma);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_div_pd(
            _mm256_sub_pd(_mm256_loadu_pd(src + i), vmu), vsigma);
        _mm256_storeu_pd(dst + i, v);
    }
    for (; i < n; ++i)
        dst[i] = (src[i] - mu) / sigma;
}

void
avx2MaxMinSumPacked(const double *packed, size_t n, double *maxOut,
                    double *minOut, double *sumOut)
{
    // _mm256_max_pd(v, acc) keeps acc on ties (including -0.0 vs
    // 0.0), matching std::max_element's strictly-greater update;
    // same for min.
    __m256d mx0 = _mm256_loadu_pd(packed + 0);
    __m256d mx1 = _mm256_loadu_pd(packed + 4);
    __m256d mn0 = mx0, mn1 = mx1;
    __m256d sm0 = _mm256_setzero_pd();
    __m256d sm1 = _mm256_setzero_pd();
    for (size_t i = 0; i < n; ++i) {
        const double *row = packed + i * simdPackWidth;
        const __m256d v0 = _mm256_loadu_pd(row + 0);
        const __m256d v1 = _mm256_loadu_pd(row + 4);
        mx0 = _mm256_max_pd(v0, mx0);
        mx1 = _mm256_max_pd(v1, mx1);
        mn0 = _mm256_min_pd(v0, mn0);
        mn1 = _mm256_min_pd(v1, mn1);
        sm0 = _mm256_add_pd(sm0, v0);
        sm1 = _mm256_add_pd(sm1, v1);
    }
    _mm256_storeu_pd(maxOut + 0, mx0);
    _mm256_storeu_pd(maxOut + 4, mx1);
    _mm256_storeu_pd(minOut + 0, mn0);
    _mm256_storeu_pd(minOut + 4, mn1);
    _mm256_storeu_pd(sumOut + 0, sm0);
    _mm256_storeu_pd(sumOut + 4, sm1);
}

void
avx2CenteredSquareSumPacked(const double *packed, size_t n,
                            const double *mu, double *accOut)
{
    const __m256d mu0 = _mm256_loadu_pd(mu + 0);
    const __m256d mu1 = _mm256_loadu_pd(mu + 4);
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (size_t i = 0; i < n; ++i) {
        const double *row = packed + i * simdPackWidth;
        const __m256d d0 =
            _mm256_sub_pd(_mm256_loadu_pd(row + 0), mu0);
        const __m256d d1 =
            _mm256_sub_pd(_mm256_loadu_pd(row + 4), mu1);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
    }
    _mm256_storeu_pd(accOut + 0, a0);
    _mm256_storeu_pd(accOut + 4, a1);
}

void
avx2SignCrossingsPacked(const double *packed, size_t n, double *out)
{
    // Negative-sample masks XORed across consecutive rows mark sign
    // changes; subtracting the -1/0 lanes from integer counters
    // counts them exactly.
    const __m256d zero = _mm256_setzero_pd();
    __m256i c0 = _mm256_setzero_si256();
    __m256i c1 = _mm256_setzero_si256();
    __m256d p0 =
        _mm256_cmp_pd(_mm256_loadu_pd(packed + 0), zero, _CMP_LT_OQ);
    __m256d p1 =
        _mm256_cmp_pd(_mm256_loadu_pd(packed + 4), zero, _CMP_LT_OQ);
    for (size_t i = 1; i < n; ++i) {
        const double *row = packed + i * simdPackWidth;
        const __m256d q0 = _mm256_cmp_pd(_mm256_loadu_pd(row + 0),
                                         zero, _CMP_LT_OQ);
        const __m256d q1 = _mm256_cmp_pd(_mm256_loadu_pd(row + 4),
                                         zero, _CMP_LT_OQ);
        c0 = _mm256_sub_epi64(
            c0, _mm256_castpd_si256(_mm256_xor_pd(p0, q0)));
        c1 = _mm256_sub_epi64(
            c1, _mm256_castpd_si256(_mm256_xor_pd(p1, q1)));
        p0 = q0;
        p1 = q1;
    }
    long long counts[simdPackWidth];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(counts + 0), c0);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(counts + 4), c1);
    for (size_t j = 0; j < simdPackWidth; ++j)
        out[j] = static_cast<double>(counts[j]);
}

void
avx2Moment34Packed(const double *packed, size_t n, const double *mu,
                   const double *sigma, double *acc3, double *acc4)
{
    const __m256d mu0 = _mm256_loadu_pd(mu + 0);
    const __m256d mu1 = _mm256_loadu_pd(mu + 4);
    const __m256d sg0 = _mm256_loadu_pd(sigma + 0);
    const __m256d sg1 = _mm256_loadu_pd(sigma + 4);
    __m256d a30 = _mm256_setzero_pd();
    __m256d a31 = _mm256_setzero_pd();
    __m256d a40 = _mm256_setzero_pd();
    __m256d a41 = _mm256_setzero_pd();
    for (size_t i = 0; i < n; ++i) {
        const double *row = packed + i * simdPackWidth;
        const __m256d z0 = _mm256_div_pd(
            _mm256_sub_pd(_mm256_loadu_pd(row + 0), mu0), sg0);
        const __m256d z1 = _mm256_div_pd(
            _mm256_sub_pd(_mm256_loadu_pd(row + 4), mu1), sg1);
        const __m256d c0 =
            _mm256_mul_pd(_mm256_mul_pd(z0, z0), z0);
        const __m256d c1 =
            _mm256_mul_pd(_mm256_mul_pd(z1, z1), z1);
        a30 = _mm256_add_pd(a30, c0);
        a31 = _mm256_add_pd(a31, c1);
        a40 = _mm256_add_pd(a40, _mm256_mul_pd(c0, z0));
        a41 = _mm256_add_pd(a41, _mm256_mul_pd(c1, z1));
    }
    _mm256_storeu_pd(acc3 + 0, a30);
    _mm256_storeu_pd(acc3 + 4, a31);
    _mm256_storeu_pd(acc4 + 0, a40);
    _mm256_storeu_pd(acc4 + 4, a41);
}

} // namespace detail
} // namespace xpro

#endif // XPRO_SIMD_AVX2_AVAILABLE
