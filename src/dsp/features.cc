#include "dsp/features.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

const std::string &
featureName(FeatureKind kind)
{
    static const std::array<std::string, featureKindCount> names = {
        "Max", "Min", "Mean", "Var", "Std", "Czero", "Skew", "Kurt",
    };
    return names[static_cast<size_t>(kind)];
}

double
featureMax(const double *signal, size_t n)
{
    xproAssert(n > 0, "feature on empty signal");
    return *std::max_element(signal, signal + n);
}

double
featureMin(const double *signal, size_t n)
{
    xproAssert(n > 0, "feature on empty signal");
    return *std::min_element(signal, signal + n);
}

double
featureMean(const double *signal, size_t n)
{
    xproAssert(n > 0, "feature on empty signal");
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += signal[i];
    return sum / static_cast<double>(n);
}

double
featureVar(const double *signal, size_t n)
{
    const double mu = featureMean(signal, n);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = signal[i] - mu;
        acc += d * d;
    }
    return acc / static_cast<double>(n);
}

double
featureStd(const double *signal, size_t n)
{
    return std::sqrt(featureVar(signal, n));
}

double
featureCzero(const double *signal, size_t n)
{
    xproAssert(n > 0, "feature on empty signal");
    size_t crossings = 0;
    for (size_t i = 1; i < n; ++i) {
        if ((signal[i - 1] < 0.0 && signal[i] >= 0.0) ||
            (signal[i - 1] >= 0.0 && signal[i] < 0.0)) {
            ++crossings;
        }
    }
    return static_cast<double>(crossings);
}

double
featureSkew(const double *signal, size_t n)
{
    const double mu = featureMean(signal, n);
    const double sigma = featureStd(signal, n);
    if (sigma < 1e-12)
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double z = (signal[i] - mu) / sigma;
        acc += z * z * z;
    }
    return acc / static_cast<double>(n);
}

double
featureKurt(const double *signal, size_t n)
{
    const double mu = featureMean(signal, n);
    const double sigma = featureStd(signal, n);
    if (sigma < 1e-12)
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double z = (signal[i] - mu) / sigma;
        acc += z * z * z * z;
    }
    return acc / static_cast<double>(n);
}

void
computeAllKindsInto(const double *signal, size_t n, double *out)
{
    xproAssert(n > 0, "feature on empty signal");

    // Shared moments, each produced by the exact loop the per-kind
    // reference runs, so every downstream reuse is bit-identical.
    const double mu = featureMean(signal, n);
    double m2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = signal[i] - mu;
        m2 += d * d;
    }
    const double var = m2 / static_cast<double>(n);
    const double sigma = std::sqrt(var);

    double skew = 0.0;
    double kurt = 0.0;
    if (sigma >= 1e-12) {
        // featureSkew()/featureKurt() each divide every sample by
        // sigma in their own serial loop; here one vectorized
        // z-score pass feeds both. Division is exactly rounded, so
        // the block-computed z values equal the scalar ones; the
        // accumulations stay serial left-to-right with the
        // reference association (z*z)*z and ((z*z)*z)*z.
        double z[64];
        double acc3 = 0.0;
        double acc4 = 0.0;
        for (size_t start = 0; start < n; start += 64) {
            const size_t m = std::min<size_t>(64, n - start);
            simdZScore(z, signal + start, mu, sigma, m);
            for (size_t j = 0; j < m; ++j) {
                const double z3 = z[j] * z[j] * z[j];
                acc3 += z3;
                acc4 += z3 * z[j];
            }
        }
        skew = acc3 / static_cast<double>(n);
        kurt = acc4 / static_cast<double>(n);
    }

    out[static_cast<size_t>(FeatureKind::Max)] = featureMax(signal, n);
    out[static_cast<size_t>(FeatureKind::Min)] = featureMin(signal, n);
    out[static_cast<size_t>(FeatureKind::Mean)] = mu;
    out[static_cast<size_t>(FeatureKind::Var)] = var;
    out[static_cast<size_t>(FeatureKind::Std)] = sigma;
    out[static_cast<size_t>(FeatureKind::Czero)] =
        featureCzero(signal, n);
    out[static_cast<size_t>(FeatureKind::Skew)] = skew;
    out[static_cast<size_t>(FeatureKind::Kurt)] = kurt;
}

void
computeAllKindsPacked(const double *packed, size_t n, size_t lanes,
                      double *out, size_t outStride)
{
    xproAssert(n > 0, "feature on empty signal");
    xproAssert(lanes >= 1 && lanes <= simdPackWidth,
               "bad lane count %zu", lanes);

    double mx[simdPackWidth], mn[simdPackWidth], sum[simdPackWidth];
    double mu[simdPackWidth], var[simdPackWidth];
    double sigma[simdPackWidth], safe[simdPackWidth];
    double varAcc[simdPackWidth], cz[simdPackWidth];
    double acc3[simdPackWidth], acc4[simdPackWidth];

    simdMaxMinSumPacked(packed, n, mx, mn, sum);
    for (size_t j = 0; j < simdPackWidth; ++j)
        mu[j] = sum[j] / static_cast<double>(n);
    simdCenteredSquareSumPacked(packed, n, mu, varAcc);
    for (size_t j = 0; j < simdPackWidth; ++j) {
        var[j] = varAcc[j] / static_cast<double>(n);
        sigma[j] = std::sqrt(var[j]);
        // Degenerate lanes (and the zero padding lanes) divide by
        // 1.0 in the moment pass; their skew/kurtosis are forced to
        // the reference 0.0 below.
        safe[j] = sigma[j] < 1e-12 ? 1.0 : sigma[j];
    }
    simdSignCrossingsPacked(packed, n, cz);
    simdMoment34Packed(packed, n, mu, safe, acc3, acc4);

    for (size_t j = 0; j < lanes; ++j) {
        double *o = out + j * outStride;
        o[static_cast<size_t>(FeatureKind::Max)] = mx[j];
        o[static_cast<size_t>(FeatureKind::Min)] = mn[j];
        o[static_cast<size_t>(FeatureKind::Mean)] = mu[j];
        o[static_cast<size_t>(FeatureKind::Var)] = var[j];
        o[static_cast<size_t>(FeatureKind::Std)] = sigma[j];
        o[static_cast<size_t>(FeatureKind::Czero)] = cz[j];
        const bool degenerate = sigma[j] < 1e-12;
        o[static_cast<size_t>(FeatureKind::Skew)] =
            degenerate ? 0.0 : acc3[j] / static_cast<double>(n);
        o[static_cast<size_t>(FeatureKind::Kurt)] =
            degenerate ? 0.0 : acc4[j] / static_cast<double>(n);
    }
}

double
computeFeature(FeatureKind kind, const double *signal, size_t n)
{
    switch (kind) {
      case FeatureKind::Max:   return featureMax(signal, n);
      case FeatureKind::Min:   return featureMin(signal, n);
      case FeatureKind::Mean:  return featureMean(signal, n);
      case FeatureKind::Var:   return featureVar(signal, n);
      case FeatureKind::Std:   return featureStd(signal, n);
      case FeatureKind::Czero: return featureCzero(signal, n);
      case FeatureKind::Skew:  return featureSkew(signal, n);
      case FeatureKind::Kurt:  return featureKurt(signal, n);
    }
    panic("unknown feature kind %d", static_cast<int>(kind));
}

std::array<double, featureKindCount>
computeAllFeatures(const std::vector<double> &signal)
{
    std::array<double, featureKindCount> out{};
    for (size_t i = 0; i < featureKindCount; ++i)
        out[i] = computeFeature(allFeatureKinds[i], signal.data(),
                                signal.size());
    return out;
}

} // namespace xpro
