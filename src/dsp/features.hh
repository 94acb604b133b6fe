/**
 * @file
 * The eight hardware-friendly statistical features of the generic
 * classification framework (paper Section 2.1): Max, Min, Mean, Var,
 * Std, Czero, Skew and Kurt, computed in double precision. The
 * Q16.16 programs the in-sensor cells run live in hw/cell_sim.hh;
 * tests check both agree within quantization error.
 */

#ifndef XPRO_DSP_FEATURES_HH
#define XPRO_DSP_FEATURES_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace xpro
{

/** The statistical feature set of the generic framework. */
enum class FeatureKind
{
    Max,
    Min,
    Mean,
    Var,
    Std,
    Czero,
    Skew,
    Kurt,
};

/** Number of distinct statistical features. */
constexpr size_t featureKindCount = 8;

/** All feature kinds in a fixed canonical order. */
constexpr std::array<FeatureKind, featureKindCount> allFeatureKinds = {
    FeatureKind::Max,  FeatureKind::Min,  FeatureKind::Mean,
    FeatureKind::Var,  FeatureKind::Std,  FeatureKind::Czero,
    FeatureKind::Skew, FeatureKind::Kurt,
};

/** Short display name, e.g. "Var". */
const std::string &featureName(FeatureKind kind);

/*
 * Each feature takes a pointer span, so the allocation-free serving
 * hot path and vector callers (via data()/size()) share one kernel.
 */

/** Maximal sample value. */
double featureMax(const double *signal, size_t n);
/** Minimal sample value. */
double featureMin(const double *signal, size_t n);
/** Arithmetic mean. */
double featureMean(const double *signal, size_t n);
/** Population variance. */
double featureVar(const double *signal, size_t n);
/** Population standard deviation. */
double featureStd(const double *signal, size_t n);
/** Number of zero crossings (sign changes between samples). */
double featureCzero(const double *signal, size_t n);
/** Skewness E[(x-mu)^3] / sigma^3 (zero for constant signals). */
double featureSkew(const double *signal, size_t n);
/** Kurtosis E[(x-mu)^4] / sigma^4, non-excess form. */
double featureKurt(const double *signal, size_t n);

/**
 * All featureKindCount statistics of one signal, written to
 * @p out[k] in allFeatureKinds order. Bit-identical to calling
 * computeFeature() per kind — every shared moment (mean, variance,
 * sigma) is produced by the same serial loop the per-kind function
 * runs, and the skew/kurtosis accumulations keep the reference
 * association — but in one fused pass set: the mean and variance
 * loops run once instead of being recomputed by Var/Std/Skew/Kurt,
 * and the two per-element z-score division loops collapse into a
 * single vectorized simdZScore() pass (the dominant cost of the
 * serving feature stage). Allocation-free.
 */
void computeAllKindsInto(const double *signal, size_t n, double *out);

/**
 * Cross-event form of computeAllKindsInto(): @p packed holds up to
 * simdPackWidth independent equal-length signals in the interleaved
 * lane layout of simdPackRows() (packed[i * simdPackWidth + j] =
 * sample i of signal j, padding lanes zero-filled), and all
 * featureKindCount statistics of signal j land in
 * out[j * outStride ..] in allFeatureKinds order, for j <
 * @p lanes. Each lane runs the same serial reduction schedule as
 * computeAllKindsInto() on that signal alone — the packed kernels
 * vectorize ACROSS lanes, never within one — so every lane's eight
 * values are bit-identical to the single-signal path. This is where
 * cross-user batching buys its throughput: the loop-carried
 * accumulator chains that bound the per-event path advance
 * simdPackWidth events per trip.
 */
void computeAllKindsPacked(const double *packed, size_t n,
                           size_t lanes, double *out,
                           size_t outStride);

/** Dispatch by kind. */
double computeFeature(FeatureKind kind, const double *signal,
                      size_t n);

/** Compute all eight features in canonical order. */
std::array<double, featureKindCount>
computeAllFeatures(const std::vector<double> &signal);

} // namespace xpro

#endif // XPRO_DSP_FEATURES_HH
