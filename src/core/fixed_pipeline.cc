#include "core/fixed_pipeline.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hw/cell_sim.hh"

namespace xpro
{

FixedPipeline::FixedPipeline(const TrainedPipeline &pipeline)
    : _wavelet(pipeline.extractor.wavelet())
{
    xproAssert(pipeline.scaler.fitted(), "pipeline not trained");

    const std::vector<double> &mins = pipeline.scaler.mins();
    const std::vector<double> &maxes = pipeline.scaler.maxes();
    _scaler.reserve(mins.size());
    for (size_t c = 0; c < mins.size(); ++c) {
        FixedScalerColumn column;
        column.min = Fixed::fromDouble(mins[c]);
        const double range = maxes[c] - mins[c];
        column.invRange = range < 1e-12
                              ? Fixed()
                              : Fixed::fromDouble(1.0 / range);
        _scaler.push_back(column);
    }

    for (const BaseClassifier &base : pipeline.ensemble.bases()) {
        FixedBase fixed_base{base.featureIndices,
                             FixedSvm(base.model)};
        _bases.push_back(std::move(fixed_base));
    }
    for (double w : pipeline.ensemble.fusionWeights())
        _fusionWeights.push_back(Fixed::fromDouble(w));
    _fusionBias = Fixed::fromDouble(pipeline.ensemble.fusionBias());
}

std::vector<Fixed>
FixedPipeline::extractFeatures(const std::vector<double> &segment) const
{
    // Quantize at the ADC, frame, and decompose on the fixed grid.
    const std::vector<Fixed> samples = quantizeSignal(segment);
    std::vector<Fixed> frame(dwtFrameLength, Fixed());
    std::copy_n(samples.begin(), std::min(samples.size(), dwtFrameLength),
                frame.begin());
    FixedDwtDecomposition decomp =
        fixedDwtDecompose(frame, _wavelet, dwtLevels);
    // The deepest domain's band is its detail then the approximation.
    decomp.detail.back().insert(decomp.detail.back().end(),
                                decomp.approx.begin(),
                                decomp.approx.end());

    std::vector<Fixed> out(featurePoolSize, Fixed());
    for (size_t d = 0; d < featureDomainCount; ++d) {
        const auto domain = static_cast<FeatureDomain>(d);
        const std::span<const Fixed> signal =
            domain == FeatureDomain::Time
                ? std::span<const Fixed>(samples)
                : decomp.detail[domainLevel(domain) - 1];
        for (FeatureKind kind : allFeatureKinds) {
            out[featureIndex({domain, kind})] =
                computeFixedFeature(kind, signal);
        }
    }
    return out;
}

int
FixedPipeline::classify(const std::vector<double> &segment) const
{
    xproAssert(!_bases.empty(), "pipeline not quantized");
    const std::vector<Fixed> raw = extractFeatures(segment);
    xproAssert(raw.size() == _scaler.size(),
               "feature/scaler size mismatch");

    // Min-max normalization on the fixed grid, clamped to [0, 1].
    std::vector<Fixed> scaled(raw.size());
    const Fixed one = Fixed::fromInt(1);
    for (size_t c = 0; c < raw.size(); ++c) {
        const Fixed value =
            (raw[c] - _scaler[c].min) * _scaler[c].invRange;
        scaled[c] = std::clamp(value, Fixed(), one);
    }

    // Weighted voting over the quantized base decisions.
    Fixed score = _fusionBias;
    for (size_t m = 0; m < _bases.size(); ++m) {
        std::vector<Fixed> projected;
        projected.reserve(_bases[m].featureIndices.size());
        for (size_t idx : _bases[m].featureIndices)
            projected.push_back(scaled[idx]);
        const int vote = _bases[m].model.predict(projected);
        score += _fusionWeights[m] * Fixed::fromInt(vote);
    }
    return score.raw() >= 0 ? 1 : -1;
}

double
FixedPipeline::agreement(const TrainedPipeline &reference,
                         const FixedPipeline &fixed,
                         const SignalDataset &dataset,
                         size_t max_segments)
{
    const size_t n = max_segments > 0
                         ? std::min(max_segments, dataset.size())
                         : dataset.size();
    xproAssert(n > 0, "empty dataset");
    size_t agree = 0;
    for (size_t i = 0; i < n; ++i) {
        const auto &samples = dataset.segments[i].samples;
        agree += reference.classify(samples) ==
                 fixed.classify(samples);
    }
    return static_cast<double>(agree) / static_cast<double>(n);
}

} // namespace xpro
