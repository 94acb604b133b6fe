/**
 * @file
 * All-fixed-point inference pipeline: what the in-sensor hardware
 * actually computes when every cell of a trained engine runs on the
 * sensor.
 *
 * A TrainedPipeline (double-precision training artifacts) is
 * quantized into Q16.16 form: raw samples are quantized once at the
 * ADC, the DWT bands come from dwt_fixed, every feature from the
 * serial feature cells of hw/cell_sim, the min-max scaler from
 * quantized (min, 1/range) pairs, the base classifiers from FixedSvm
 * and the weighted voting from quantized fusion weights. Tests bound
 * the end-to-end decision disagreement against the double pipeline —
 * the figure of merit for the paper's 32-bit fixed-number design
 * choice (Section 4.4).
 */

#ifndef XPRO_CORE_FIXED_PIPELINE_HH
#define XPRO_CORE_FIXED_PIPELINE_HH

#include <vector>

#include "core/pipeline.hh"
#include "dsp/dwt_fixed.hh"
#include "ml/svm_fixed.hh"

namespace xpro
{

/** Quantized min-max scaler for one feature column. */
struct FixedScalerColumn
{
    Fixed min;
    /** 1 / (max - min); zero for constant columns. */
    Fixed invRange;
};

/** A fully quantized inference pipeline. */
class FixedPipeline
{
  public:
    /** Quantize a trained pipeline. */
    explicit FixedPipeline(const TrainedPipeline &pipeline);

    /** Classify one raw segment entirely on the Q16.16 grid. */
    int classify(const std::vector<double> &segment) const;

    /** The quantized full-pool feature vector of a segment. */
    std::vector<Fixed>
    extractFeatures(const std::vector<double> &segment) const;

    /** Fraction of segments where fixed and double inference agree. */
    static double agreement(const TrainedPipeline &reference,
                            const FixedPipeline &fixed,
                            const SignalDataset &dataset,
                            size_t max_segments = 0);

  private:
    struct FixedBase
    {
        std::vector<size_t> featureIndices;
        FixedSvm model;
    };

    Wavelet _wavelet;
    std::vector<FixedScalerColumn> _scaler;
    std::vector<FixedBase> _bases;
    std::vector<Fixed> _fusionWeights;
    Fixed _fusionBias;
};

} // namespace xpro

#endif // XPRO_CORE_FIXED_PIPELINE_HH
