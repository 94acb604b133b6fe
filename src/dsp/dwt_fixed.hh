/**
 * @file
 * Fixed-point (Q16.16) discrete wavelet transform.
 *
 * This is the datapath the in-sensor DWT cells implement: dwt.hh's
 * filter taps quantized onto the Q16.16 grid, MACs accumulated in a
 * wide (64-bit) register and rounded once per output coefficient
 * (Fixed::fromQ32), exactly like a synthesized MAC unit. Together
 * with the serial feature cells of hw/cell_sim it closes the
 * hardware-faithful path raw samples -> DWT bands -> statistical
 * features, and tests bound the quantization error against the
 * double-precision reference across all five levels.
 */

#ifndef XPRO_DSP_DWT_FIXED_HH
#define XPRO_DSP_DWT_FIXED_HH

#include <vector>

#include "common/fixed_point.hh"
#include "dsp/dwt.hh"

namespace xpro
{

/** Result of a single fixed-point decomposition level. */
struct FixedDwtLevel
{
    std::vector<Fixed> approx;
    std::vector<Fixed> detail;
};

/** Multi-level fixed-point decomposition. */
struct FixedDwtDecomposition
{
    std::vector<std::vector<Fixed>> detail;
    std::vector<Fixed> approx;
};

/** Quantize a double-precision signal onto the Q16.16 grid. */
std::vector<Fixed> quantizeSignal(const std::vector<double> &signal);

/** dwt.hh's analysis filter taps, quantized to Q16.16 once. */
const std::vector<Fixed> &fixedLowPassTaps(Wavelet wavelet);
const std::vector<Fixed> &fixedHighPassTaps(Wavelet wavelet);

/**
 * One analysis step with periodic extension on the Q16.16 grid;
 * input length must be even and >= the filter length.
 */
FixedDwtLevel fixedDwtStep(const std::vector<Fixed> &signal,
                           Wavelet wavelet);

/**
 * Decompose @p signal into @p levels levels. The signal length must
 * be divisible by 2^levels.
 */
FixedDwtDecomposition
fixedDwtDecompose(const std::vector<Fixed> &signal, Wavelet wavelet,
                  size_t levels);

} // namespace xpro

#endif // XPRO_DSP_DWT_FIXED_HH
