/**
 * @file
 * Fixed-point (Q16.16) RBF-SVM inference — the datapath of the
 * in-sensor SVM cells.
 *
 * A trained double-precision Svm is quantized (support vectors,
 * weights, bias, gamma) and evaluated entirely on the Q16.16 grid:
 * squared distances accumulate in a wide register, and the RBF
 * kernel's e^-t is computed with the shift-and-polynomial scheme an
 * S-ALU "super computation" unit implements (range reduction to
 * 2^-f on [0,1) plus a cubic polynomial). Together with dwt_fixed
 * and the feature cells of hw/cell_sim this closes the
 * hardware-faithful inference path end to end; tests bound the
 * decision disagreement against the double model.
 */

#ifndef XPRO_ML_SVM_FIXED_HH
#define XPRO_ML_SVM_FIXED_HH

#include <vector>

#include "common/fixed_point.hh"
#include "ml/svm.hh"

namespace xpro
{

/**
 * e^-t on the Q16.16 grid for t >= 0 (negative inputs are clamped
 * to 0, i.e. return 1.0). Accuracy is a few 1e-4 across the useful
 * range; inputs beyond ~22 underflow to 0 exactly like the hardware
 * unit.
 */
Fixed fixedExpNeg(Fixed t);

/** A quantized RBF-SVM ready for fixed-point inference. */
class FixedSvm
{
  public:
    /** Quantize a trained double-precision model. */
    explicit FixedSvm(const Svm &model);

    /** Signed decision value on the Q16.16 grid. */
    Fixed decision(const std::vector<Fixed> &x) const;

    /** Predicted label in {-1, +1}. */
    int
    predict(const std::vector<Fixed> &x) const
    {
        return decision(x).raw() >= 0 ? 1 : -1;
    }

    size_t supportVectorCount() const { return _supportVectors.size(); }
    size_t dimension() const { return _dimension; }

  private:
    size_t _dimension;
    Fixed _gamma;
    Fixed _bias;
    std::vector<std::vector<Fixed>> _supportVectors;
    std::vector<Fixed> _weights;
};

} // namespace xpro

#endif // XPRO_ML_SVM_FIXED_HH
