/**
 * @file
 * The Q16.16 statistical feature cells, written once as serial-cell
 * programs.
 *
 * Each feature runs op-by-op on a serial S-ALU with the Q16.16
 * datapath of paper Section 4.4 (32-bit fixed numbers, 16 integer /
 * 16 decimal bits), counting every issued operation. Accumulations
 * use wide (64-bit) registers, as a synthesized accumulator would,
 * and round back to Q16.16 at the cell output. The same program
 * serves two callers:
 *
 *  - computeFixedFeature() is the fixed-point feature value the
 *    quantized inference pipeline (core/fixed_pipeline) computes;
 *    tests check it tracks the double reference in dsp/features
 *    within quantization error;
 *  - executeFeatureCell() adds the op and cycle accounting, and
 *    tests check it agrees with the cost library's model
 *    (cell_library.hh) within a small tolerance, so the energy
 *    numbers feeding the generator rest on real programs.
 */

#ifndef XPRO_HW_CELL_SIM_HH
#define XPRO_HW_CELL_SIM_HH

#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "dsp/features.hh"
#include "hw/technology.hh"

namespace xpro
{

/** Operation/cycle accounting of one simulated cell execution. */
struct CellExecution
{
    /** The Q16.16 result the cell produced. */
    Fixed result;
    /** Issued operations by kind. */
    std::array<size_t, aluOpCount> ops{};
    /** Total serial cycles at the 16 MHz cell clock. */
    size_t cycles = 0;

    size_t
    count(AluOp op) const
    {
        return ops[static_cast<size_t>(op)];
    }
};

/**
 * The Q16.16 value of a statistical feature: the result of the
 * feature cell's program on @p input (at least two samples).
 */
Fixed computeFixedFeature(FeatureKind kind,
                          std::span<const Fixed> input);

/**
 * Execute a statistical feature cell on a quantized input segment
 * (at least two samples): the computeFixedFeature() result plus the
 * issued ops and their serial cycles on @p tech.
 */
CellExecution executeFeatureCell(FeatureKind kind,
                                 const std::vector<Fixed> &input,
                                 const Technology &tech);

} // namespace xpro

#endif // XPRO_HW_CELL_SIM_HH
