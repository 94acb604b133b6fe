#include "hw/cell_sim.hh"

#include "common/logging.hh"

namespace xpro
{

namespace
{

/**
 * A serial S-ALU with op accounting. Every datapath method issues
 * exactly one operation; buffer reads are explicit.
 */
class SerialAluSim
{
  public:
    /** Read one word from the cell's input buffer. */
    Fixed
    load(std::span<const Fixed> buffer, size_t index)
    {
        issue(AluOp::Buf);
        return buffer[index];
    }

    Fixed
    add(Fixed a, Fixed b)
    {
        issue(AluOp::Add);
        return a + b;
    }

    Fixed
    sub(Fixed a, Fixed b)
    {
        issue(AluOp::Add);
        return a - b;
    }

    /** Wide-accumulator add: raw Q16.16 into a 64-bit register. */
    int64_t
    accumulate(int64_t acc, Fixed value)
    {
        issue(AluOp::Add);
        return acc + value.raw();
    }

    /** Wide-accumulator add of a Q32.32 product term,
     *  saturating at the register's limits. */
    int64_t
    accumulateWide(int64_t acc, int64_t term_q32)
    {
        issue(AluOp::Add);
        return Fixed::addWide(acc, term_q32);
    }

    Fixed
    mul(Fixed a, Fixed b)
    {
        issue(AluOp::Mul);
        return a * b;
    }

    /** Full product as Q32.32 (wide multiplier). */
    int64_t
    mulWide(Fixed a, Fixed b)
    {
        issue(AluOp::Mul);
        return static_cast<int64_t>(a.raw()) * b.raw();
    }

    Fixed
    div(Fixed a, Fixed b)
    {
        issue(AluOp::Div);
        return a / b;
    }

    /** Divide a raw-Q16.16 accumulator by a count, to nearest. */
    Fixed
    divAccumulator(int64_t acc_raw, size_t n)
    {
        issue(AluOp::Div);
        return Fixed::fromAccumulator(acc_raw, n);
    }

    /** Divide a Q32.32 accumulator by a count down to Q16.16. */
    Fixed
    divAccumulatorWide(int64_t acc_q32, size_t n)
    {
        issue(AluOp::Div);
        return Fixed::fromQ32(Fixed::roundedQuotient(acc_q32, n));
    }

    Fixed
    sqrt(Fixed a)
    {
        issue(AluOp::Sqrt);
        return a.sqrt();
    }

    bool
    less(Fixed a, Fixed b)
    {
        issue(AluOp::Cmp);
        return a < b;
    }

    bool
    signBit(Fixed a)
    {
        issue(AluOp::Cmp);
        return a.raw() < 0;
    }

    const std::array<size_t, aluOpCount> &ops() const { return _ops; }

  private:
    void issue(AluOp op) { ++_ops[static_cast<size_t>(op)]; }

    std::array<size_t, aluOpCount> _ops{};
};

using Input = std::span<const Fixed>;

Fixed
runMax(SerialAluSim &alu, Input input, bool max)
{
    Fixed best = alu.load(input, 0);
    for (size_t i = 1; i < input.size(); ++i) {
        const Fixed v = alu.load(input, i);
        const bool take = max ? alu.less(best, v) : alu.less(v, best);
        if (take)
            best = v;
    }
    return best;
}

Fixed
runMean(SerialAluSim &alu, Input input)
{
    int64_t acc = 0;
    for (size_t i = 0; i < input.size(); ++i)
        acc = alu.accumulate(acc, alu.load(input, i));
    return alu.divAccumulator(acc, input.size());
}

Fixed
runVarGivenMean(SerialAluSim &alu, Input input, Fixed mu)
{
    int64_t acc_q32 = 0;
    for (size_t i = 0; i < input.size(); ++i) {
        const Fixed v = alu.load(input, i);
        // Q16.16 subtract, then a wide square: the Q32.32 squares
        // sum in the 64-bit register.
        const Fixed d = alu.sub(v, mu);
        acc_q32 = alu.accumulateWide(acc_q32, alu.mulWide(d, d));
    }
    return alu.divAccumulatorWide(acc_q32, input.size());
}

Fixed
runVar(SerialAluSim &alu, Input input)
{
    return runVarGivenMean(alu, input, runMean(alu, input));
}

Fixed
runCzero(SerialAluSim &alu, Input input)
{
    int32_t crossings = 0;
    bool prev_neg = alu.signBit(alu.load(input, 0));
    for (size_t i = 1; i < input.size(); ++i) {
        const bool cur_neg = alu.signBit(alu.load(input, i));
        if (cur_neg != prev_neg) {
            alu.add(Fixed::fromInt(crossings), Fixed::fromInt(1));
            ++crossings;
        }
        prev_neg = cur_neg;
    }
    return Fixed::fromInt(crossings);
}

Fixed
runMoment(SerialAluSim &alu, Input input, bool fourth)
{
    const Fixed mu = runMean(alu, input);
    // sigma via the Var path (reusing mu) plus one sqrt (Fig. 5).
    const Fixed sigma =
        alu.sqrt(runVarGivenMean(alu, input, mu));
    if (sigma.raw() <= 1)
        return Fixed();
    int64_t acc = 0;
    for (size_t i = 0; i < input.size(); ++i) {
        const Fixed v = alu.load(input, i);
        const Fixed z = alu.div(alu.sub(v, mu), sigma);
        Fixed term;
        if (fourth) {
            const Fixed z2 = alu.mul(z, z);
            term = alu.mul(z2, z2);
        } else {
            term = alu.mul(alu.mul(z, z), z);
        }
        acc = alu.accumulateWide(acc, term.raw());
    }
    return alu.divAccumulator(acc, input.size());
}

/** Run the cell program of @p kind, counting its ops into @p alu. */
Fixed
runFeature(SerialAluSim &alu, FeatureKind kind, Input input)
{
    xproAssert(input.size() >= 2, "cell input too short");
    switch (kind) {
      case FeatureKind::Max:   return runMax(alu, input, true);
      case FeatureKind::Min:   return runMax(alu, input, false);
      case FeatureKind::Mean:  return runMean(alu, input);
      case FeatureKind::Var:   return runVar(alu, input);
      // The Std cell reuses the Var cell output and adds one
      // hardware square root (paper Fig. 5).
      case FeatureKind::Std:   return alu.sqrt(runVar(alu, input));
      case FeatureKind::Czero: return runCzero(alu, input);
      case FeatureKind::Skew:  return runMoment(alu, input, false);
      case FeatureKind::Kurt:  return runMoment(alu, input, true);
    }
    panic("unknown feature kind %d", static_cast<int>(kind));
}

} // namespace

Fixed
computeFixedFeature(FeatureKind kind, std::span<const Fixed> input)
{
    SerialAluSim alu;
    return runFeature(alu, kind, input);
}

CellExecution
executeFeatureCell(FeatureKind kind, const std::vector<Fixed> &input,
                   const Technology &tech)
{
    SerialAluSim alu;
    CellExecution execution;
    execution.result = runFeature(alu, kind, input);
    execution.ops = alu.ops();
    for (AluOp op : allAluOps)
        execution.cycles += execution.count(op) * tech.opCycles(op);
    return execution;
}

} // namespace xpro
