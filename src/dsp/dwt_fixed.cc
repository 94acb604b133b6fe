#include "dsp/dwt_fixed.hh"

#include "common/logging.hh"

namespace xpro
{

namespace
{

/**
 * One output coefficient: a taps-wide MAC with a 64-bit (Q32.32)
 * accumulator, rounded back to Q16.16 once at the end -- the wide
 * accumulator every synthesized MAC unit provides.
 */
Fixed
macCoefficient(const std::vector<Fixed> &signal, size_t start,
               const std::vector<Fixed> &taps)
{
    int64_t acc_q32 = 0;
    const size_t n = signal.size();
    for (size_t t = 0; t < taps.size(); ++t) {
        const Fixed sample = signal[(start + t) % n];
        acc_q32 += static_cast<int64_t>(sample.raw()) * taps[t].raw();
    }
    return Fixed::fromQ32(acc_q32);
}

} // namespace

std::vector<Fixed>
quantizeSignal(const std::vector<double> &signal)
{
    std::vector<Fixed> out;
    out.reserve(signal.size());
    for (double v : signal)
        out.push_back(Fixed::fromDouble(v));
    return out;
}

const std::vector<Fixed> &
fixedLowPassTaps(Wavelet wavelet)
{
    static const std::vector<Fixed> haar =
        quantizeSignal(lowPassTaps(Wavelet::Haar));
    static const std::vector<Fixed> db4 =
        quantizeSignal(lowPassTaps(Wavelet::Db4));
    return wavelet == Wavelet::Haar ? haar : db4;
}

const std::vector<Fixed> &
fixedHighPassTaps(Wavelet wavelet)
{
    static const std::vector<Fixed> haar =
        quantizeSignal(highPassTaps(Wavelet::Haar));
    static const std::vector<Fixed> db4 =
        quantizeSignal(highPassTaps(Wavelet::Db4));
    return wavelet == Wavelet::Haar ? haar : db4;
}

FixedDwtLevel
fixedDwtStep(const std::vector<Fixed> &signal, Wavelet wavelet)
{
    const std::vector<Fixed> &low = fixedLowPassTaps(wavelet);
    const std::vector<Fixed> &high = fixedHighPassTaps(wavelet);
    const size_t n = signal.size();
    xproAssert(n % 2 == 0, "fixed DWT input length %zu must be even",
               n);
    xproAssert(n >= low.size(), "fixed DWT input shorter than filter");

    FixedDwtLevel out;
    out.approx.reserve(n / 2);
    out.detail.reserve(n / 2);
    for (size_t k = 0; k < n / 2; ++k) {
        out.approx.push_back(macCoefficient(signal, 2 * k, low));
        out.detail.push_back(macCoefficient(signal, 2 * k, high));
    }
    return out;
}

FixedDwtDecomposition
fixedDwtDecompose(const std::vector<Fixed> &signal, Wavelet wavelet,
                  size_t levels)
{
    xproAssert(levels > 0, "need at least one DWT level");
    const size_t divisor = size_t{1} << levels;
    xproAssert(signal.size() % divisor == 0,
               "signal length %zu not divisible by 2^%zu",
               signal.size(), levels);

    FixedDwtDecomposition decomp;
    std::vector<Fixed> current = signal;
    for (size_t level = 0; level < levels; ++level) {
        FixedDwtLevel step = fixedDwtStep(current, wavelet);
        decomp.detail.push_back(std::move(step.detail));
        current = std::move(step.approx);
    }
    decomp.approx = std::move(current);
    return decomp;
}

} // namespace xpro
