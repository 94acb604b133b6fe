#include "ml/svm_fixed.hh"

#include "common/logging.hh"

namespace xpro
{

Fixed
fixedExpNeg(Fixed t)
{
    if (t.raw() <= 0)
        return Fixed::fromInt(1);

    // Range reduction: e^-t = 2^-(t * log2(e)) = 2^-(n + f),
    // n integer, f in [0, 1).
    static const Fixed log2e = Fixed::fromDouble(1.4426950408889634);
    const Fixed u = t * log2e;
    const int32_t n = u.toInt();
    if (n >= 31)
        return Fixed(); // underflows the Q16.16 grid
    const Fixed f = u - Fixed::fromInt(n);

    // 2^-f on [0, 1) via a least-squares cubic (max error ~1e-4):
    //   2^-f ~= 0.99990 - 0.69108 f + 0.23059 f^2 - 0.03951 f^3.
    static const Fixed c0 = Fixed::fromDouble(0.99989874);
    static const Fixed c1 = Fixed::fromDouble(-0.69107711);
    static const Fixed c2 = Fixed::fromDouble(0.23059481);
    static const Fixed c3 = Fixed::fromDouble(-0.03951021);
    const Fixed poly = c0 + f * (c1 + f * (c2 + f * c3));

    // Shift right by the integer part (a barrel shifter in the
    // hardware unit), rounding to nearest.
    if (n == 0)
        return poly;
    const int32_t raw = poly.raw();
    const int32_t shifted =
        (raw + (int32_t{1} << (n - 1))) >> n;
    return Fixed::fromRaw(shifted);
}

FixedSvm::FixedSvm(const Svm &model)
    : _dimension(model.dimension())
{
    xproAssert(model.kernel().kind == KernelKind::Rbf,
               "fixed inference implements the RBF kernel");
    _gamma = Fixed::fromDouble(model.kernel().gamma);
    _bias = Fixed::fromDouble(model.bias());
    _supportVectors.reserve(model.supportVectorCount());
    for (const auto &sv : model.supportVectors()) {
        std::vector<Fixed> q;
        q.reserve(sv.size());
        for (double v : sv)
            q.push_back(Fixed::fromDouble(v));
        _supportVectors.push_back(std::move(q));
    }
    _weights.reserve(model.weights().size());
    for (double w : model.weights())
        _weights.push_back(Fixed::fromDouble(w));
}

Fixed
FixedSvm::decision(const std::vector<Fixed> &x) const
{
    xproAssert(x.size() == _dimension,
               "input dimension %zu, model expects %zu", x.size(),
               _dimension);

    // Accumulate the weighted kernel sum in a wide register and
    // round once at the end, like the fusion adder tree.
    int64_t acc_raw = _bias.raw();
    for (size_t k = 0; k < _supportVectors.size(); ++k) {
        // Squared distance with a saturating wide accumulator
        // (Q32.32). A full-scale difference squares to nearly 2^64,
        // so each square is formed in 128 bits.
        int64_t dist_q32 = 0;
        const std::vector<Fixed> &sv = _supportVectors[k];
        for (size_t d = 0; d < _dimension; ++d) {
            const __int128 diff =
                static_cast<int64_t>(x[d].raw()) - sv[d].raw();
            dist_q32 = Fixed::addWide(dist_q32, diff * diff);
        }
        const Fixed dist = Fixed::fromQ32(dist_q32);

        const Fixed kernel = fixedExpNeg(_gamma * dist);
        acc_raw += (_weights[k] * kernel).raw();
    }
    // A plain sum: read out over a count of one, saturating.
    return Fixed::fromAccumulator(acc_raw, 1);
}

} // namespace xpro
