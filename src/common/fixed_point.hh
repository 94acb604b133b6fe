/**
 * @file
 * Q16.16 fixed-point arithmetic.
 *
 * The paper's functional cells use "32-bit fixed-number with 16-bit
 * integer and 16-bit decimals" (Section 4.4). This type models that
 * datapath exactly: a signed 32-bit container with 16 fractional
 * bits, saturating arithmetic, and hardware-realistic sqrt and
 * reciprocal so the fixed-point feature cells compute the same values
 * the in-sensor ASIC would.
 */

#ifndef XPRO_COMMON_FIXED_POINT_HH
#define XPRO_COMMON_FIXED_POINT_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace xpro
{

/** Signed Q16.16 saturating fixed-point number. */
class Fixed
{
  public:
    /** Number of fractional bits. */
    static constexpr int fracBits = 16;
    /** Scale factor 2^fracBits. */
    static constexpr int64_t one = int64_t{1} << fracBits;

    constexpr Fixed() : _raw(0) {}

    /** Convert from double, rounding to nearest and saturating. */
    static constexpr Fixed
    fromDouble(double v)
    {
        const double scaled = v * static_cast<double>(one);
        const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
        return Fixed(saturate(static_cast<int64_t>(rounded)));
    }

    /** Convert from an integer value, saturating. */
    static constexpr Fixed
    fromInt(int32_t v)
    {
        return Fixed(saturate(static_cast<int64_t>(v) << fracBits));
    }

    /** Reinterpret a raw Q16.16 bit pattern. */
    static constexpr Fixed fromRaw(int32_t raw) { return Fixed(raw); }

    /**
     * Round a Q32.32 value -- a wide product or MAC sum -- to
     * Q16.16: round half up, then saturate. The half-up carry is the
     * first dropped bit, so a saturated accumulator rounds without
     * overflowing.
     */
    static constexpr Fixed
    fromQ32(int64_t q32)
    {
        const int64_t carry = (q32 >> (fracBits - 1)) & 1;
        return Fixed(saturate((q32 >> fracBits) + carry));
    }

    /**
     * Divide a wide accumulator by a sample count, rounding half away
     * from zero. The quotient keeps the accumulator's format. Rounds
     * from the remainder, so it is defined up to the register's
     * limits.
     */
    static constexpr int64_t
    roundedQuotient(int64_t acc, size_t count)
    {
        const int64_t n = static_cast<int64_t>(count);
        const int64_t quotient = acc / n;
        const int64_t remainder = acc % n;
        if (2 * (remainder < 0 ? -remainder : remainder) < n)
            return quotient;
        return acc >= 0 ? quotient + 1 : quotient - 1;
    }

    /**
     * Read a wide raw-Q16.16 accumulator out as the mean over
     * @p count samples: the rounded quotient, saturated.
     */
    static constexpr Fixed
    fromAccumulator(int64_t acc_raw, size_t count)
    {
        return Fixed(saturate(roundedQuotient(acc_raw, count)));
    }

    /**
     * Wide-accumulator add: @p acc + @p term, saturated to the
     * 64-bit register. The sum is formed in 128 bits, so a term as
     * wide as the square of a full-scale raw difference (up to
     * 2^64) adds with defined behaviour, and a running sum that
     * would leave int64 (a few full-scale Q32.32 squares) pins at
     * the register's limit instead of overflowing.
     */
    static constexpr int64_t
    addWide(int64_t acc, __int128 term)
    {
        const __int128 sum = acc + term;
        if (sum > std::numeric_limits<int64_t>::max())
            return std::numeric_limits<int64_t>::max();
        if (sum < std::numeric_limits<int64_t>::min())
            return std::numeric_limits<int64_t>::min();
        return static_cast<int64_t>(sum);
    }

    /** Largest representable value. */
    static constexpr Fixed
    max()
    {
        return Fixed(std::numeric_limits<int32_t>::max());
    }

    /** Smallest (most negative) representable value. */
    static constexpr Fixed
    min()
    {
        return Fixed(std::numeric_limits<int32_t>::min());
    }

    constexpr int32_t raw() const { return _raw; }

    constexpr double
    toDouble() const
    {
        return static_cast<double>(_raw) / static_cast<double>(one);
    }

    /** Truncate toward negative infinity to an integer. */
    constexpr int32_t
    toInt() const
    {
        return static_cast<int32_t>(_raw >> fracBits);
    }

    constexpr Fixed
    operator+(Fixed o) const
    {
        return Fixed(saturate(static_cast<int64_t>(_raw) + o._raw));
    }

    constexpr Fixed
    operator-(Fixed o) const
    {
        return Fixed(saturate(static_cast<int64_t>(_raw) - o._raw));
    }

    constexpr Fixed operator-() const { return Fixed(saturate(-static_cast<int64_t>(_raw))); }

    constexpr Fixed
    operator*(Fixed o) const
    {
        return fromQ32(static_cast<int64_t>(_raw) * o._raw);
    }

    constexpr Fixed
    operator/(Fixed o) const
    {
        if (o._raw == 0)
            return _raw >= 0 ? max() : min();
        const int64_t num = static_cast<int64_t>(_raw) << fracBits;
        return Fixed(saturate(num / o._raw));
    }

    constexpr Fixed &operator+=(Fixed o) { *this = *this + o; return *this; }
    constexpr Fixed &operator-=(Fixed o) { *this = *this - o; return *this; }
    constexpr Fixed &operator*=(Fixed o) { *this = *this * o; return *this; }
    constexpr Fixed &operator/=(Fixed o) { *this = *this / o; return *this; }

    constexpr auto operator<=>(const Fixed &) const = default;

    /** Absolute value (saturating at the most negative input). */
    constexpr Fixed
    abs() const
    {
        return _raw < 0 ? -*this : *this;
    }

    /**
     * Fixed-point square root of a non-negative value, computed with
     * the non-restoring bit-by-bit algorithm a hardware sqrt unit
     * uses. Negative inputs return zero.
     */
    Fixed sqrt() const;

  private:
    explicit constexpr Fixed(int64_t raw)
        : _raw(static_cast<int32_t>(raw))
    {}

    static constexpr int64_t
    saturate(int64_t v)
    {
        if (v > std::numeric_limits<int32_t>::max())
            return std::numeric_limits<int32_t>::max();
        if (v < std::numeric_limits<int32_t>::min())
            return std::numeric_limits<int32_t>::min();
        return v;
    }

    int32_t _raw;
};

} // namespace xpro

#endif // XPRO_COMMON_FIXED_POINT_HH
