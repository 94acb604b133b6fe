/**
 * @file
 * Incremental battery discharge model for variable loads.
 *
 * The closed-form Battery::lifetime() assumes a constant load; real
 * wearables alternate monitoring intensities (exercise vs. sleep,
 * duty-cycled analytics). ChargeTracker drains a state of charge
 * span by span with the same rate-derating behaviour as the analytic
 * model, so variable-duty runs can be played out and cross-checked
 * against the constant-load closed form (a tested equivalence).
 */

#ifndef XPRO_PLATFORM_BATTERY_SIM_HH
#define XPRO_PLATFORM_BATTERY_SIM_HH

#include "platform/battery.hh"

namespace xpro
{

/**
 * Incremental state-of-charge tracker for online control.
 *
 * The runtime controller drains measured window energies as the
 * stream advances and asks for the state of charge at arbitrary
 * (monotone) sim timestamps between drains. Queries extrapolate the
 * latest span's mean power, so the answer is monotonically
 * non-increasing in time, reaches exactly zero at the interpolated
 * depletion instant and stays zero after (the depletion-to-zero edge
 * case is tested). Rate derating matches the analytic model: the
 * usable capacity is the weakest Battery::usableEnergy() over the
 * spans seen so far.
 */
class ChargeTracker
{
  public:
    explicit ChargeTracker(const Battery &battery);

    /**
     * Account @p energy drawn over (now(), at]; the span's mean
     * power feeds the rate derating and becomes the extrapolation
     * basis for later queries. @p at must advance monotonically.
     */
    void drainTo(Time at, Energy energy);

    /** Timestamp of the last drain. */
    Time now() const { return _now; }

    /**
     * State of charge in [0, 1] at @p at >= now(), extrapolating
     * the latest span's mean power past the last drain.
     */
    double stateOfCharge(Time at) const;
    /** State of charge at the last drain timestamp. */
    double stateOfCharge() const { return stateOfCharge(_now); }

    /** True once the tracked consumption hit the usable capacity. */
    bool depleted() const { return _depleted; }

    /**
     * The interpolated instant the charge reached zero. Fatal
     * unless depleted().
     */
    Time depletionTime() const;

    /** Energy drained so far (capped at the usable capacity). */
    Energy consumed() const { return _consumed; }

  private:
    Battery _battery;
    Time _now;
    Energy _consumed;
    /** Mean power of the latest drain span (extrapolation basis). */
    Power _lastPower;
    /** Weakest usable capacity over the spans seen so far. */
    Energy _limit;
    bool _depleted = false;
    Time _diedAt;
};

} // namespace xpro

#endif // XPRO_PLATFORM_BATTERY_SIM_HH
