#include "platform/battery_sim.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xpro
{

ChargeTracker::ChargeTracker(const Battery &battery)
    : _battery(battery), _limit(battery.usableEnergy(Power()))
{}

void
ChargeTracker::drainTo(Time at, Energy energy)
{
    xproAssert(at.sec() >= _now.sec(),
               "timestamps must advance (%f < %f s)", at.sec(),
               _now.sec());
    xproAssert(energy.j() >= 0.0, "negative drain");
    const Time span = at - _now;
    if (span.sec() <= 0.0) {
        xproAssert(energy.j() == 0.0,
                   "instantaneous drain of %f J", energy.j());
        return;
    }
    const Power mean = Power::watts(energy.j() / span.sec());
    _limit = std::min(_limit, _battery.usableEnergy(mean));
    if (!_depleted && _consumed + energy >= _limit &&
        energy.j() > 0.0) {
        const double fraction = (_limit - _consumed) / energy;
        _depleted = true;
        _diedAt = _now + span * std::clamp(fraction, 0.0, 1.0);
        _consumed = _limit;
    } else if (!_depleted) {
        _consumed += energy;
    }
    _lastPower = mean;
    _now = at;
}

double
ChargeTracker::stateOfCharge(Time at) const
{
    xproAssert(at.sec() >= _now.sec(),
               "query at %f s precedes the tracker at %f s",
               at.sec(), _now.sec());
    if (_depleted)
        return 0.0;
    const Energy projected =
        _consumed + _lastPower.during(at - _now);
    if (_limit.j() <= 0.0)
        return 0.0;
    return std::clamp(1.0 - projected / _limit, 0.0, 1.0);
}

Time
ChargeTracker::depletionTime() const
{
    if (!_depleted)
        fatal("battery not depleted; no depletion time");
    return _diedAt;
}

} // namespace xpro
