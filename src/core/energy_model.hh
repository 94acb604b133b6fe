/**
 * @file
 * Per-event energy model of a placed engine (paper Section 3.2.1,
 * Eq. 1-3): the sensor node pays compute energy for its analytic
 * part, transmission energy for every value crossing to the
 * aggregator (the raw segment is sent once if any of its consumers
 * live there), reception energy for values crossing back, and the
 * final result transfer when the fusion cell sits in the sensor.
 *
 * The s-t graph of the Automatic XPro Generator is constructed from
 * exactly these terms, so a cut's capacity equals the sensor energy
 * computed here (a tested invariant).
 */

#ifndef XPRO_CORE_ENERGY_MODEL_HH
#define XPRO_CORE_ENERGY_MODEL_HH

#include <vector>

#include "core/placement.hh"
#include "core/topology.hh"
#include "core/transfers.hh"
#include "wireless/link.hh"

namespace xpro
{

/** Sensor-node per-event energy, by contributor (paper Fig. 11). */
struct SensorEnergyBreakdown
{
    /** Functional-cell computation (Ep). */
    Energy compute;
    /** Wireless transmission (part of Ew). */
    Energy tx;
    /** Wireless reception (part of Ew). */
    Energy rx;

    Energy total() const { return compute + tx + rx; }
    Energy wireless() const { return tx + rx; }
};

/** Aggregator per-event energy (paper Fig. 13). */
struct AggregatorEnergyBreakdown
{
    /** Software execution of the in-aggregator analytic part. */
    Energy compute;
    /** The aggregator radio's rx/tx for the inter-end traffic. */
    Energy radio;

    Energy total() const { return compute + radio; }
};

/** Sensor-node energy of one event under a placement. */
SensorEnergyBreakdown
sensorEventEnergy(const EngineTopology &topology,
                  const Placement &placement, const WirelessLink &link);

/**
 * The same energy, priced through @p groups, which must be
 * broadcastGroups(@p topology): callers that price many placements
 * of one topology build the groups once.
 */
SensorEnergyBreakdown
sensorEventEnergy(const EngineTopology &topology,
                  const std::vector<BroadcastGroup> &groups,
                  const Placement &placement, const WirelessLink &link);

/** Aggregator energy of one event under a placement. */
AggregatorEnergyBreakdown
aggregatorEventEnergy(const EngineTopology &topology,
                      const Placement &placement,
                      const WirelessLink &link);

} // namespace xpro

#endif // XPRO_CORE_ENERGY_MODEL_HH
