#include "core/energy_model.hh"

namespace xpro
{

SensorEnergyBreakdown
sensorEventEnergy(const EngineTopology &topology,
                  const Placement &placement, const WirelessLink &link)
{
    return sensorEventEnergy(topology, broadcastGroups(topology),
                             placement, link);
}

SensorEnergyBreakdown
sensorEventEnergy(const EngineTopology &topology,
                  const std::vector<BroadcastGroup> &groups,
                  const Placement &placement, const WirelessLink &link)
{
    const DataflowGraph &graph = topology.graph;
    SensorEnergyBreakdown out;

    // Compute energy of the in-sensor analytic part.
    for (size_t node = 1; node < graph.nodeCount(); ++node) {
        if (placement.inSensor(node))
            out.compute += graph.node(node).costs.sensorEnergy;
    }

    // Broadcast transfers: each producer payload crosses the link at
    // most once per direction, regardless of fan-out (the paper's
    // "grouped" source-data rule, applied to every producer).
    for (const BroadcastGroup &group : groups) {
        bool consumer_in_sensor = false;
        bool consumer_in_aggregator = false;
        for (size_t v : group.consumers) {
            if (placement.inSensor(v))
                consumer_in_sensor = true;
            else
                consumer_in_aggregator = true;
        }
        if (placement.inSensor(group.producer)) {
            if (consumer_in_aggregator)
                out.tx += link.transfer(group.bits).txEnergy;
        } else if (consumer_in_sensor) {
            out.rx += link.transfer(group.bits).rxEnergy;
        }
    }

    // The classification result always ends at the aggregator.
    if (placement.inSensor(topology.fusionNode)) {
        out.tx +=
            link.transfer(EngineTopology::resultBits).txEnergy;
    }
    return out;
}

AggregatorEnergyBreakdown
aggregatorEventEnergy(const EngineTopology &topology,
                      const Placement &placement,
                      const WirelessLink &link)
{
    const DataflowGraph &graph = topology.graph;
    AggregatorEnergyBreakdown out;

    for (size_t node = 1; node < graph.nodeCount(); ++node) {
        if (!placement.inSensor(node))
            out.compute += graph.node(node).costs.aggregatorEnergy;
    }

    // The aggregator's radio mirrors the sensor's transfers: it
    // receives what the sensor transmits and transmits what the
    // sensor receives (same transceiver class on both ends).
    for (const BroadcastGroup &group : broadcastGroups(topology)) {
        bool consumer_in_sensor = false;
        bool consumer_in_aggregator = false;
        for (size_t v : group.consumers) {
            if (placement.inSensor(v))
                consumer_in_sensor = true;
            else
                consumer_in_aggregator = true;
        }
        if (placement.inSensor(group.producer)) {
            if (consumer_in_aggregator)
                out.radio += link.transfer(group.bits).rxEnergy;
        } else if (consumer_in_sensor) {
            out.radio += link.transfer(group.bits).txEnergy;
        }
    }
    if (placement.inSensor(topology.fusionNode)) {
        out.radio +=
            link.transfer(EngineTopology::resultBits).rxEnergy;
    }
    return out;
}

} // namespace xpro
