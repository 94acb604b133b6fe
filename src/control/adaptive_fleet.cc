#include "control/adaptive_fleet.hh"

#include "common/logging.hh"
#include "wireless/transceiver.hh"

namespace xpro
{

void
mergeControlReports(ControlReport &fleet, const ControlReport &node)
{
    if (!node.enabled)
        return;
    fleet.enabled = true;
    fleet.windows += node.windows;
    fleet.repartitions += node.repartitions;
    fleet.hysteresisHolds += node.hysteresisHolds;
    fleet.dwellHolds += node.dwellHolds;
    fleet.coldSolves += node.coldSolves;
    fleet.warmSolves += node.warmSolves;
    fleet.handoverTotalUj += node.handoverTotalUj;
    fleet.handoverTotalMs += node.handoverTotalMs;
    fleet.droppedDecisions += node.droppedDecisions;
    fleet.decisions.insert(fleet.decisions.end(),
                           node.decisions.begin(),
                           node.decisions.end());
}

FleetResult
runAdaptiveFleet(const FleetConfig &config,
                 const NonstationaryTrace &trace,
                 const AdaptiveRunConfig &run)
{
    xproAssert(run.control.enabled,
               "adaptive fleet pass with the controller disabled");
    run.validate(trace); // before the design phase, not after
    FleetResult result = runFleet(config);

    ChannelModel channel;
    channel.bitErrorRate = config.bitErrorRate;
    const WirelessLink link(transceiver(config.wireless), channel);

    // Sequential in node order: the decision traces must be
    // byte-identical for any design-phase worker count.
    for (const FleetNodeResult &node : result.nodes) {
        AdaptiveRunConfig node_run = run;
        node_run.sensor.process = node.spec.process;
        const AdaptiveStreamResult adaptive = simulateAdaptiveStream(
            node.design.topology, link, trace, node_run);
        mergeControlReports(result.report.control,
                            adaptive.stream.control);
    }
    return result;
}

} // namespace xpro
