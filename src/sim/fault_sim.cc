#include "sim/fault_sim.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "graph/dataflow_graph.hh"
#include "obs/stats_registry.hh"

namespace xpro
{

namespace
{

// Stable scope: losses are drawn from the seeded channel in a
// deterministic single-threaded order, so attempt/retry/drop counts
// are a pure function of the configuration. Probes are excluded,
// mirroring RobustnessReport.
struct ArqStatIds
{
    StatId attempts, delivered, retries, drops, triesHist;
};

const ArqStatIds &
arqStatIds()
{
    static const ArqStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        return ArqStatIds{
            reg.registerCounter("arq.attempts"),
            reg.registerCounter("arq.delivered"),
            reg.registerCounter("arq.retries"),
            reg.registerCounter("arq.drops"),
            reg.registerHistogram("arq.tries_per_packet")};
    }();
    return ids;
}

} // namespace

ArqMachine::ArqMachine(const FaultProfile &profile,
                       const WirelessLink &link, EventQueue &queue,
                       SensorEnergyBreakdown &sensor,
                       uint32_t attempt_kind)
    : _profile(profile), _loss(profile), _link(link), _queue(queue),
      _sensor(sensor), _attemptKind(attempt_kind)
{
    xproAssert(profile.enabled, "ARQ on a disabled fault profile");
    _stats.enabled = true;
    // Sized once so a longer run never grows it (the fault-path
    // allocation tests compare runs of different lengths).
    _stats.retryHistogram.reserve(profile.arq.maxRetries + 1);
}

uint32_t
ArqMachine::open(ArqPacket packet)
{
    if (packet.isProbe)
        ++_stats.probes;
    else
        ++_stats.packetsOffered;
    uint32_t slot;
    if (_freeSlots.empty()) {
        slot = static_cast<uint32_t>(_slots.size());
        _slots.emplace_back();
    } else {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    }
    Slot &job = _slots[slot];
    job.cost = _link.attempt(packet.payloadBits);
    job.packet = std::move(packet);
    job.attempt = 0;
    return slot;
}

Time
ArqMachine::attempt(uint32_t slot, bool forced)
{
    Slot &job = _slots[slot];
    ++_stats.attempts;
    StatsRegistry::instance().add(arqStatIds().attempts);
    job.lost = forced || _loss.dropPacket(_queue.now());

    // The receiver listens for the data frame on every attempt; the
    // ACK exchange happens only when the frame got through.
    if (job.packet.senderInSensor) {
        _sensor.tx += job.cost.dataTx;
        if (!job.lost)
            _sensor.rx += job.cost.ackRx;
    } else {
        _sensor.rx += job.cost.dataRx;
        if (!job.lost)
            _sensor.tx += job.cost.ackTx;
    }
    return job.lost ? job.cost.dataAirTime
                    : job.cost.dataAirTime + job.cost.ackAirTime;
}

ArqMachine::Outcome
ArqMachine::settle(uint32_t slot, SimEvent *settled)
{
    Slot &job = _slots[slot];
    const bool probe = job.packet.isProbe;
    StatsRegistry &reg = StatsRegistry::instance();
    const ArqStatIds &ids = arqStatIds();
    Outcome outcome;
    if (!job.lost) {
        const size_t retries = job.attempt;
        if (!probe) {
            ++_stats.packetsDelivered;
            if (_stats.retryHistogram.size() <= retries)
                _stats.retryHistogram.resize(retries + 1, 0);
            ++_stats.retryHistogram[retries];
            reg.add(ids.delivered);
            reg.add(ids.retries, retries);
            reg.observe(ids.triesHist, retries + 1);
        }
        outcome = Outcome::Delivered;
    } else if (job.attempt >= _profile.arq.maxRetries) {
        if (!probe) {
            ++_stats.packetsAbandoned;
            reg.add(ids.drops);
            reg.add(ids.retries, job.attempt);
            reg.observe(ids.triesHist, job.attempt + 1);
        }
        outcome = Outcome::Abandoned;
    } else {
        const Time wait = _profile.arq.backoff(job.attempt);
        ++job.attempt;
        _queue.scheduleAfter(wait, {_attemptKind, slot});
        return Outcome::Retry;
    }
    *settled = job.packet.onSettled;
    _freeSlots.push_back(slot);
    return outcome;
}

LocalFallbackPlanner::LocalFallbackPlanner(
    const EngineTopology &topology, const Placement &placement)
    : _topology(&topology), _placement(&placement),
      _order(topology.graph.topologicalOrder()),
      _avail(topology.graph.nodeCount())
{}

LocalFallback
LocalFallbackPlanner::plan(
    std::span<const std::optional<Time>> sensor_finish_at, Time at)
{
    const DataflowGraph &graph = _topology->graph;
    xproAssert(sensor_finish_at.size() == graph.nodeCount(),
               "finish-time vector has %zu entries for %zu nodes",
               sensor_finish_at.size(), graph.nodeCount());
    xproAssert(sensor_finish_at[DataflowGraph::sourceId].has_value(),
               "raw segment not yet acquired at fallback time");

    LocalFallback plan;
    for (size_t v : _order) {
        if (sensor_finish_at[v].has_value()) {
            // Output already produced (or in flight) in-sensor:
            // reuse it, charging nothing.
            xproAssert(v == DataflowGraph::sourceId ||
                           _placement->inSensor(v),
                       "cell '%s' finished in-sensor but is placed "
                       "in the aggregator",
                       graph.node(v).name.c_str());
            _avail[v] = std::max(*sensor_finish_at[v], at);
            continue;
        }
        Time ready = at;
        for (size_t u : graph.predecessors(v))
            ready = std::max(ready, _avail[u]);
        const CellCosts &costs = graph.node(v).costs;
        _avail[v] = ready + costs.sensorDelay;
        plan.compute += costs.sensorEnergy;
        ++plan.recomputedCells;
    }
    plan.completion = _avail[_topology->fusionNode];
    return plan;
}

} // namespace xpro
