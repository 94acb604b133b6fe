#include "control/adaptive_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "common/logging.hh"

namespace xpro
{

namespace
{

/** Accumulate @p window (scaled counters) into @p total. */
void
mergeRobustness(RobustnessReport &total,
                const RobustnessReport &window)
{
    if (!window.enabled)
        return;
    // Mean recovery is weighted by replayed results across windows.
    const double recovery_mass =
        total.meanRecoveryMs *
            static_cast<double>(total.replayedResults) +
        window.meanRecoveryMs *
            static_cast<double>(window.replayedResults);
    total.enabled = true;
    total.packetsOffered += window.packetsOffered;
    total.packetsDelivered += window.packetsDelivered;
    total.packetsAbandoned += window.packetsAbandoned;
    total.attempts += window.attempts;
    if (window.retryHistogram.size() > total.retryHistogram.size())
        total.retryHistogram.resize(window.retryHistogram.size());
    for (size_t r = 0; r < window.retryHistogram.size(); ++r)
        total.retryHistogram[r] += window.retryHistogram[r];
    total.probes += window.probes;
    total.degradedEvents += window.degradedEvents;
    total.bufferedResults += window.bufferedResults;
    total.replayedResults += window.replayedResults;
    total.outages += window.outages;
    total.outageTimeMs += window.outageTimeMs;
    total.meanRecoveryMs =
        total.replayedResults > 0
            ? recovery_mass /
                  static_cast<double>(total.replayedResults)
            : 0.0;
}

/** Standby power of the in-sensor half of @p placement. */
Power
placementStandby(const EngineTopology &topology,
                 const Placement &placement)
{
    Power standby;
    for (size_t u = 1; u < topology.graph.nodeCount(); ++u) {
        if (placement.inSensor(u))
            standby += topology.graph.node(u).costs.sensorStandby;
    }
    return standby;
}

/**
 * Memo key of one window outcome under a fixed placement. A lossy
 * window's loss sequence is seeded by its schedule slot, so the slot
 * (plus the duty level, which fixes the event count) identifies the
 * outcome. An ideal window has no seed at all — its outcome is a
 * pure function of the offered rate and the sampled event count, so
 * every ideal window at the same operating point shares one entry,
 * which collapses the first trace pass to one simulation per
 * operating point instead of one per window. The rate is compared
 * by its bits: equal bits, equal double.
 */
using WindowKey = std::tuple<bool, uint64_t, uint64_t>;

WindowKey
windowKey(size_t slot, bool ideal, double rate, size_t sampled,
          size_t duty)
{
    if (ideal)
        return {true, std::bit_cast<uint64_t>(rate), sampled};
    return {false, slot, duty};
}

/**
 * The shared window-stepping engine behind the adaptive and static
 * entry points. One instance per run; lifetime loops keep it alive
 * across trace passes so the controller, battery tracker and memo
 * survive.
 */
struct WindowedRun
{
    const EngineTopology &topology;
    const WirelessLink &link;
    const AdaptiveRunConfig &config;
    /** Null for the static variant. */
    CrossEndController *controller = nullptr;
    Placement placement; ///< active placement (frozen when static)
    /** Standby power of `placement`'s in-sensor half (cached —
     *  placements change only at adopted handovers). */
    Power standby;

    ChargeTracker battery;
    Time now;
    /** Handover energy adopted at the previous boundary, charged
     *  with the next window's drain. */
    Energy pendingHandover;
    /** Window outcomes, one table per placement seen. */
    std::map<std::vector<bool>, std::map<WindowKey, StreamResult>>
        memo;
    /** The active placement's table (placements change only at
     *  adopted handovers). */
    std::map<WindowKey, StreamResult> *placementMemo = nullptr;

    // Aggregates across windows.
    StreamResult total;
    Energy batteryEnergy;
    size_t simulatedWindows = 0;
    double latencyMass = 0.0; ///< mean latency weighted by events
    long double deadlineMass = 0.0;
    long double degradedMass = 0.0;

    WindowedRun(const EngineTopology &topo, const WirelessLink &l,
                const AdaptiveRunConfig &cfg)
        : topology(topo), link(l), config(cfg),
          battery(cfg.sensor.battery)
    {}

    /** Install @p next as the active placement. */
    void setPlacement(const Placement &next)
    {
        placement = next;
        standby = placementStandby(topology, placement);
        std::vector<bool> cells(placement.size());
        for (size_t u = 1; u < placement.size(); ++u)
            cells[u] = placement.inSensor(u);
        placementMemo = &memo[std::move(cells)];
    }

    /** Play one control window; returns false once depleted. */
    bool step(size_t slot, const ControlWindow &window);

    /** Fold the weighted latency/miss masses into `total`. */
    void finalize();
};

bool
WindowedRun::step(size_t slot, const ControlWindow &window)
{
    const double duty =
        controller ? controller->dutyFactor() : 1.0;
    const double rate = window.eventsPerSecond * duty;
    const size_t events = static_cast<size_t>(
        std::floor(window.duration.sec() * rate));

    static const StreamResult idle;
    const StreamResult *window_stream = &idle;
    double scale = 1.0;
    size_t sampled = 0;
    if (events > 0) {
        sampled = config.sampleCap > 0
                      ? std::min(events, config.sampleCap)
                      : events;
        scale = static_cast<double>(events) /
                static_cast<double>(sampled);
        const WindowKey key =
            windowKey(slot, window.idealChannel(), rate, sampled,
                      controller ? controller->dutyLevel() : 0);
        auto hit = placementMemo->find(key);
        if (hit == placementMemo->end()) {
            StreamResult fresh;
            if (window.idealChannel()) {
                fresh = simulateStream(topology, placement, link,
                                       rate, sampled);
            } else {
                fresh = simulateStream(
                    topology, placement, link, rate, sampled,
                    windowFaultProfile(config.faults, window.channel,
                                       slot));
            }
            hit = placementMemo->emplace(key, std::move(fresh)).first;
        }
        window_stream = &hit->second;
    }
    const StreamResult &stream = *window_stream;

    // Wall-clock-honest battery energy: strip the standby share the
    // simulator baked into each event at the design rate, integrate
    // the active placement's true standby over the window instead,
    // and add the sensing front-end plus any pending handover.
    const Energy standby_baked =
        standby *
        Time::seconds(static_cast<double>(events) /
                      topology.designEventsPerSecond);
    const Energy window_energy =
        stream.sensorEnergy.total() * scale - standby_baked +
        standby.during(window.duration) +
        config.sensor.sensingPower.during(window.duration) +
        pendingHandover;
    pendingHandover = Energy();

    const Time boundary = now + window.duration;
    battery.drainTo(boundary, window_energy);
    batteryEnergy += window_energy;
    now = boundary;

    // Aggregate the scaled window outcome.
    ++simulatedWindows;
    total.events += events;
    total.sensorEnergy.compute +=
        stream.sensorEnergy.compute * scale;
    total.sensorEnergy.tx += stream.sensorEnergy.tx * scale;
    total.sensorEnergy.rx += stream.sensorEnergy.rx * scale;
    total.worstLatency =
        std::max(total.worstLatency, stream.worstLatency);
    latencyMass +=
        stream.meanLatency.ms() * static_cast<double>(events);
    deadlineMass +=
        static_cast<double>(stream.deadlineMisses) * scale;
    degradedMass +=
        static_cast<double>(stream.degradedEvents) * scale;
    mergeRobustness(total.robustness, stream.robustness);
    if (simulatedWindows == 1) {
        // A single-window run must reproduce simulateStream() bit
        // for bit; re-deriving mean/misses through the weighted
        // masses could drift in the last ulp.
        total.meanLatency = stream.meanLatency;
        total.deadlineMisses = static_cast<size_t>(std::llround(
            static_cast<double>(stream.deadlineMisses) * scale));
        total.degradedEvents = static_cast<size_t>(std::llround(
            static_cast<double>(stream.degradedEvents) * scale));
    } else {
        total.meanLatency =
            total.events > 0
                ? Time::millis(latencyMass /
                               static_cast<double>(total.events))
                : Time();
        total.deadlineMisses = static_cast<size_t>(
            std::llround(static_cast<double>(deadlineMass)));
        total.degradedEvents = static_cast<size_t>(
            std::llround(static_cast<double>(degradedMass)));
    }

    if (battery.depleted())
        return false;

    if (controller) {
        ControlTelemetry telemetry;
        telemetry.at = boundary;
        telemetry.eventsPerSecond = window.eventsPerSecond;
        telemetry.stateOfCharge = battery.stateOfCharge();
        const RobustnessReport &channel = stream.robustness;
        telemetry.meanAttemptsPerPacket =
            channel.enabled && channel.packetsOffered > 0
                ? static_cast<double>(channel.attempts) /
                      static_cast<double>(channel.packetsOffered)
                : 1.0;
        const ControlDecision decision =
            controller->observe(telemetry);
        if (decision.movedCells > 0) {
            setPlacement(controller->placement());
            pendingHandover = Energy::micros(decision.handoverUj);
        }
    }
    return true;
}

void
WindowedRun::finalize()
{
    if (controller)
        total.control = controller->report();
}

AdaptiveStreamResult
runOnce(WindowedRun &run, const NonstationaryTrace &trace)
{
    const std::vector<ControlWindow> schedule =
        trace.discretize(run.config.control.repartitionPeriod);
    for (size_t slot = 0; slot < schedule.size(); ++slot) {
        if (!run.step(slot, schedule[slot]))
            break;
    }
    run.finalize();

    AdaptiveStreamResult result;
    result.stream = run.total;
    result.batteryEnergy = run.batteryEnergy;
    result.finalStateOfCharge = run.battery.stateOfCharge();
    result.finalPlacement = run.placement;
    return result;
}

LifetimeResult
runUntilDepleted(WindowedRun &run, const NonstationaryTrace &trace)
{
    const std::vector<ControlWindow> schedule =
        trace.discretize(run.config.control.repartitionPeriod);
    xproAssert(!schedule.empty(), "empty trace");

    LifetimeResult result;
    for (size_t pass = 0; pass < run.config.maxPasses; ++pass) {
        const Energy before = run.batteryEnergy;
        bool alive = true;
        for (size_t slot = 0; slot < schedule.size() && alive;
             ++slot) {
            alive = run.step(slot, schedule[slot]);
        }
        ++result.tracePasses;
        if (!alive) {
            run.finalize();
            result.lifetime = run.battery.depletionTime();
            result.events = run.total.events;
            result.control = run.total.control;
            return result;
        }
        if ((run.batteryEnergy - before).j() <= 0.0) {
            fatal("trace pass consumed no energy; lifetime is "
                  "unbounded");
        }
    }
    panic("battery did not deplete within %zu trace passes",
          run.config.maxPasses);
}

} // namespace

void
AdaptiveRunConfig::validate(const NonstationaryTrace &trace) const
{
    control.validate();
    if (maxPasses == 0)
        fatal("an adaptive run needs at least one trace pass");
    // Count the windows discretize() would emit without building
    // them (the float division may round one window either way; the
    // bound does not need to be exact).
    const double period = control.repartitionPeriod.sec();
    double windows = 0.0;
    for (const ControlWindow &window : trace.windows)
        windows += std::ceil(window.duration.sec() / period);
    if (windows > static_cast<double>(maxWindowsPerPass)) {
        fatal("a %g s control period chops the %g s trace into %.0f "
              "windows per pass, more than the %zu allowed; use a "
              "longer period",
              period, trace.total().sec(), windows,
              maxWindowsPerPass);
    }
}

AdaptiveStreamResult
simulateAdaptiveStream(const EngineTopology &topology,
                       const WirelessLink &link,
                       const NonstationaryTrace &trace,
                       const AdaptiveRunConfig &config)
{
    config.validate(trace);
    CrossEndController controller(topology, link, config.control);
    WindowedRun run(topology, link, config);
    run.controller = &controller;
    run.setPlacement(controller.placement());
    return runOnce(run, trace);
}

AdaptiveStreamResult
simulateStaticStream(const EngineTopology &topology,
                     const Placement &placement,
                     const WirelessLink &link,
                     const NonstationaryTrace &trace,
                     const AdaptiveRunConfig &config)
{
    config.validate(trace);
    WindowedRun run(topology, link, config);
    run.setPlacement(placement);
    return runOnce(run, trace);
}

LifetimeResult
adaptiveLifetime(const EngineTopology &topology,
                 const WirelessLink &link,
                 const NonstationaryTrace &trace,
                 const AdaptiveRunConfig &config)
{
    config.validate(trace);
    CrossEndController controller(topology, link, config.control);
    WindowedRun run(topology, link, config);
    run.controller = &controller;
    run.setPlacement(controller.placement());
    return runUntilDepleted(run, trace);
}

LifetimeResult
staticLifetime(const EngineTopology &topology,
               const Placement &placement, const WirelessLink &link,
               const NonstationaryTrace &trace,
               const AdaptiveRunConfig &config)
{
    config.validate(trace);
    WindowedRun run(topology, link, config);
    run.setPlacement(placement);
    return runUntilDepleted(run, trace);
}

} // namespace xpro
