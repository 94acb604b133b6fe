/**
 * @file
 * Windowed adaptive stream simulation: plays a nonstationary trace
 * through the event-driven system simulator one control window at a
 * time, with the CrossEndController closing the loop at every
 * boundary.
 *
 * Each control window is simulated as its own event stream under the
 * placement and duty level in force (fault-injected when the
 * window's channel is lossy, the exact legacy path when it is
 * ideal). A window boundary is precisely the drain phase of the
 * handover protocol — the pipeline is empty when the controller
 * cuts over — so mid-stream migration needs no in-flight state
 * transfer beyond the cells' snapshot payloads.
 *
 * Energy accounting is wall-clock honest: the per-event standby
 * share baked into the cells' sensorEnergy (amortized at the
 * topology's design rate) is stripped and replaced by the active
 * placement's true standby power integrated over the window, plus
 * the sensing front-end and any handover payloads. Duty-cycling
 * therefore saves execution and wireless energy but never fakes a
 * standby saving.
 *
 * Long windows are sampled: at most AdaptiveRunConfig::sampleCap
 * events are actually simulated and the result is scaled to the
 * window's true event count. Telemetry counters keep the raw
 * (sampled) values.
 *
 * Everything is deterministic: per-window fault seeds derive from
 * the base seed and the window index alone, so repeated trace
 * passes re-draw identical loss sequences and the lifetime loops
 * can memoize window outcomes by (window, placement, duty).
 */

#ifndef XPRO_CONTROL_ADAPTIVE_SIM_HH
#define XPRO_CONTROL_ADAPTIVE_SIM_HH

#include "control/controller.hh"
#include "control/trace.hh"
#include "platform/battery_sim.hh"
#include "platform/sensor_node.hh"
#include "sim/system_sim.hh"

namespace xpro
{

/** Configuration of one adaptive (or static-reference) run. */
struct AdaptiveRunConfig
{
    ControlConfig control;
    /**
     * ARQ / outage-detector / probe machinery for lossy windows;
     * the burst parameters and enabled flag are ignored — each
     * window derives its own profile from the trace's channel via
     * windowFaultProfile().
     */
    FaultProfile faults;
    /** Battery and sensing front-end of the simulated node. */
    SensorNodeConfig sensor;
    /**
     * Cap on simulated events per control window (0 = simulate
     * every event). Windows above the cap are sampled and scaled.
     */
    size_t sampleCap = 128;
    /** Safety cap on trace passes in the lifetime loops. */
    size_t maxPasses = 4000;

    /**
     * Most control windows one pass of a trace may be chopped into.
     * Every window of a pass is materialized before the first one
     * runs, so a control period far shorter than the trace would
     * exhaust memory instead of running.
     */
    static constexpr size_t maxWindowsPerPass = size_t{1} << 18;

    /**
     * Check the configuration against the trace it will play:
     * panics on nonsense controller parameters (ControlConfig::
     * validate()), fatal() when no trace pass is allowed or when the
     * control period chops @p trace into more than
     * maxWindowsPerPass windows.
     */
    void validate(const NonstationaryTrace &trace) const;
};

/** Outcome of playing a trace once. */
struct AdaptiveStreamResult
{
    /** Aggregated stream outcome; control holds the decision
     *  trace (disabled for the static variant). */
    StreamResult stream;
    /** Total energy drawn from the sensor battery, including
     *  standby, sensing and handover payloads. */
    Energy batteryEnergy;
    /** State of charge when the trace ended. */
    double finalStateOfCharge = 1.0;
    /** Placement in force when the trace ended. */
    Placement finalPlacement;
};

/** Outcome of repeating a trace until the battery dies. */
struct LifetimeResult
{
    Time lifetime;
    /** Full or partial passes played before depletion. */
    size_t tracePasses = 0;
    /** Events analyzed before depletion. */
    size_t events = 0;
    /** Decision trace (disabled for the static variant). */
    ControlReport control;
};

/**
 * Play @p trace once under the controller: the initial placement is
 * the controller's own nominal design, then every control window
 * boundary may re-partition, re-tune the duty level, or hold.
 */
AdaptiveStreamResult
simulateAdaptiveStream(const EngineTopology &topology,
                       const WirelessLink &link,
                       const NonstationaryTrace &trace,
                       const AdaptiveRunConfig &config);

/**
 * Play @p trace once with @p placement frozen and full duty: the
 * static reference the controller is judged against. With a
 * single-window ideal-channel trace this reproduces
 * simulateStream() bit for bit (a tested invariant).
 */
AdaptiveStreamResult
simulateStaticStream(const EngineTopology &topology,
                     const Placement &placement,
                     const WirelessLink &link,
                     const NonstationaryTrace &trace,
                     const AdaptiveRunConfig &config);

/** Repeat the trace under the controller until the battery dies. */
LifetimeResult adaptiveLifetime(const EngineTopology &topology,
                                const WirelessLink &link,
                                const NonstationaryTrace &trace,
                                const AdaptiveRunConfig &config);

/** Repeat the trace with a frozen placement until the battery
 *  dies. */
LifetimeResult staticLifetime(const EngineTopology &topology,
                              const Placement &placement,
                              const WirelessLink &link,
                              const NonstationaryTrace &trace,
                              const AdaptiveRunConfig &config);

} // namespace xpro

#endif // XPRO_CONTROL_ADAPTIVE_SIM_HH
