/**
 * @file
 * Event-driven cross-end system simulator.
 *
 * Where the analytic models (core/energy_model, core/delay_model)
 * compute closed-form per-event costs, this simulator actually
 * executes events through placed engines: cells fire data-driven as
 * their inputs land on their end, and every inter-end payload is
 * serialized over one half-duplex radio channel under an arbitration
 * policy (sim/radio_sched). A single node is a fleet of one on a
 * first-come-first-served channel, i.e. a plain FIFO radio. Energies
 * must agree exactly with the analytic model; the completion time is
 * lower-bounded by the analytic critical path and exceeds it exactly
 * when transfers contend for the radio -- both are tested
 * invariants, and the gap is reported so the bench for Fig. 10 can
 * show radio contention is negligible for these workloads.
 *
 * With an enabled fault profile the same dataflow runs over a bursty
 * Gilbert-Elliott channel (wireless/fault): every inter-end payload
 * goes through bounded stop-and-wait ARQ, abandoned packets feed a
 * per-node K-consecutive-failure outage detector, and detected
 * outages degrade the node to sensor-local classification with
 * results buffered for replay on recovery. A disabled profile
 * reproduces the fault-free results bit for bit (a tested
 * invariant).
 */

#ifndef XPRO_SIM_SYSTEM_SIM_HH
#define XPRO_SIM_SYSTEM_SIM_HH

#include <span>
#include <string>
#include <vector>

#include "core/energy_model.hh"
#include "core/placement.hh"
#include "core/report.hh"
#include "core/topology.hh"
#include "sim/radio_sched.hh"
#include "wireless/fault.hh"
#include "wireless/link.hh"

namespace xpro
{

/** One timestamped trace record. */
struct TraceEntry
{
    Time at;
    std::string what;
};

/** Outcome of simulating one event. */
struct SimResult
{
    /** Time the classification result reaches the aggregator. */
    Time completion;
    /** Sensor energy accumulated by the simulation. */
    SensorEnergyBreakdown sensorEnergy;
    /** Number of radio transfers performed. */
    size_t transfers = 0;
    /** Total radio occupancy. */
    Time radioBusy;
    /** Chronological activity trace. */
    std::vector<TraceEntry> trace;
    /** Fault-injection outcome; disabled for fault-free runs. */
    RobustnessReport robustness;
    /** Adaptive-controller outcome; disabled for static runs
     *  (filled by control/adaptive_sim, never by simulateEvent). */
    ControlReport control;
};

/**
 * Simulate one event end to end. With an enabled @p faults profile
 * the event runs over the fault-injected channel; single-event runs
 * send no recovery probes (there is no later traffic to recover
 * for), so the event completes via local fallback under a permanent
 * outage.
 */
SimResult simulateEvent(const EngineTopology &topology,
                        const Placement &placement,
                        const WirelessLink &link,
                        const FaultProfile &faults = {});

/** Outcome of simulating a periodic stream of events. */
struct StreamResult
{
    size_t events = 0;
    /** Events whose result missed the next segment boundary. */
    size_t deadlineMisses = 0;
    /** Worst observed completion latency. */
    Time worstLatency;
    /** Mean completion latency. */
    Time meanLatency;
    /** Sensor energy accumulated over the whole stream. */
    SensorEnergyBreakdown sensorEnergy;
    /** Events classified via the sensor-local fallback. */
    size_t degradedEvents = 0;
    /** Fault-injection outcome; disabled for fault-free runs. */
    RobustnessReport robustness;
    /** Adaptive-controller outcome; disabled for static runs
     *  (filled by control/adaptive_sim, never by simulateStream). */
    ControlReport control;
};

/**
 * Simulate @p events consecutive segments arriving every
 * 1/events_per_second; each event must complete before the next
 * segment is fully acquired to count as real-time.
 *
 * Over a fault-injected channel (@p faults enabled), recovery probes
 * are sent every FaultProfile::probeInterval while the link is
 * declared down, up to one period past the last injection (so the
 * run always terminates); an event's completion under outage is its
 * sensor-local classification time.
 */
StreamResult simulateStream(const EngineTopology &topology,
                            const Placement &placement,
                            const WirelessLink &link,
                            double events_per_second, size_t events,
                            const FaultProfile &faults = {});

// --- The detailed simulator behind both entry points and the fleet's
// simulateFleet (fleet/fleet) ------------------------------------------

/**
 * Scripted dropout of one node: every packet the node offers (or is
 * offered) during [start, end) is lost, deterministic and
 * independent of the stochastic channel. Models one body walking
 * out of range while the rest of the fleet keeps operating; the
 * bounded ARQ keeps each of the dead node's packets on the channel
 * for a bounded time, so FCFS/TDMA arbitration never stalls on it.
 */
struct NodeOutage
{
    /** Index of the node (fleet member). */
    size_t node = 0;
    Time start;
    Time end;
};

/** Event-level outcome for one node. */
struct MemberSimResult
{
    size_t events = 0;
    /** Events finishing after the next segment was acquired. */
    size_t deadlineMisses = 0;
    Time meanLatency;
    Time worstLatency;
    /** Completion time of the node's first event. */
    Time firstCompletion;
    /** Events classified via the node's local fallback (only
     *  nonzero in fault-injected runs). */
    size_t degradedEvents = 0;
};

/** One placed engine driven by the detailed simulator. */
struct SimMember
{
    const EngineTopology *topology = nullptr;
    const Placement *placement = nullptr;
    /** Event k is acquired at k * period; recovery probes stop at
     *  period * events. */
    Time period;
};

/** Who executes the aggregator-side cells. */
enum class AggregatorCells
{
    /** Every cell runs as soon as its inputs land (one node's
     *  view: its cells never wait for each other). */
    Concurrent,
    /** One CPU shared by every member: cells queue first come,
     *  first served. */
    SharedCpu,
};

/** Outcome of one detailed run. */
struct DetailedRun
{
    /** Run-wide totals: sensor energy summed over members, radio
     *  use, fault outcome and (if captured) the trace; completion is
     *  the last member's last event. */
    SimResult totals;
    /** Latency summary of every member, in member order. */
    std::vector<MemberSimResult> members;
    /** Latest completion of any event. */
    Time span;
    /** Shared-CPU busy time (zero with AggregatorCells::Concurrent). */
    Time aggregatorBusy;
};

/**
 * Simulate @p events_per_member events of every member, all sharing
 * one half-duplex radio (arbitrated by @p arbiter). Sensor-side
 * cells of different members run concurrently: every node owns its
 * silicon. With an enabled @p faults profile (validated by the
 * caller), all members share one Gilbert-Elliott loss chain (it is
 * one physical channel) but each runs its own outage detector, local
 * fallback and recovery probes, and @p node_outages script per-node
 * dropouts. Deterministic for a fixed member order.
 */
DetailedRun simulateMembers(std::span<const SimMember> members,
                            const WirelessLink &link,
                            const RadioArbiter &arbiter,
                            size_t events_per_member,
                            const FaultProfile &faults,
                            std::span<const NodeOutage> node_outages,
                            AggregatorCells cells, bool capture_trace);

} // namespace xpro

#endif // XPRO_SIM_SYSTEM_SIM_HH
