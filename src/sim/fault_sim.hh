/**
 * @file
 * Fault-injected transfer machinery of the detailed cross-end
 * simulator (sim/system_sim), which drives single nodes and fleets
 * alike:
 *
 *  - ArqMachine: one seeded loss process, the run's RobustnessReport
 *    counters and bounded stop-and-wait ARQ over a reused slot table
 *    of in-flight packets. The simulator drives it with typed events
 *    on its EventQueue and grants its arbitrated radio (sim/
 *    radio_sched) to each attempt separately, so the channel is free
 *    for other traffic during ACK timeouts and backoff — which is
 *    also what keeps a dead node from stalling FCFS/TDMA
 *    arbitration.
 *  - LocalFallbackPlanner: the graceful-degradation plan. When a
 *    payload is abandoned (or the link is declared down), the
 *    sensor finishes the event locally: every cell whose output is
 *    not already available in-sensor is recomputed there, and the
 *    completion time is the local critical path from the fallback
 *    instant. Classification therefore continues through outages;
 *    results are buffered and replayed on recovery.
 */

#ifndef XPRO_SIM_FAULT_SIM_HH
#define XPRO_SIM_FAULT_SIM_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/energy_model.hh"
#include "core/placement.hh"
#include "core/report.hh"
#include "core/topology.hh"
#include "sim/event_queue.hh"
#include "wireless/fault.hh"
#include "wireless/link.hh"

namespace xpro
{

/** One packet submitted to the ARQ machine. */
struct ArqPacket
{
    /** Payload bits; the link adds the protocol header. */
    size_t payloadBits = 0;
    /** Which end transmits the data frame (decides which of the
     *  sensor's tx/rx meters each attempt charges). */
    bool senderInSensor = true;
    /** Recovery probes don't count toward packetsOffered or the
     *  outage detector's abandon streak. */
    bool isProbe = false;
    /** The member (node) that sends the packet: whose channel
     *  grants and scripted dropouts apply (0 on a single node). */
    uint32_t owner = 0;
    /** The simulator's own event to run once the packet settles,
     *  delivered or abandoned. */
    SimEvent onSettled;
    /** Trace tag, e.g. "svm payload #0"; left empty unless the
     *  simulator captures a trace. */
    std::string what;
};

/**
 * Fault-injection state of one simulation run: the seeded channel
 * chain, the outcome counters and the packets in flight under
 * bounded stop-and-wait ARQ.
 *
 * The simulator drives each packet through three calls:
 *
 *  - open() admits it and returns its slot;
 *  - attempt() initiates the next attempt: it draws the packet's
 *    fate, charges the per-attempt energies to the sensor and
 *    returns the air time the simulator must then occupy its radio
 *    for (data only when lost, data + ACK when delivered);
 *  - settle(), once that occupation ends, either schedules the next
 *    attempt as the event {@p attempt_kind, slot} after the
 *    profile's backoff (the simulator answers it with attempt()) or
 *    reports the final outcome and frees the slot.
 *
 * After 1 + maxRetries failed attempts the packet is abandoned.
 * Slots are reused, so a steady-state run stops allocating once the
 * high-water number of packets in flight is reached.
 */
class ArqMachine
{
  public:
    enum class Outcome
    {
        Retry,
        Delivered,
        Abandoned,
    };

    /**
     * @param sensor Sensor meters the attempts charge.
     * @param attempt_kind Simulator event kind settle() schedules for a
     *        retry; its payload is the slot.
     */
    ArqMachine(const FaultProfile &profile, const WirelessLink &link,
               EventQueue &queue, SensorEnergyBreakdown &sensor,
               uint32_t attempt_kind);

    const FaultProfile &profile() const { return _profile; }
    RobustnessReport &stats() { return _stats; }

    /** Admit @p packet; returns its slot. */
    uint32_t open(ArqPacket packet);

    /**
     * Initiate the slot's next attempt at the current time. The
     * fate is drawn now, when the attempt is initiated (a
     * deterministic single-threaded order), not when the possibly
     * backlogged channel serializes it — a documented
     * simplification. A @p forced loss (outage window, dead fleet
     * node) consumes no stochastic draw.
     * @return The channel time the attempt occupies.
     */
    Time attempt(uint32_t slot, bool forced);

    /** The slot's packet (valid until its outcome is reported). */
    const ArqPacket &packet(uint32_t slot) const
    {
        return _slots[slot].packet;
    }

    /** 0-based index of the slot's ongoing attempt. */
    size_t attemptIndex(uint32_t slot) const
    {
        return _slots[slot].attempt;
    }

    /**
     * The slot's channel occupation ended: schedule the retry, or
     * count the final outcome and free the slot (its packet's
     * onSettled is copied to @p settled first).
     */
    Outcome settle(uint32_t slot, SimEvent *settled);

  private:
    struct Slot
    {
        ArqPacket packet;
        AttemptCost cost;
        /** 0-based index of the ongoing attempt. */
        size_t attempt = 0;
        /** Fate of the ongoing attempt. */
        bool lost = false;
    };

    FaultProfile _profile;
    LossProcess _loss;
    RobustnessReport _stats;
    const WirelessLink &_link;
    EventQueue &_queue;
    SensorEnergyBreakdown &_sensor;
    uint32_t _attemptKind;
    std::vector<Slot> _slots;
    std::vector<uint32_t> _freeSlots;
};

/** The local-fallback plan for one partially executed event. */
struct LocalFallback
{
    /** When the locally computed classification is ready. */
    Time completion;
    /** Extra sensor compute energy of the recomputed cells. */
    Energy compute;
    /** Cells recomputed locally (the rest already ran in-sensor). */
    size_t recomputedCells = 0;
};

/**
 * Plans finishing partially executed events locally, for one placed
 * engine. The planner keeps the topology's order and a scratch row,
 * so planning an event does not allocate.
 */
class LocalFallbackPlanner
{
  public:
    LocalFallbackPlanner(const EngineTopology &topology,
                         const Placement &placement);

    /**
     * Plan finishing one event locally from time @p at.
     *
     * @p sensor_finish_at[v] is set iff cell v already started (or
     * finished) on the *sensor* end, holding its completion time;
     * those outputs are reused. Every other cell — never started, or
     * started on the now-unreachable aggregator — is recomputed
     * in-sensor, data-driven along the topology's DAG. Because each
     * cell is charged at most once per event, a degraded event's
     * compute energy never exceeds the all-in-sensor engine's (a
     * tested invariant).
     */
    LocalFallback plan(std::span<const std::optional<Time>>
                           sensor_finish_at,
                       Time at);

  private:
    const EngineTopology *_topology;
    const Placement *_placement;
    std::vector<size_t> _order;
    std::vector<Time> _avail;
};

} // namespace xpro

#endif // XPRO_SIM_FAULT_SIM_HH
