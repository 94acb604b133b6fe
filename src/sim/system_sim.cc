#include "sim/system_sim.hh"

#include <algorithm>
#include <optional>
#include <span>

#include "common/logging.hh"
#include "core/transfers.hh"
#include "sim/event_queue.hh"
#include "sim/fault_sim.hh"

namespace xpro
{

namespace
{

/** Event kinds of the system simulator (SimEvent::kind). */
enum Kind : uint32_t
{
    kInject,         ///< raw segment of event k acquired; payload k
    kFinishNode,     ///< payload k * nodes + u
    kRadioDone,      ///< the radio's current occupation ended
    kDeliverGroup,   ///< fault-free payload landed; k * groups + g
    kLegacyResult,   ///< fault-free result landed; payload k
    kLocalResult,    ///< local fallback classified event k
    kProbeTimer,     ///< send a recovery probe if still down
    kArqAttempt,     ///< next ARQ attempt; payload slot
    kArqChannelDone, ///< an ARQ attempt left the air; payload slot
    // ARQ outcomes (ArqPacket::onSettled), run with the outcome.
    kPayloadSettled, ///< cross-end payload; k * groups + g
    kResultSettled,  ///< in-sensor fusion result; payload k
    kReplaySettled,  ///< replayed local result; payload k
    kProbeSettled,   ///< recovery probe
};

/**
 * Shared half-duplex radio: serializes channel occupations FIFO.
 * Each occupation carries the host's event to dispatch when it
 * ends; at most one occupation is on the air at a time.
 */
class Radio
{
  public:
    Radio(EventQueue &queue, SimResult &result, bool capture_trace)
        : _queue(queue), _result(result),
          _captureTrace(capture_trace)
    {
        _backlog.reserve(16);
    }

    /**
     * Occupy the channel for @p air (one ARQ attempt, or one
     * expectation-folded transfer); @p on_done is dispatched when
     * the occupation ends. @p what is read only when tracing.
     */
    void
    occupy(Time air, SimEvent on_done, std::string what)
    {
        _backlog.push({air, on_done, std::move(what)});
        if (!_busy)
            startNext();
    }

    /** The current occupation ended (kRadioDone): returns its
     * continuation. The host dispatches it — it may queue the next
     * occupation, which lands in the backlog — then calls
     * startNext(). */
    SimEvent
    finish()
    {
        if (_captureTrace) {
            _result.trace.push_back(
                {_queue.now(), "radio done: " + _current.what});
        }
        return _current.onDone;
    }

    /** Put the next backlogged occupation on the air, if any. */
    void
    startNext()
    {
        if (_backlog.empty()) {
            _busy = false;
            return;
        }
        _busy = true;
        _current = _backlog.take();
        if (_captureTrace) {
            _result.trace.push_back(
                {_queue.now(), "radio start: " + _current.what});
        }
        _result.radioBusy += _current.air;
        ++_result.transfers;
        _queue.scheduleAfter(_current.air, {kRadioDone});
    }

  private:
    struct Pending
    {
        Time air;
        SimEvent onDone;
        std::string what;
    };

    EventQueue &_queue;
    SimResult &_result;
    const bool _captureTrace;
    bool _busy = false;
    Pending _current;
    HeadFifo<Pending> _backlog;
};

/**
 * Simulates a sequence of independent events through one placed
 * engine sharing a single radio. Per-event dataflow state is kept
 * per instance so consecutive segments may overlap in time.
 *
 * With a fault profile, inter-end payloads go through bounded ARQ
 * (sim/fault_sim) instead of the expectation-folded transfer costs,
 * and abandoned packets drive the outage detector / local-fallback
 * machinery. Without one, the legacy path is taken verbatim.
 */
class SystemSimulator
{
  public:
    SystemSimulator(const EngineTopology &topology,
                    const Placement &placement,
                    const WirelessLink &link, size_t events,
                    const FaultProfile *faults = nullptr,
                    Time probe_horizon = Time(),
                    bool capture_trace = true)
        : _topology(topology),
          _placement(placement),
          _link(link),
          _groups(topology, placement),
          _captureTrace(capture_trace),
          _radio(_queue, _result, capture_trace),
          _instances(events),
          _probeHorizon(probe_horizon)
    {
        const DataflowGraph &graph = topology.graph;
        // Per-(event, node) state lives in flat arrays so the setup's
        // allocation count is independent of the event count (the
        // counting-allocator tests compare stream runs of different
        // lengths), on the fault path too.
        const size_t nodes = graph.nodeCount();
        _inputsPending.assign(events * nodes, 0);
        _done.assign(events * nodes, 0);
        for (size_t k = 0; k < events; ++k) {
            for (size_t v = 1; v < nodes; ++v) {
                _inputsPending[k * nodes + v] =
                    graph.predecessors(v).size();
            }
        }
        if (faults && faults->enabled) {
            _arq.emplace(*faults, link, _queue, &_result.sensorEnergy,
                         kArqAttempt);
            _fallback.emplace(topology, placement);
            _sensorFinishAt.assign(events * nodes, std::nullopt);
            // An event sits in at most one of the two at a time.
            _buffered.reserve(events);
            _replaying.reserve(events);
        }
        // All stream injections wait outside the heap, which then
        // holds only a few in-flight completions.
        _queue.reserve(events, 64);
    }

    /** Inject event @p k's raw segment at time @p at. */
    void
    inject(size_t k, Time at)
    {
        _queue.preload(at, {kInject, k});
    }

    /** Run to completion and harvest results. */
    SimResult
    run()
    {
        _queue.runAll([this](const SimEvent &event) { dispatch(event); });
        for (size_t k = 0; k < _instances.size(); ++k) {
            const Instance &instance = _instances[k];
            xproAssert(instance.resultAt.has_value(),
                       "event %zu never completed", k);
            // A degraded event legitimately skips cells: the local
            // fallback recomputes them outside the dataflow walk.
            if (instance.degraded)
                continue;
            const size_t nodes = _topology.graph.nodeCount();
            for (size_t v = 1; v < nodes; ++v) {
                xproAssert(_done[k * nodes + v],
                           "cell '%s' never executed for event %zu",
                           _topology.graph.node(v).name.c_str(), k);
            }
        }
        if (_arq) {
            RobustnessReport &stats = _arq->stats();
            stats.bufferedResults = _buffered.size();
            if (_degradedMode)
                stats.outageTimeMs +=
                    (_queue.now() - _outageStart).ms();
            if (stats.replayedResults > 0) {
                stats.meanRecoveryMs =
                    _recoverySum.ms() /
                    static_cast<double>(stats.replayedResults);
            }
            _result.robustness = stats;
        }
        _result.completion = *_instances.back().resultAt;
        return _result;
    }

    /** Completion time of event @p k. */
    Time
    completionOf(size_t k) const
    {
        return *_instances[k].resultAt;
    }

  private:
    struct Instance
    {
        std::optional<Time> resultAt;
        /** Fault path: classified via the local fallback. */
        bool degraded = false;
        /** Fault path: when the local classification was produced. */
        std::optional<Time> localResultAt;
    };

    size_t nodes() const { return _topology.graph.nodeCount(); }

    void
    dispatch(const SimEvent &event)
    {
        const uint64_t p = event.payload;
        switch (event.kind) {
        case kInject:
            completeNode(p, DataflowGraph::sourceId);
            break;
        case kFinishNode:
            finishNode(p / nodes(), p % nodes());
            break;
        case kRadioDone:
            dispatch(_radio.finish());
            _radio.startNext();
            break;
        case kDeliverGroup: {
            const size_t k = p / _groups.size();
            for (size_t v : _groups.otherEnd(p % _groups.size()))
                deliverTo(k, v);
            break;
        }
        case kLegacyResult:
            _instances[p].resultAt = _queue.now();
            break;
        case kLocalResult:
            localResult(p);
            break;
        case kProbeTimer:
            if (_degradedMode)
                sendProbe();
            break;
        case kArqAttempt:
            attemptArq(static_cast<uint32_t>(p));
            break;
        case kArqChannelDone:
            arqChannelDone(static_cast<uint32_t>(p));
            break;
        default:
            panic("unknown system-simulator event kind %u", event.kind);
        }
    }

    void
    deliverTo(size_t k, size_t v)
    {
        size_t &pending = _inputsPending[k * nodes() + v];
        xproAssert(pending > 0, "duplicate delivery to '%s'",
                   _topology.graph.node(v).name.c_str());
        if (--pending == 0)
            completeNode(k, v);
    }

    void
    completeNode(size_t k, size_t u)
    {
        const DataflowGraph &graph = _topology.graph;
        Time exec;
        if (u != DataflowGraph::sourceId) {
            const CellCosts &costs = graph.node(u).costs;
            if (_placement.inSensor(u)) {
                exec = costs.sensorDelay;
                _result.sensorEnergy.compute += costs.sensorEnergy;
                if (_arq)
                    _sensorFinishAt[k * nodes() + u] =
                        _queue.now() + exec;
            } else {
                exec = costs.aggregatorDelay;
            }
        } else if (_arq) {
            _sensorFinishAt[k * nodes() + u] = _queue.now();
            // Injected mid-outage: don't even try the link, go
            // straight to the local fallback.
            if (_degradedMode)
                degradeEvent(k);
        }
        _queue.scheduleAfter(exec, {kFinishNode, k * nodes() + u});
    }

    void
    finishNode(size_t k, size_t u)
    {
        const DataflowGraph &graph = _topology.graph;
        Instance &instance = _instances[k];
        _done[k * nodes() + u] = 1;
        if (_captureTrace) {
            _result.trace.push_back(
                {_queue.now(), "done " + graph.node(u).name + " #" +
                                   std::to_string(k)});
        }

        // Degraded instances stop propagating: everything not yet
        // started is being recomputed by the local fallback, and the
        // link is considered down for this event.
        if (instance.degraded)
            return;

        if (u == _topology.fusionNode) {
            if (_placement.inSensor(u)) {
                if (_arq)
                    sendResult(k);
                else
                    sendResultLegacy(k);
            } else {
                instance.resultAt = _queue.now();
            }
        }

        for (size_t g = _groups.first(u); g < _groups.first(u + 1);
             ++g) {
            for (size_t v : _groups.sameEnd(g))
                deliverTo(k, v);
            if (_groups.otherEnd(g).empty())
                continue;
            const size_t bits = _groups.group(g).bits;
            const uint64_t packed = k * _groups.size() + g;
            std::string what;
            if (_captureTrace) {
                what = graph.node(u).name + " payload #" +
                       std::to_string(k);
            }
            if (_arq) {
                sendArq(bits, _placement.inSensor(u),
                        {kPayloadSettled, packed}, std::move(what));
            } else {
                const TransferCost cost = _link.transfer(bits);
                if (_placement.inSensor(u))
                    _result.sensorEnergy.tx += cost.txEnergy;
                else
                    _result.sensorEnergy.rx += cost.rxEnergy;
                _radio.occupy(cost.airTime, {kDeliverGroup, packed},
                              std::move(what));
            }
        }
    }

    /** Legacy (expectation-folded) result transfer. */
    void
    sendResultLegacy(size_t k)
    {
        const TransferCost cost =
            _link.transfer(EngineTopology::resultBits);
        _result.sensorEnergy.tx += cost.txEnergy;
        std::string what;
        if (_captureTrace)
            what = "result #" + std::to_string(k);
        _radio.occupy(cost.airTime, {kLegacyResult, k},
                      std::move(what));
    }

    // ---- Fault-injected path -------------------------------------

    void
    note(const std::string &what)
    {
        if (_captureTrace)
            _result.trace.push_back({_queue.now(), what});
    }

    /** Submit one packet to ARQ and start its first attempt. */
    void
    sendArq(size_t bits, bool sender_in_sensor, SimEvent on_settled,
            std::string what, bool is_probe = false)
    {
        ArqPacket packet;
        packet.payloadBits = bits;
        packet.senderInSensor = sender_in_sensor;
        packet.isProbe = is_probe;
        packet.onSettled = on_settled;
        packet.what = std::move(what);
        attemptArq(_arq->open(std::move(packet)));
    }

    void
    attemptArq(uint32_t slot)
    {
        const Time air = _arq->attempt(slot, false);
        std::string what;
        if (_captureTrace) {
            what = _arq->packet(slot).what;
            if (const size_t attempt = _arq->attemptIndex(slot))
                what += " try " + std::to_string(attempt);
        }
        _radio.occupy(air, {kArqChannelDone, slot}, std::move(what));
    }

    void
    arqChannelDone(uint32_t slot)
    {
        std::string what; // settle() may free the slot
        if (_captureTrace)
            what = _arq->packet(slot).what;
        SimEvent settled;
        const ArqMachine::Outcome outcome = _arq->settle(slot, &settled);
        if (outcome == ArqMachine::Outcome::Retry) {
            if (_captureTrace)
                note("retry " + what);
            return;
        }
        const bool delivered =
            outcome == ArqMachine::Outcome::Delivered;
        if (!delivered && _captureTrace)
            note("drop " + what);
        const uint64_t p = settled.payload;
        switch (settled.kind) {
        case kPayloadSettled: {
            const size_t k = p / _groups.size();
            onPacketOutcome(delivered);
            if (!delivered) {
                degradeEvent(k);
            } else if (!_instances[k].degraded) {
                for (size_t v : _groups.otherEnd(p % _groups.size()))
                    deliverTo(k, v);
            }
            break;
        }
        case kResultSettled:
            onPacketOutcome(delivered);
            if (_instances[p].degraded)
                break;
            if (delivered)
                _instances[p].resultAt = _queue.now();
            else
                degradeEvent(p);
            break;
        case kReplaySettled:
            onPacketOutcome(delivered);
            if (delivered) {
                ++_arq->stats().replayedResults;
                _recoverySum +=
                    _queue.now() - *_instances[p].localResultAt;
            } else {
                // Back to the shelf until the next recovery.
                _buffered.push_back(p);
            }
            break;
        case kProbeSettled:
            if (!_degradedMode)
                break;
            if (delivered)
                onPacketOutcome(true);
            else
                scheduleProbe();
            break;
        default:
            panic("unknown ARQ outcome kind %u", settled.kind);
        }
    }

    /** In-sensor fusion result under ARQ. */
    void
    sendResult(size_t k)
    {
        std::string what;
        if (_captureTrace)
            what = "result #" + std::to_string(k);
        sendArq(EngineTopology::resultBits, true, {kResultSettled, k},
                std::move(what));
    }

    /** Replay a buffered local classification after recovery. */
    void
    replayResult(size_t k)
    {
        std::string what;
        if (_captureTrace)
            what = "replay result #" + std::to_string(k);
        sendArq(EngineTopology::resultBits, true, {kReplaySettled, k},
                std::move(what));
    }

    /** Outage detector: every final packet outcome lands here. */
    void
    onPacketOutcome(bool delivered)
    {
        RobustnessReport &stats = _arq->stats();
        if (delivered) {
            _abandonStreak = 0;
            if (_degradedMode) {
                _degradedMode = false;
                stats.outageTimeMs +=
                    (_queue.now() - _outageStart).ms();
                note("outage end");
                flushBuffered();
            }
            return;
        }
        ++_abandonStreak;
        if (!_degradedMode &&
            _abandonStreak >= _arq->profile().outageThreshold) {
            _degradedMode = true;
            _outageStart = _queue.now();
            ++stats.outages;
            note("outage start");
            scheduleProbe();
        }
    }

    void
    flushBuffered()
    {
        // Replays settle no earlier than their first channel
        // occupation ends, so nothing re-shelves during the loop.
        _replaying.swap(_buffered);
        for (size_t k : _replaying)
            replayResult(k);
        _replaying.clear();
    }

    void
    scheduleProbe()
    {
        const Time next =
            _queue.now() + _arq->profile().probeInterval;
        // Probing stops past the horizon so the queue always drains
        // under a permanent outage.
        if (next > _probeHorizon)
            return;
        _queue.schedule(next, {kProbeTimer});
    }

    void
    sendProbe()
    {
        std::string what;
        if (_captureTrace)
            what = "probe #" + std::to_string(_probeCount);
        ++_probeCount;
        sendArq(EngineTopology::resultBits, true, {kProbeSettled},
                std::move(what), /*is_probe=*/true);
    }

    /** Finish event @p k locally from the current time. */
    void
    degradeEvent(size_t k)
    {
        Instance &instance = _instances[k];
        if (instance.degraded)
            return;
        instance.degraded = true;
        ++_arq->stats().degradedEvents;
        if (_captureTrace)
            note("fallback #" + std::to_string(k));
        const LocalFallback plan = _fallback->plan(
            std::span(_sensorFinishAt).subspan(k * nodes(), nodes()),
            _queue.now());
        _result.sensorEnergy.compute += plan.compute;
        _queue.schedule(plan.completion, {kLocalResult, k});
    }

    void
    localResult(size_t k)
    {
        Instance &instance = _instances[k];
        instance.resultAt = _queue.now();
        instance.localResultAt = _queue.now();
        if (_captureTrace)
            note("local result #" + std::to_string(k));
        if (_degradedMode)
            _buffered.push_back(k);
        else
            replayResult(k);
    }

    const EngineTopology &_topology;
    const Placement &_placement;
    const WirelessLink &_link;
    const PlacedGroups _groups;
    const bool _captureTrace;
    EventQueue _queue;
    SimResult _result;
    Radio _radio;
    std::vector<Instance> _instances;
    /** Flat per-(event, node) dataflow state: pending predecessor
     * counts and executed flags, indexed k * nodeCount + v. */
    std::vector<size_t> _inputsPending;
    std::vector<uint8_t> _done;

    // Fault-injection state (unused on the legacy path).
    std::optional<ArqMachine> _arq;
    std::optional<LocalFallbackPlanner> _fallback;
    /** Per-(event, node) completion time of every node that started
     * on the sensor end (source included), for the fallback plan. */
    std::vector<std::optional<Time>> _sensorFinishAt;
    Time _probeHorizon;
    size_t _abandonStreak = 0;
    bool _degradedMode = false;
    Time _outageStart;
    std::vector<size_t> _buffered;
    std::vector<size_t> _replaying; ///< flushBuffered() scratch
    Time _recoverySum;
    size_t _probeCount = 0;
};

StreamResult
runStream(const EngineTopology &topology, const Placement &placement,
          const WirelessLink &link, double events_per_second,
          size_t events, const FaultProfile *faults)
{
    xproAssert(events_per_second > 0.0, "event rate must be positive");
    xproAssert(events > 0, "need at least one event");

    const Time period = Time::seconds(1.0 / events_per_second);
    // Recovery probes run at most one period past the last
    // injection; afterwards a still-down link stays down.
    const Time horizon = period * static_cast<double>(events);
    // StreamResult carries no trace, so stream runs skip trace
    // capture entirely: same simulation, same numbers, and the
    // steady-state fault-free event loop stays allocation-free.
    SystemSimulator simulator(topology, placement, link, events,
                              faults, horizon,
                              /*capture_trace=*/false);
    for (size_t k = 0; k < events; ++k)
        simulator.inject(k, period * static_cast<double>(k));
    const SimResult sim = simulator.run();

    StreamResult result;
    result.events = events;
    result.sensorEnergy = sim.sensorEnergy;
    result.robustness = sim.robustness;
    result.degradedEvents = sim.robustness.degradedEvents;
    Time latency_sum;
    for (size_t k = 0; k < events; ++k) {
        const Time latency = simulator.completionOf(k) -
                             period * static_cast<double>(k);
        latency_sum += latency;
        result.worstLatency = std::max(result.worstLatency, latency);
        // Real-time requirement: done before the next segment has
        // been fully acquired.
        if (latency > period)
            ++result.deadlineMisses;
    }
    result.meanLatency =
        Time::seconds(latency_sum.sec() / static_cast<double>(events));
    return result;
}

} // namespace

SimResult
simulateEvent(const EngineTopology &topology,
              const Placement &placement, const WirelessLink &link)
{
    SystemSimulator simulator(topology, placement, link, 1);
    simulator.inject(0, Time());
    return simulator.run();
}

SimResult
simulateEvent(const EngineTopology &topology,
              const Placement &placement, const WirelessLink &link,
              const FaultProfile &faults)
{
    if (!faults.enabled)
        return simulateEvent(topology, placement, link);
    faults.validate();
    SystemSimulator simulator(topology, placement, link, 1, &faults,
                              Time());
    simulator.inject(0, Time());
    return simulator.run();
}

StreamResult
simulateStream(const EngineTopology &topology,
               const Placement &placement, const WirelessLink &link,
               double events_per_second, size_t events)
{
    return runStream(topology, placement, link, events_per_second,
                     events, nullptr);
}

StreamResult
simulateStream(const EngineTopology &topology,
               const Placement &placement, const WirelessLink &link,
               double events_per_second, size_t events,
               const FaultProfile &faults)
{
    if (!faults.enabled) {
        return runStream(topology, placement, link, events_per_second,
                         events, nullptr);
    }
    faults.validate();
    return runStream(topology, placement, link, events_per_second,
                     events, &faults);
}

} // namespace xpro
