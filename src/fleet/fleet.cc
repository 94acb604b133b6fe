#include "fleet/fleet.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>

#include "common/arena.hh"
#include "common/logging.hh"
#include "core/transfers.hh"
#include "platform/battery.hh"
#include "serve/batch_server.hh"
#include "serve/hot_path.hh"
#include "sim/event_queue.hh"
#include "sim/fault_sim.hh"

namespace xpro
{

std::vector<FleetNodeSpec>
heterogeneousFleet(size_t count, uint64_t seed)
{
    // Cycle the six paper test cases and the three process nodes at
    // co-prime strides so neighbouring nodes differ in both; every
    // node gets its own seed (its own synthetic body).
    static constexpr std::array<ProcessNode, 3> processes = {
        ProcessNode::Tsmc90,
        ProcessNode::Tsmc45,
        ProcessNode::Tsmc130,
    };
    std::vector<FleetNodeSpec> specs;
    specs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        FleetNodeSpec spec;
        spec.testCase = allTestCases[i % allTestCases.size()];
        spec.process = processes[i % processes.size()];
        spec.seed = seed + i;
        specs.push_back(spec);
    }
    return specs;
}

std::vector<XProDesign>
designFleet(const std::vector<FleetNodeSpec> &specs,
            WirelessModel wireless, double bit_error_rate,
            WorkerPool &pool, size_t sweep_workers)
{
    ChannelModel channel;
    channel.bitErrorRate = bit_error_rate;
    return pool.map<XProDesign>(specs.size(), [&](size_t i) {
        const FleetNodeSpec &spec = specs[i];
        const SignalDataset dataset =
            makeTestCase(spec.testCase, spec.seed);

        EngineConfig config;
        config.process = spec.process;
        config.wireless = wireless;
        config.subspace.candidates = spec.subspaceCandidates;

        TrainingOptions options;
        options.maxTrainingSegments = spec.maxTrainingSegments;
        options.seed = spec.seed;

        XProDesign design;
        design.config = config;
        design.pipeline = trainPipeline(dataset, config, options);
        design.topology = buildEngineTopology(
            design.pipeline.ensemble, dataset.segmentLength, config,
            dataset.eventsPerSecond());
        const WirelessLink link(transceiver(wireless), channel);
        GeneratorOptions generator_options;
        generator_options.sweepWorkers = sweep_workers;
        design.partition =
            XProGenerator(design.topology, link, generator_options)
                .generate();
        return design;
    });
}

namespace
{

/** Event kinds of the detailed fleet simulator (SimEvent::kind).
 *  Payload "mk" is m * eventsPerNode + k. */
enum Kind : uint32_t
{
    kInject,         ///< raw segment acquired; payload mk
    kFinishNode,     ///< payload mk * maxGraphNodes + u
    kRadioWake,      ///< re-arbitrate the shared radio
    kRadioDone,      ///< the radio's current job left the air
    kCpuDone,        ///< the aggregator CPU's current job finished
    kDeliverGroup,   ///< fault-free payload landed; mk * maxGroups + g
    kLegacyResult,   ///< fault-free result landed; payload mk
    kLocalResult,    ///< local fallback classified; payload mk
    kProbeTimer,     ///< recovery probe due; payload m
    kArqAttempt,     ///< next ARQ attempt; payload slot
    kArqChannelDone, ///< an ARQ attempt left the air; payload slot
    // ARQ outcomes (ArqPacket::onSettled), run with the outcome.
    kPayloadSettled, ///< mk * maxGroups + g
    kResultSettled,  ///< payload mk
    kReplaySettled,  ///< payload mk
    kProbeSettled,   ///< payload m
};

/**
 * The shared half-duplex channel: queues transfer requests from all
 * members and serves them one at a time under the arbiter's policy.
 * Each request carries the host's event to dispatch when it ends.
 */
class SharedRadio
{
  public:
    SharedRadio(EventQueue &queue, const RadioArbiter &arbiter,
                FleetSimResult &result)
        : _queue(queue), _arbiter(arbiter), _result(result)
    {
        // Warmup growth only: once every member has queued at least
        // once, the steady-state loop reuses this capacity.
        _pending.reserve(16);
        _requests.reserve(16);
    }

    /** Queue one channel occupation (a single ARQ attempt, or one
     *  expectation-folded transfer) of length @p air for @p node. */
    void
    occupy(size_t node, Time air, SimEvent on_done)
    {
        _pending.push(
            {{node, _nextSequence++, _queue.now(), air}, on_done});
        arbitrate();
    }

    /** A wakeup armed by arbitrate() fired (kRadioWake). */
    void
    wake()
    {
        // The wakeup fires at exactly the time it was armed for; a
        // newer, earlier wakeup may have replaced it meanwhile.
        if (_wakeupArmed && _wakeupAt == _queue.now())
            _wakeupArmed = false;
        arbitrate();
    }

    /** The current job left the air (kRadioDone): returns its
     *  continuation. The host dispatches it — new requests queue up
     *  behind the busy channel — then calls release(). */
    SimEvent finish() const { return _current.onDone; }

    void
    release()
    {
        _busy = false;
        arbitrate();
    }

  private:
    struct Pending
    {
        RadioRequest request;
        SimEvent onDone;
    };

    void
    arbitrate()
    {
        if (_busy || _pending.empty())
            return;

        // Member scratch, not a local: the capacity survives across
        // arbitrations so the steady-state loop never allocates.
        _requests.clear();
        for (size_t i = 0; i < _pending.size(); ++i)
            _requests.push_back(_pending[i].request);

        Time start;
        const size_t chosen =
            _arbiter.grant(_requests, _queue.now(), &start);
        xproAssert(chosen < _pending.size(),
                   "arbiter chose request %zu of %zu", chosen,
                   _pending.size());
        xproAssert(start >= _queue.now(),
                   "arbiter granted a start in the past");

        if (start > _queue.now()) {
            // The winner may not start yet (e.g. its TDMA slot is
            // ahead). Re-arbitrate at that time; a request arriving
            // in between triggers its own arbitration, so an armed
            // wakeup is only kept if it is still the earliest.
            if (!_wakeupArmed || start < _wakeupAt) {
                _wakeupArmed = true;
                _wakeupAt = start;
                _queue.schedule(start, {kRadioWake});
            }
            return;
        }

        _busy = true;
        _current = _pending.take(chosen);
        _result.radioBusy += _current.request.airTime;
        ++_result.transfers;
        _queue.scheduleAfter(_current.request.airTime, {kRadioDone});
    }

    EventQueue &_queue;
    const RadioArbiter &_arbiter;
    FleetSimResult &_result;
    bool _busy = false;
    bool _wakeupArmed = false;
    Time _wakeupAt;
    HeadFifo<Pending> _pending;
    std::vector<RadioRequest> _requests; // arbitrate() scratch
    Pending _current;                    // the one in-flight job
    uint64_t _nextSequence = 0;
};

/**
 * The aggregator's single CPU: software cells of all members
 * execute one at a time, first come first served.
 */
class CpuServer
{
  public:
    CpuServer(EventQueue &queue, FleetSimResult &result)
        : _queue(queue), _result(result)
    {
        _backlog.reserve(16);
    }

    /** Run a software job of length @p exec; @p done is dispatched
     *  at its completion. */
    void
    submit(Time exec, SimEvent done)
    {
        _backlog.push({exec, done});
        if (!_busy)
            startNext();
    }

    /** The running job finished (kCpuDone): returns its
     *  continuation. The host dispatches it, then calls
     *  startNext(). */
    SimEvent finish() const { return _current.done; }

    void
    startNext()
    {
        if (_backlog.empty()) {
            _busy = false;
            return;
        }
        _busy = true;
        _current = _backlog.take();
        _result.aggregatorBusy += _current.exec;
        _queue.scheduleAfter(_current.exec, {kCpuDone});
    }

  private:
    struct Job
    {
        Time exec;
        SimEvent done;
    };

    EventQueue &_queue;
    FleetSimResult &_result;
    bool _busy = false;
    HeadFifo<Job> _backlog;
    Job _current; // the one running job
};

/**
 * Event-level simulation of a whole fleet. Per-member dataflow
 * state mirrors the single-node SystemSimulator; the difference is
 * the shared radio (arbitrated, not FIFO-per-node) and the shared
 * aggregator CPU (a single server for every member's software
 * cells). Sensor-side cells of different members run concurrently:
 * every node owns its silicon.
 *
 * With a fault profile, all members share one Gilbert-Elliott loss
 * chain (it is one physical channel) but each runs its own outage
 * detector, local fallback and recovery probes: one body walking
 * out of range degrades only its own node.
 */
class FleetSimulator
{
  public:
    FleetSimulator(const std::vector<FleetMember> &members,
                   const WirelessLink &link,
                   const RadioArbiter &arbiter,
                   size_t events_per_node,
                   const FaultProfile *faults = nullptr,
                   const std::vector<NodeOutage> *node_outages =
                       nullptr)
        : _link(link),
          _eventsPerNode(events_per_node),
          _radio(_queue, arbiter, _result),
          _cpu(_queue, _result)
    {
        xproAssert(!members.empty(),
                   "fleet simulation needs at least one member");
        xproAssert(events_per_node > 0, "need at least one event");

        if (faults && faults->enabled)
            _arq.emplace(*faults, link, _queue, nullptr, kArqAttempt);
        if (node_outages)
            _nodeOutages = *node_outages;
        xproAssert(_nodeOutages.empty() || _arq.has_value(),
                   "node outages need the fault machinery enabled");
        for (const NodeOutage &outage : _nodeOutages) {
            xproAssert(outage.node < members.size(),
                       "outage for node %zu of a %zu-node fleet",
                       outage.node, members.size());
        }

        _members.reserve(members.size());
        for (const FleetMember &member : members) {
            xproAssert(member.eventsPerSecond > 0.0,
                       "event rate must be positive");
            Member state(member);
            state.instances.resize(events_per_node);
            const DataflowGraph &graph = member.topology.graph;
            // Struct-of-arrays: the per-(event, node) state of all
            // members shares one arena, so a member's dataflow state
            // costs a few pointers instead of heap vectors and the
            // setup's allocation count stays independent of both
            // fleet size and events_per_node (until the arena block
            // size is exceeded, at which point the arena grows in
            // fixed blocks — still a constant number of heap
            // allocations for a fixed workload shape).
            const size_t nodes = graph.nodeCount();
            state.graphNodes = nodes;
            const size_t cells = events_per_node * nodes;
            state.inputsPending = _stateArena.alloc<size_t>(cells);
            state.done = _stateArena.alloc<uint8_t>(cells);
            std::memset(state.inputsPending, 0,
                        cells * sizeof(size_t));
            std::memset(state.done, 0, cells);
            for (size_t k = 0; k < events_per_node; ++k) {
                for (size_t v = 1; v < nodes; ++v) {
                    state.inputsPending[k * nodes + v] =
                        graph.predecessors(v).size();
                }
            }
            if (_arq) {
                state.fallback.emplace(member.topology,
                                       member.placement);
                state.sensorFinishAt =
                    _stateArena.alloc<std::optional<Time>>(cells);
                std::uninitialized_fill_n(state.sensorFinishAt, cells,
                                          std::nullopt);
            }
            _maxGraphNodes = std::max(_maxGraphNodes, nodes);
            _maxGroups = std::max(_maxGroups, state.groups.size());
            _members.push_back(std::move(state));
        }
        // Strides for packing (member, event, node/group) into one
        // event payload.
        _maxGraphNodes = std::max<size_t>(_maxGraphNodes, 1);
        _maxGroups = std::max<size_t>(_maxGroups, 1);
        _queue.reserve(members.size() * events_per_node, 64);
    }

    FleetSimResult
    run()
    {
        for (size_t m = 0; m < _members.size(); ++m) {
            const Time period = Time::seconds(
                1.0 / _members[m].spec->eventsPerSecond);
            for (size_t k = 0; k < _eventsPerNode; ++k) {
                _queue.preload(period * static_cast<double>(k),
                               {kInject, m * _eventsPerNode + k});
            }
        }
        _queue.runAll(
            [this](const SimEvent &event) { dispatch(event); },
            4000000);

        if (_arq) {
            RobustnessReport &stats = _arq->stats();
            for (const Member &member : _members) {
                stats.bufferedResults += member.buffered.size();
                if (member.degradedMode) {
                    stats.outageTimeMs +=
                        (_queue.now() - member.outageStart).ms();
                }
            }
            if (stats.replayedResults > 0) {
                stats.meanRecoveryMs =
                    _recoverySum.ms() /
                    static_cast<double>(stats.replayedResults);
            }
            _result.robustness = stats;
        }

        _result.members.resize(_members.size());
        for (size_t m = 0; m < _members.size(); ++m) {
            const Member &member = _members[m];
            const Time period = Time::seconds(
                1.0 / member.spec->eventsPerSecond);
            MemberSimResult &out = _result.members[m];
            out.events = _eventsPerNode;
            out.degradedEvents = member.degradedEvents;
            Time latency_sum;
            for (size_t k = 0; k < _eventsPerNode; ++k) {
                const Instance &instance = member.instances[k];
                xproAssert(instance.resultAt.has_value(),
                           "member %zu event %zu never completed",
                           m, k);
                const Time completion = *instance.resultAt;
                const Time latency =
                    completion - period * static_cast<double>(k);
                latency_sum += latency;
                out.worstLatency =
                    std::max(out.worstLatency, latency);
                if (latency > period)
                    ++out.deadlineMisses;
                if (k == 0)
                    out.firstCompletion = completion;
                _result.span = std::max(_result.span, completion);
            }
            out.meanLatency = Time::seconds(
                latency_sum.sec() /
                static_cast<double>(_eventsPerNode));
        }
        return std::move(_result);
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

    struct Member
    {
        explicit Member(const FleetMember &member)
            : spec(&member), groups(member.topology, member.placement)
        {}

        const FleetMember *spec;
        PlacedGroups groups;
        std::vector<Instance> instances;
        /** Flat per-(event, node) dataflow state, indexed
         * k * graphNodes + v; arena-backed slabs shared by every
         * member (owned by FleetSimulator::_stateArena). */
        size_t graphNodes = 0;
        size_t *inputsPending = nullptr;
        uint8_t *done = nullptr;
        // Per-node fault-path state: the local-fallback planner and
        // its per-(event, node) sensor finish times (arena-backed),
        // plus the outage detector.
        std::optional<LocalFallbackPlanner> fallback;
        std::optional<Time> *sensorFinishAt = nullptr;
        size_t abandonStreak = 0;
        bool degradedMode = false;
        Time outageStart;
        std::vector<size_t> buffered;
        size_t degradedEvents = 0;
    };

    uint64_t mk(size_t m, size_t k) const
    {
        return m * _eventsPerNode + k;
    }

    void
    dispatch(const SimEvent &event)
    {
        const uint64_t p = event.payload;
        switch (event.kind) {
        case kInject:
            completeNode(p / _eventsPerNode, p % _eventsPerNode,
                         DataflowGraph::sourceId);
            break;
        case kFinishNode: {
            const uint64_t rest = p / _maxGraphNodes;
            finishNode(rest / _eventsPerNode, rest % _eventsPerNode,
                       p % _maxGraphNodes);
            break;
        }
        case kRadioWake:
            _radio.wake();
            break;
        case kRadioDone:
            dispatch(_radio.finish());
            _radio.release();
            break;
        case kCpuDone:
            dispatch(_cpu.finish());
            _cpu.startNext();
            break;
        case kDeliverGroup: {
            const uint64_t rest = p / _maxGroups;
            const size_t m = rest / _eventsPerNode;
            const size_t k = rest % _eventsPerNode;
            for (size_t v :
                 _members[m].groups.otherEnd(p % _maxGroups))
                deliverTo(m, k, v);
            break;
        }
        case kLegacyResult:
            _members[p / _eventsPerNode]
                .instances[p % _eventsPerNode]
                .resultAt = _queue.now();
            break;
        case kLocalResult:
            localResult(p / _eventsPerNode, p % _eventsPerNode);
            break;
        case kProbeTimer:
            if (_members[p].degradedMode)
                sendProbe(p);
            break;
        case kArqAttempt:
            attemptArq(static_cast<uint32_t>(p));
            break;
        case kArqChannelDone:
            arqChannelDone(static_cast<uint32_t>(p));
            break;
        default:
            panic("unknown fleet-simulator event kind %u", event.kind);
        }
    }

    void
    deliverTo(size_t m, size_t k, size_t v)
    {
        Member &member = _members[m];
        size_t &pending =
            member.inputsPending[k * member.graphNodes + v];
        xproAssert(pending > 0, "duplicate delivery to node %zu",
                   v);
        if (--pending == 0)
            completeNode(m, k, v);
    }

    void
    completeNode(size_t m, size_t k, size_t u)
    {
        Member &member = _members[m];
        const SimEvent finish{kFinishNode,
                              mk(m, k) * _maxGraphNodes + u};
        if (u == DataflowGraph::sourceId) {
            if (_arq) {
                member.sensorFinishAt[k * member.graphNodes + u] =
                    _queue.now();
                // Injected mid-outage: straight to local fallback.
                if (member.degradedMode)
                    degradeEvent(m, k);
            }
            _queue.scheduleAfter(Time(), finish);
            return;
        }
        const CellCosts &costs =
            member.spec->topology.graph.node(u).costs;
        if (member.spec->placement.inSensor(u)) {
            // The member's own hardware: runs concurrently with
            // every other node's cells.
            if (_arq) {
                member.sensorFinishAt[k * member.graphNodes + u] =
                    _queue.now() + costs.sensorDelay;
            }
            _queue.scheduleAfter(costs.sensorDelay, finish);
        } else {
            // Software on the one shared aggregator core.
            _cpu.submit(costs.aggregatorDelay, finish);
        }
    }

    void
    finishNode(size_t m, size_t k, size_t u)
    {
        Member &member = _members[m];
        const EngineTopology &topology = member.spec->topology;
        const Placement &placement = member.spec->placement;
        member.done[k * member.graphNodes + u] = 1;

        // Degraded instances stop propagating: everything not yet
        // started is being recomputed by the local fallback.
        if (member.instances[k].degraded)
            return;

        if (u == topology.fusionNode) {
            if (placement.inSensor(u)) {
                if (_arq) {
                    sendArq(m, EngineTopology::resultBits, true,
                            {kResultSettled, mk(m, k)});
                } else {
                    const TransferCost cost =
                        _link.transfer(EngineTopology::resultBits);
                    _radio.occupy(m, cost.airTime,
                                  {kLegacyResult, mk(m, k)});
                }
            } else {
                member.instances[k].resultAt = _queue.now();
            }
        }

        const PlacedGroups &groups = member.groups;
        for (size_t g = groups.first(u); g < groups.first(u + 1);
             ++g) {
            for (size_t v : groups.sameEnd(g))
                deliverTo(m, k, v);
            if (groups.otherEnd(g).empty())
                continue;
            const size_t bits = groups.group(g).bits;
            const uint64_t packed = mk(m, k) * _maxGroups + g;
            if (_arq) {
                sendArq(m, bits, placement.inSensor(u),
                        {kPayloadSettled, packed});
            } else {
                _radio.occupy(m, _link.transfer(bits).airTime,
                              {kDeliverGroup, packed});
            }
        }
    }

    // ---- Fault-injected path -------------------------------------

    /** True while member @p m is inside a scripted dropout. */
    bool
    nodeInOutage(size_t m, Time at) const
    {
        for (const NodeOutage &outage : _nodeOutages) {
            if (outage.node == m && at >= outage.start &&
                at < outage.end)
                return true;
        }
        return false;
    }

    /** Submit one packet of member @p m to ARQ and start its first
     *  attempt. */
    void
    sendArq(size_t m, size_t bits, bool sender_in_sensor,
            SimEvent on_settled, bool is_probe = false)
    {
        ArqPacket packet;
        packet.payloadBits = bits;
        packet.senderInSensor = sender_in_sensor;
        packet.isProbe = is_probe;
        packet.owner = static_cast<uint32_t>(m);
        packet.onSettled = on_settled;
        attemptArq(_arq->open(std::move(packet)));
    }

    void
    attemptArq(uint32_t slot)
    {
        const size_t m = _arq->packet(slot).owner;
        const Time air =
            _arq->attempt(slot, nodeInOutage(m, _queue.now()));
        _radio.occupy(m, air, {kArqChannelDone, slot});
    }

    void
    arqChannelDone(uint32_t slot)
    {
        const size_t m = _arq->packet(slot).owner;
        SimEvent settled;
        const ArqMachine::Outcome outcome = _arq->settle(slot, &settled);
        if (outcome == ArqMachine::Outcome::Retry)
            return;
        const bool delivered =
            outcome == ArqMachine::Outcome::Delivered;
        const uint64_t p = settled.payload;
        switch (settled.kind) {
        case kPayloadSettled: {
            const size_t k = (p / _maxGroups) % _eventsPerNode;
            onPacketOutcome(m, delivered);
            if (!delivered) {
                degradeEvent(m, k);
            } else if (!_members[m].instances[k].degraded) {
                for (size_t v :
                     _members[m].groups.otherEnd(p % _maxGroups))
                    deliverTo(m, k, v);
            }
            break;
        }
        case kResultSettled: {
            const size_t k = p % _eventsPerNode;
            onPacketOutcome(m, delivered);
            Instance &instance = _members[m].instances[k];
            if (instance.degraded)
                break;
            if (delivered)
                instance.resultAt = _queue.now();
            else
                degradeEvent(m, k);
            break;
        }
        case kReplaySettled: {
            const size_t k = p % _eventsPerNode;
            onPacketOutcome(m, delivered);
            if (delivered) {
                ++_arq->stats().replayedResults;
                _recoverySum +=
                    _queue.now() -
                    *_members[m].instances[k].localResultAt;
            } else {
                _members[m].buffered.push_back(k);
            }
            break;
        }
        case kProbeSettled:
            if (!_members[m].degradedMode)
                break;
            if (delivered)
                onPacketOutcome(m, true);
            else
                scheduleProbe(m);
            break;
        default:
            panic("unknown ARQ outcome kind %u", settled.kind);
        }
    }

    void
    replayResult(size_t m, size_t k)
    {
        sendArq(m, EngineTopology::resultBits, true,
                {kReplaySettled, mk(m, k)});
    }

    void
    onPacketOutcome(size_t m, bool delivered)
    {
        Member &member = _members[m];
        RobustnessReport &stats = _arq->stats();
        if (delivered) {
            member.abandonStreak = 0;
            if (member.degradedMode) {
                member.degradedMode = false;
                stats.outageTimeMs +=
                    (_queue.now() - member.outageStart).ms();
                // Replays settle no earlier than their first channel
                // occupation ends, so nothing re-shelves meanwhile.
                _replaying.swap(member.buffered);
                for (size_t k : _replaying)
                    replayResult(m, k);
                _replaying.clear();
            }
            return;
        }
        ++member.abandonStreak;
        if (!member.degradedMode &&
            member.abandonStreak >= _arq->profile().outageThreshold) {
            member.degradedMode = true;
            member.outageStart = _queue.now();
            ++stats.outages;
            scheduleProbe(m);
        }
    }

    void
    scheduleProbe(size_t m)
    {
        const Member &member = _members[m];
        // Probing stops one period past the member's last injection
        // so the queue always drains under a permanent outage.
        const Time horizon =
            Time::seconds(1.0 / member.spec->eventsPerSecond) *
            static_cast<double>(_eventsPerNode);
        const Time next =
            _queue.now() + _arq->profile().probeInterval;
        if (next > horizon)
            return;
        _queue.schedule(next, {kProbeTimer, m});
    }

    void
    sendProbe(size_t m)
    {
        sendArq(m, EngineTopology::resultBits, true,
                {kProbeSettled, m}, /*is_probe=*/true);
    }

    /** Finish member @p m's event @p k locally from now on. */
    void
    degradeEvent(size_t m, size_t k)
    {
        Member &member = _members[m];
        Instance &instance = member.instances[k];
        if (instance.degraded)
            return;
        instance.degraded = true;
        ++member.degradedEvents;
        ++_arq->stats().degradedEvents;
        const LocalFallback plan = member.fallback->plan(
            std::span(member.sensorFinishAt + k * member.graphNodes,
                      member.graphNodes),
            _queue.now());
        _queue.schedule(plan.completion, {kLocalResult, mk(m, k)});
    }

    void
    localResult(size_t m, size_t k)
    {
        Member &member = _members[m];
        Instance &instance = member.instances[k];
        instance.resultAt = _queue.now();
        instance.localResultAt = _queue.now();
        if (member.degradedMode)
            member.buffered.push_back(k);
        else
            replayResult(m, k);
    }

    const WirelessLink &_link;
    size_t _eventsPerNode;
    /** Packing strides for single-word event payloads. */
    size_t _maxGraphNodes = 0;
    size_t _maxGroups = 0;
    EventQueue _queue;
    FleetSimResult _result;
    SharedRadio _radio;
    CpuServer _cpu;
    /** Backs every member's per-(event, node) slabs; declared
     *  before _members so the pointers outlive their users. */
    Arena _stateArena;
    std::vector<Member> _members;

    // Fault-injection state (unused on the legacy path).
    std::optional<ArqMachine> _arq;
    std::vector<NodeOutage> _nodeOutages;
    std::vector<size_t> _replaying; ///< buffered-replay scratch
    Time _recoverySum;
};

/** Longest single payload any member can put on the air. */
Time
largestAirTime(const std::vector<FleetMember> &members,
               const WirelessLink &link)
{
    Time largest = link.transfer(EngineTopology::resultBits).airTime;
    for (const FleetMember &member : members) {
        for (const BroadcastGroup &group :
             broadcastGroups(member.topology)) {
            largest = std::max(largest,
                               link.transfer(group.bits).airTime);
        }
    }
    return largest;
}

} // namespace

FleetSimResult
simulateFleet(const std::vector<FleetMember> &members,
              const WirelessLink &link, const RadioArbiter &arbiter,
              size_t events_per_node)
{
    FleetSimulator simulator(members, link, arbiter,
                             events_per_node);
    return simulator.run();
}

FleetSimResult
simulateFleet(const std::vector<FleetMember> &members,
              const WirelessLink &link, const RadioArbiter &arbiter,
              size_t events_per_node, const FaultProfile &faults,
              const std::vector<NodeOutage> &node_outages)
{
    if (!faults.enabled && node_outages.empty())
        return simulateFleet(members, link, arbiter,
                             events_per_node);
    // Scripted dropouts alone ride on the ARQ/fallback machinery
    // with an otherwise loss-free channel.
    FaultProfile profile = faults;
    profile.enabled = true;
    profile.validate();
    FleetSimulator simulator(members, link, arbiter, events_per_node,
                             &profile, &node_outages);
    return simulator.run();
}

FleetResult
runFleet(const FleetConfig &config)
{
    xproAssert(!config.nodes.empty(),
               "fleet needs at least one node");
    xproAssert(config.eventRateScale > 0.0,
               "event rate scale must be positive");

    ChannelModel channel;
    channel.bitErrorRate = config.bitErrorRate;
    const WirelessLink link(transceiver(config.wireless), channel);

    FleetResult result;

    // Phase 1: per-node design, concurrently.
    WorkerPool pool(config.workers);
    std::vector<XProDesign> designs =
        designFleet(config.nodes, config.wireless,
                    config.bitErrorRate, pool, config.sweepWorkers);
    result.designWork = pool.lastWork();
    result.designMakespan = pool.lastMakespan();
    result.designWall = pool.lastWall();

    const auto eventRate = [&](size_t i) {
        const TestCaseInfo &info =
            testCaseInfo(config.nodes[i].testCase);
        return info.sampleRateHz /
               static_cast<double>(info.segmentLength);
    };

    // Phase 2: admission against the shared aggregator.
    std::vector<AdmissionCandidate> candidates;
    candidates.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        candidates.push_back({&designs[i].topology,
                              &designs[i].partition.placement,
                              eventRate(i)});
    }
    result.admission =
        admitFleet(candidates, link, config.admission);

    // Phase 3: event-level simulation on the shared channel.
    std::vector<FleetMember> members;
    members.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        members.push_back({designs[i].topology,
                           result.admission.nodes[i].placement,
                           eventRate(i) * config.eventRateScale});
    }

    const FcfsArbiter fcfs;
    std::unique_ptr<TdmaArbiter> tdma;
    const RadioArbiter *arbiter = &fcfs;
    if (config.policy == RadioPolicy::Tdma) {
        const Time slot = config.tdmaSlot > Time()
                              ? config.tdmaSlot
                              : largestAirTime(members, link);
        tdma = std::make_unique<TdmaArbiter>(members.size(), slot);
        arbiter = tdma.get();
    }
    if (config.faults.enabled || !config.nodeOutages.empty()) {
        result.sim =
            simulateFleet(members, link, *arbiter,
                          config.eventsPerNode, config.faults,
                          config.nodeOutages);
    } else {
        result.sim = simulateFleet(members, link, *arbiter,
                                   config.eventsPerNode);
    }

    // Per-node analytic evaluation of the admitted placements.
    const Aggregator aggregator;
    result.nodes.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        FleetNodeResult node;
        node.spec = config.nodes[i];
        node.design = std::move(designs[i]);
        node.admission = result.admission.nodes[i];
        SensorNodeConfig sensor_config;
        sensor_config.process = node.spec.process;
        node.evaluation = evaluateEngine(
            EngineKind::CrossEnd, node.design.topology,
            node.admission.placement, link,
            SensorNode(sensor_config), aggregator,
            WorkloadContext{eventRate(i)});
        result.nodes.push_back(std::move(node));
    }

    // Fleet report.
    FleetReport &report = result.report;
    report.robustness = result.sim.robustness;
    report.policy = arbiter->name();
    report.nodeCount = result.nodes.size();
    report.spanMs = result.sim.span.ms();
    report.radioBusyMs = result.sim.radioBusy.ms();
    report.radioOccupancy =
        result.sim.span > Time()
            ? result.sim.radioBusy / result.sim.span
            : 0.0;
    report.transfers = result.sim.transfers;
    report.aggregatorBusyMs = result.sim.aggregatorBusy.ms();
    report.aggregatorUtilization =
        result.sim.span > Time()
            ? result.sim.aggregatorBusy / result.sim.span
            : 0.0;
    report.aggregatorCpuShare = result.admission.cpuUtilization;
    report.aggregatorPowerUw = result.admission.power.uw();
    report.aggregatorLifetimeHours =
        aggregator.battery()
            .lifetime(result.admission.power +
                      aggregator.idlePower())
            .hr();

    for (size_t i = 0; i < result.nodes.size(); ++i) {
        const FleetNodeResult &node = result.nodes[i];
        const MemberSimResult &sim = result.sim.members[i];
        FleetNodeReportRow row;
        row.symbol = testCaseInfo(node.spec.testCase).symbol;
        row.process = processNodeName(node.spec.process);
        row.admission =
            admissionOutcomeName(node.admission.outcome);
        row.sensorCells =
            node.admission.placement.sensorCellCount();
        row.totalCells = node.design.topology.graph.cellCount();
        row.accuracy = node.design.pipeline.testAccuracy;
        row.eventsPerSecond = eventRate(i);
        row.sensorLifetimeHours =
            node.evaluation.sensorLifetime.hr();
        row.events = sim.events;
        row.deadlineMisses = sim.deadlineMisses;
        row.meanLatencyMs = sim.meanLatency.ms();
        row.worstLatencyMs = sim.worstLatency.ms();
        row.aggregatorPowerUw = node.admission.power.uw();
        row.degradedEvents = sim.degradedEvents;
        report.totalEvents += sim.events;
        report.totalDeadlineMisses += sim.deadlineMisses;
        report.rows.push_back(std::move(row));
    }

    // Phase 4: steady-state serving. Segments come round-robin
    // across the nodes' regenerated datasets (makeTestCase is a pure
    // function of (case, seed), so the stream is deterministic) and
    // are classified through the allocation-free SIMD hot path, one
    // cross-user batch at a time. Every event is classified by its
    // own user's pipeline independently, so the predictions — and
    // hence the report bytes — are identical at any batch size and
    // worker count.
    if (config.servingEvents > 0) {
        std::vector<SignalDataset> datasets;
        std::vector<HotPathPipeline> pipelines;
        datasets.reserve(result.nodes.size());
        pipelines.reserve(result.nodes.size());
        for (const FleetNodeResult &node : result.nodes) {
            datasets.push_back(
                makeTestCase(node.spec.testCase, node.spec.seed));
            pipelines.emplace_back(node.design.pipeline);
        }
        std::vector<const HotPathPipeline *> users;
        users.reserve(pipelines.size());
        for (const HotPathPipeline &pipeline : pipelines)
            users.push_back(&pipeline);

        std::vector<ServingEvent> events;
        events.reserve(config.servingEvents);
        for (size_t e = 0; e < config.servingEvents; ++e) {
            const size_t user = e % users.size();
            const SignalDataset &data = datasets[user];
            const Segment &segment =
                data.segments[(e / users.size()) %
                              data.segments.size()];
            events.push_back({static_cast<uint32_t>(user),
                              segment.samples.data(),
                              segment.samples.size()});
        }

        BatchServer server(std::move(users), config.batchEvents,
                           config.servingWorkers);
        const std::vector<int> labels = server.serve(events);

        ServingReport &serving = report.serving;
        serving.enabled = true;
        serving.events = labels.size();
        serving.users = result.nodes.size();
        serving.nodeEvents.assign(result.nodes.size(), 0);
        serving.nodePositives.assign(result.nodes.size(), 0);
        for (size_t e = 0; e < labels.size(); ++e) {
            const size_t user = events[e].user;
            ++serving.nodeEvents[user];
            if (labels[e] > 0) {
                ++serving.positives;
                ++serving.nodePositives[user];
            }
        }
    }
    return result;
}

} // namespace xpro
