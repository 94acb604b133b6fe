#include "sim/system_sim.hh"

#include <algorithm>
#include <bit>
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

/** Event kinds of the detailed simulator (SimEvent::kind). Payload
 *  "mk" is the instance index m * eventsPerMember + k; "mk:u" and
 *  "mk:g" carry a node or group index in the low bits below it. */
enum Kind : uint32_t
{
    kInject,         ///< raw segment acquired; payload mk
    kFinishNode,     ///< payload mk:u
    kRadioWake,      ///< re-arbitrate the shared radio
    kRadioDone,      ///< the radio's current job left the air
    kCpuDone,        ///< the shared aggregator CPU's job finished
    kDeliverGroup,   ///< fault-free payload landed; mk:g
    kLegacyResult,   ///< fault-free result landed; payload mk
    kLocalResult,    ///< local fallback classified; payload mk
    kProbeTimer,     ///< recovery probe due; payload m
    kArqAttempt,     ///< next ARQ attempt; payload slot
    kArqChannelDone, ///< an ARQ attempt left the air; payload slot
    // ARQ outcomes (ArqPacket::onSettled), run with the outcome.
    kPayloadSettled, ///< cross-end payload; mk:g
    kResultSettled,  ///< in-sensor fusion result; payload mk
    kReplaySettled,  ///< replayed local result; payload mk
    kProbeSettled,   ///< recovery probe; payload m
};

/**
 * The half-duplex channel: queues transfer requests from all members
 * and serves them one at a time under the arbiter's policy. Each
 * request carries the simulator's event to dispatch when it ends.
 * FCFS grants the oldest request at max(now, ready), so it never
 * waits for a wakeup: with one member it is a plain FIFO radio.
 */
class RadioChannel
{
  public:
    RadioChannel(EventQueue &queue, const RadioArbiter &arbiter,
                 SimResult &result, bool capture_trace)
        : _queue(queue), _arbiter(arbiter), _result(result),
          _captureTrace(capture_trace)
    {
        // Warmup growth only: once every member has queued at least
        // once, the steady-state loop reuses this capacity.
        _pending.reserve(16);
        _onDone.reserve(16);
    }

    /**
     * Queue one channel occupation (a single ARQ attempt, or one
     * expectation-folded transfer) of length @p air for @p node;
     * @p on_done is dispatched when it ends. @p what is read only
     * when tracing.
     */
    void
    occupy(size_t node, Time air, SimEvent on_done, std::string what)
    {
        const RadioRequest request{node, _nextSequence++, _queue.now(),
                                   air};
        // Idle channel, empty queue: arbitrate over this request
        // alone, and when it may start now, skip the queue (the
        // common case, decided exactly as arbitrate() would).
        if (!_busy && _pending.empty()) {
            Time start;
            grant({&request, 1}, &start);
            if (start == _queue.now()) {
                begin(air, on_done, std::move(what));
                return;
            }
        }
        _pending.push(request);
        _onDone.push(on_done);
        if (_captureTrace)
            _what.push(std::move(what));
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
     *  continuation. The simulator dispatches it — new requests
     *  queue up behind the busy channel — then calls release(). */
    SimEvent
    finish()
    {
        if (_captureTrace) {
            _result.trace.push_back(
                {_queue.now(), "radio done: " + _currentWhat});
        }
        return _currentOnDone;
    }

    void
    release()
    {
        _busy = false;
        arbitrate();
    }

  private:
    /** The arbiter's pick among @p requests, and its start. */
    size_t
    grant(std::span<const RadioRequest> requests, Time *start) const
    {
        const size_t chosen =
            _arbiter.grant(requests, _queue.now(), start);
        xproAssert(chosen < requests.size(),
                   "arbiter chose request %zu of %zu", chosen,
                   requests.size());
        xproAssert(*start >= _queue.now(),
                   "arbiter granted a start in the past");
        return chosen;
    }

    /** Put a job on the air for @p air, starting now. */
    void
    begin(Time air, SimEvent on_done, std::string what)
    {
        _busy = true;
        _currentOnDone = on_done;
        if (_captureTrace) {
            _currentWhat = std::move(what);
            _result.trace.push_back(
                {_queue.now(), "radio start: " + _currentWhat});
        }
        _result.radioBusy += air;
        ++_result.transfers;
        _queue.scheduleAfter(air, {kRadioDone});
    }

    void
    arbitrate()
    {
        if (_busy || _pending.empty())
            return;

        Time start;
        const size_t chosen = grant(_pending.view(), &start);
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

        const Time air = _pending.take(chosen).airTime;
        const SimEvent on_done = _onDone.take(chosen);
        begin(air, on_done,
              _captureTrace ? _what.take(chosen) : std::string());
    }

    EventQueue &_queue;
    const RadioArbiter &_arbiter;
    SimResult &_result;
    const bool _captureTrace;
    bool _busy = false;
    bool _wakeupArmed = false;
    Time _wakeupAt;
    /** The queue the arbiter sees; each request's continuation and
     *  (only when tracing) its tag are kept in step with it. */
    HeadFifo<RadioRequest> _pending;
    HeadFifo<SimEvent> _onDone;
    HeadFifo<std::string> _what;
    /** The job on the air. */
    SimEvent _currentOnDone;
    std::string _currentWhat;
    uint64_t _nextSequence = 0;
};

/**
 * The aggregator's single CPU: software cells of all members
 * execute one at a time, first come first served.
 */
class CpuServer
{
  public:
    CpuServer(EventQueue &queue, Time &busy) : _queue(queue), _busy(busy)
    {
        _backlog.reserve(16);
    }

    /** Run a software job of length @p exec; @p done is dispatched
     *  at its completion. */
    void
    submit(Time exec, SimEvent done)
    {
        _backlog.push({exec, done});
        if (!_running)
            startNext();
    }

    /** The running job finished (kCpuDone): returns its
     *  continuation. The simulator dispatches it, then calls
     *  startNext(). */
    SimEvent finish() const { return _current.done; }

    void
    startNext()
    {
        if (_backlog.empty()) {
            _running = false;
            return;
        }
        _running = true;
        _current = _backlog.take();
        _busy += _current.exec;
        _queue.scheduleAfter(_current.exec, {kCpuDone});
    }

  private:
    struct Job
    {
        Time exec;
        SimEvent done;
    };

    EventQueue &_queue;
    Time &_busy;
    bool _running = false;
    HeadFifo<Job> _backlog;
    Job _current; // the one running job
};

/**
 * Simulates independent events of one or more placed engines
 * sharing one radio. Per-(member, event, node) dataflow state lives
 * in flat arrays so consecutive segments may overlap in time, and
 * the setup's allocation count is independent of the event count
 * (the counting-allocator tests compare runs of different lengths),
 * on the fault path too.
 *
 * With a fault profile, inter-end payloads go through bounded ARQ
 * (sim/fault_sim) instead of the expectation-folded transfer costs,
 * and abandoned packets drive each member's outage detector and
 * local fallback.
 */
class CrossEndSimulator
{
  public:
    CrossEndSimulator(std::span<const SimMember> members,
                      const WirelessLink &link,
                      const RadioArbiter &arbiter,
                      size_t events_per_member,
                      const FaultProfile &faults,
                      std::span<const NodeOutage> node_outages,
                      AggregatorCells cells, bool capture_trace)
        : _link(link),
          _eventsPerMember(events_per_member),
          _captureTrace(capture_trace),
          _radio(_queue, arbiter, _result.totals, capture_trace),
          _nodeOutages(node_outages)
    {
        xproAssert(!members.empty(),
                   "simulation needs at least one member");
        xproAssert(events_per_member > 0, "need at least one event");
        if (cells == AggregatorCells::SharedCpu)
            _cpu.emplace(_queue, _result.aggregatorBusy);
        if (faults.enabled) {
            _arq.emplace(faults, link, _queue,
                         _result.totals.sensorEnergy, kArqAttempt);
        }
        xproAssert(_nodeOutages.empty() || _arq.has_value(),
                   "node outages need the fault machinery enabled");
        for (const NodeOutage &outage : _nodeOutages) {
            xproAssert(outage.node < members.size(),
                       "outage for node %zu of a %zu-node fleet",
                       outage.node, members.size());
        }

        _members.reserve(members.size());
        size_t rows = 0;
        size_t max_nodes = 1;
        size_t max_groups = 1;
        for (const SimMember &spec : members) {
            Member &member = _members.emplace_back(spec);
            member.horizon =
                spec.period * static_cast<double>(events_per_member);
            member.graphNodes = spec.topology->graph.nodeCount();
            rows += events_per_member * member.graphNodes;
            max_nodes = std::max(max_nodes, member.graphNodes);
            max_groups = std::max(max_groups, member.groups.size());
            if (_arq) {
                member.fallback.emplace(*spec.topology,
                                        *spec.placement);
                // An event sits in at most one of buffered and
                // _replaying at a time.
                member.buffered.reserve(events_per_member);
            }
        }
        // Node and group indices ride in the low bits of an event
        // payload, above them the instance index mk.
        _nodeBits = std::bit_width(max_nodes - 1);
        _groupBits = std::bit_width(max_groups - 1);

        // A member's rows are contiguous: its first event's row holds
        // the predecessor counts, every later row is a copy of it.
        _instances.resize(members.size() * events_per_member);
        _inputsPending.resize(rows);
        _done.assign(rows, 0);
        size_t row = 0;
        for (size_t m = 0; m < _members.size(); ++m) {
            const DataflowGraph &graph = _members[m].spec.topology->graph;
            const size_t nodes = _members[m].graphNodes;
            uint32_t *const first = &_inputsPending[row];
            first[DataflowGraph::sourceId] = 0;
            for (size_t v = 1; v < nodes; ++v)
                first[v] = static_cast<uint32_t>(graph.predecessors(v).size());
            for (size_t k = 0; k < events_per_member; ++k, row += nodes) {
                Instance &instance = _instances[mk(m, k)];
                instance.member = static_cast<uint32_t>(m);
                instance.row = row;
                if (k > 0)
                    std::copy_n(first, nodes, &_inputsPending[row]);
            }
        }
        if (_arq) {
            _sensorFinishAt.assign(rows, std::nullopt);
            _replaying.reserve(events_per_member);
        }
        _eventCap = eventCap();
        // All injections wait outside the heap, which then holds
        // only a few in-flight completions.
        _queue.reserve(_instances.size(), 64);
    }

    /** Run to completion and harvest the results. */
    DetailedRun
    run()
    {
        for (size_t m = 0; m < _members.size(); ++m) {
            const Time period = _members[m].spec.period;
            for (size_t k = 0; k < _eventsPerMember; ++k) {
                _queue.preload(period * static_cast<double>(k),
                               {kInject, mk(m, k)});
            }
        }
        _queue.runAll([this](const SimEvent &event) { dispatch(event); },
                      _eventCap);

        SimResult &totals = _result.totals;
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
            totals.robustness = stats;
        }

        _result.members.resize(_members.size());
        for (size_t m = 0; m < _members.size(); ++m)
            summarize(m);
        totals.completion = *_instances.back().resultAt;
        return std::move(_result);
    }

  private:
    /** One event of one member. */
    struct Instance
    {
        std::optional<Time> resultAt;
        /** Fault path: when the local classification was produced. */
        std::optional<Time> localResultAt;
        /** Start of the event's row in the flat per-node state. */
        size_t row = 0;
        uint32_t member = 0;
        /** Fault path: classified via the local fallback. */
        bool degraded = false;
    };

    struct Member
    {
        explicit Member(const SimMember &member)
            : spec(member), groups(*member.topology, *member.placement)
        {}

        SimMember spec;
        PlacedGroups groups;
        /** Recovery probes stop here (period * events). */
        Time horizon;
        size_t graphNodes = 0;
        // Fault path: the local-fallback planner and the outage
        // detector.
        std::optional<LocalFallbackPlanner> fallback;
        size_t abandonStreak = 0;
        bool degradedMode = false;
        Time outageStart;
        /** Instances whose local result awaits replay. */
        std::vector<size_t> buffered;
        size_t degradedEvents = 0;
        size_t probeCount = 0;
    };

    /** Instance index of member @p m's event @p k. */
    uint64_t mk(size_t m, size_t k) const
    {
        return m * _eventsPerMember + k;
    }

    /** Event index of instance @p i within its member (for traces). */
    size_t eventOf(size_t i) const
    {
        return i % _eventsPerMember;
    }

    Member &memberOf(size_t i) { return _members[_instances[i].member]; }

    /**
     * Runaway-loop guard sized from this run's own inputs. Per event
     * a member injects once, finishes and queues every node on the
     * CPU at most once, and puts each cross-end payload group, its
     * result and one replay on the air; every such packet makes up to
     * 1 + maxRetries attempts, each a retry timer, a channel release
     * and an arbitration wakeup. Probes add one timer plus the same
     * per attempt up to the member's horizon. Twice that plus a
     * constant stays far above any legitimate run and still stops a
     * loop.
     */
    size_t
    eventCap() const
    {
        const size_t attempts =
            _arq ? 1 + _arq->profile().arq.maxRetries : 1;
        size_t bound = 0;
        for (const Member &member : _members) {
            size_t packets = 2;
            for (size_t g = 0; g < member.groups.size(); ++g)
                packets += !member.groups.otherEnd(g).empty();
            bound += _eventsPerMember * (1 + 2 * member.graphNodes +
                                         3 * attempts * packets);
            if (_arq) {
                const size_t probes =
                    static_cast<size_t>(
                        member.horizon / _arq->profile().probeInterval) +
                    1;
                bound += probes * (1 + 3 * attempts);
            }
        }
        return 2 * bound + 1024;
    }

    /** Run one event; @p delivered is the packet's outcome for the
     *  ARQ outcome kinds. */
    void
    dispatch(const SimEvent &event, bool delivered = false)
    {
        const uint64_t p = event.payload;
        switch (event.kind) {
        case kInject:
            completeNode(memberOf(p), p, DataflowGraph::sourceId);
            break;
        case kFinishNode:
            finishNode(p >> _nodeBits, p & lowBits(_nodeBits));
            break;
        case kRadioWake:
            _radio.wake();
            break;
        case kRadioDone:
            dispatch(_radio.finish());
            _radio.release();
            break;
        case kCpuDone:
            dispatch(_cpu->finish());
            _cpu->startNext();
            break;
        case kDeliverGroup:
            deliverGroup(p >> _groupBits, p & lowBits(_groupBits));
            break;
        case kLegacyResult:
            _instances[p].resultAt = _queue.now();
            break;
        case kLocalResult:
            localResult(p);
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
        case kPayloadSettled: {
            const size_t i = p >> _groupBits;
            onPacketOutcome(_instances[i].member, delivered);
            if (!delivered)
                degradeEvent(i);
            else if (!_instances[i].degraded)
                deliverGroup(i, p & lowBits(_groupBits));
            break;
        }
        case kResultSettled:
            onPacketOutcome(_instances[p].member, delivered);
            if (_instances[p].degraded)
                break;
            if (delivered)
                _instances[p].resultAt = _queue.now();
            else
                degradeEvent(p);
            break;
        case kReplaySettled:
            onPacketOutcome(_instances[p].member, delivered);
            if (delivered) {
                ++_arq->stats().replayedResults;
                _recoverySum +=
                    _queue.now() - *_instances[p].localResultAt;
            } else {
                // Back to the shelf until the next recovery.
                _members[_instances[p].member].buffered.push_back(p);
            }
            break;
        case kProbeSettled:
            if (!_members[p].degradedMode)
                break;
            if (delivered)
                onPacketOutcome(p, true);
            else
                scheduleProbe(p);
            break;
        default:
            panic("unknown simulator event kind %u", event.kind);
        }
    }

    static uint64_t lowBits(int bits) { return (uint64_t{1} << bits) - 1; }

    void
    deliverTo(const Member &member, size_t i, size_t v)
    {
        uint32_t &pending = _inputsPending[_instances[i].row + v];
        xproAssert(pending > 0, "duplicate delivery to '%s'",
                   member.spec.topology->graph.node(v).name.c_str());
        if (--pending == 0)
            completeNode(member, i, v);
    }

    /** Group @p g's payload reached its other-end consumers. */
    void
    deliverGroup(size_t i, size_t g)
    {
        const Member &member = memberOf(i);
        for (size_t v : member.groups.otherEnd(g))
            deliverTo(member, i, v);
    }

    void
    completeNode(const Member &member, size_t i, size_t u)
    {
        const size_t row = _instances[i].row;
        const SimEvent finish{kFinishNode, (i << _nodeBits) | u};
        if (u == DataflowGraph::sourceId) {
            if (_arq) {
                _sensorFinishAt[row + u] = _queue.now();
                // Injected mid-outage: don't even try the link, go
                // straight to the local fallback.
                if (member.degradedMode)
                    degradeEvent(i);
            }
            _queue.scheduleAfter(Time(), finish);
            return;
        }
        const CellCosts &costs = member.spec.topology->graph.node(u).costs;
        if (member.spec.placement->inSensor(u)) {
            // The member's own hardware: runs concurrently with
            // every other node's cells.
            _result.totals.sensorEnergy.compute += costs.sensorEnergy;
            if (_arq)
                _sensorFinishAt[row + u] = _queue.now() + costs.sensorDelay;
            _queue.scheduleAfter(costs.sensorDelay, finish);
        } else if (_cpu) {
            _cpu->submit(costs.aggregatorDelay, finish);
        } else {
            _queue.scheduleAfter(costs.aggregatorDelay, finish);
        }
    }

    void
    finishNode(size_t i, size_t u)
    {
        Instance &instance = _instances[i];
        const size_t m = instance.member;
        const Member &member = _members[m];
        const DataflowGraph &graph = member.spec.topology->graph;
        const Placement &placement = *member.spec.placement;
        _done[instance.row + u] = 1;
        if (_captureTrace) {
            _result.totals.trace.push_back(
                {_queue.now(), "done " + graph.node(u).name + " #" +
                                   std::to_string(eventOf(i))});
        }

        // Degraded instances stop propagating: everything not yet
        // started is being recomputed by the local fallback, and the
        // link is considered down for this event.
        if (instance.degraded)
            return;

        if (u == member.spec.topology->fusionNode) {
            if (placement.inSensor(u))
                sendResult(i);
            else
                instance.resultAt = _queue.now();
        }

        const PlacedGroups &groups = member.groups;
        for (size_t g = groups.first(u); g < groups.first(u + 1); ++g) {
            for (size_t v : groups.sameEnd(g))
                deliverTo(member, i, v);
            if (groups.otherEnd(g).empty())
                continue;
            const size_t bits = groups.group(g).bits;
            const uint64_t packed = (i << _groupBits) | g;
            std::string what;
            if (_captureTrace) {
                what = graph.node(u).name + " payload #" +
                       std::to_string(eventOf(i));
            }
            if (_arq) {
                sendArq(m, bits, placement.inSensor(u),
                        {kPayloadSettled, packed}, std::move(what));
            } else {
                const TransferCost cost = _link.transfer(bits);
                if (placement.inSensor(u))
                    _result.totals.sensorEnergy.tx += cost.txEnergy;
                else
                    _result.totals.sensorEnergy.rx += cost.rxEnergy;
                _radio.occupy(m, cost.airTime, {kDeliverGroup, packed},
                              std::move(what));
            }
        }
    }

    /** Send the in-sensor fusion result: one expectation-folded
     *  transfer, or one packet under ARQ. */
    void
    sendResult(size_t i)
    {
        const size_t m = _instances[i].member;
        std::string what;
        if (_captureTrace)
            what = "result #" + std::to_string(eventOf(i));
        if (_arq) {
            sendArq(m, EngineTopology::resultBits, true,
                    {kResultSettled, i}, std::move(what));
            return;
        }
        const TransferCost cost =
            _link.transfer(EngineTopology::resultBits);
        _result.totals.sensorEnergy.tx += cost.txEnergy;
        _radio.occupy(m, cost.airTime, {kLegacyResult, i},
                      std::move(what));
    }

    // ---- Fault-injected path -------------------------------------

    void
    note(const std::string &what)
    {
        if (_captureTrace)
            _result.totals.trace.push_back({_queue.now(), what});
    }

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
            SimEvent on_settled, std::string what,
            bool is_probe = false)
    {
        ArqPacket packet;
        packet.payloadBits = bits;
        packet.senderInSensor = sender_in_sensor;
        packet.isProbe = is_probe;
        packet.owner = static_cast<uint32_t>(m);
        packet.onSettled = on_settled;
        packet.what = std::move(what);
        attemptArq(_arq->open(std::move(packet)));
    }

    void
    attemptArq(uint32_t slot)
    {
        const size_t m = _arq->packet(slot).owner;
        const Time air =
            _arq->attempt(slot, nodeInOutage(m, _queue.now()));
        std::string what;
        if (_captureTrace) {
            what = _arq->packet(slot).what;
            if (const size_t attempt = _arq->attemptIndex(slot))
                what += " try " + std::to_string(attempt);
        }
        _radio.occupy(m, air, {kArqChannelDone, slot}, std::move(what));
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
        dispatch(settled, delivered);
    }

    /** Replay instance @p i's buffered local classification. */
    void
    replayResult(size_t i)
    {
        std::string what;
        if (_captureTrace)
            what = "replay result #" + std::to_string(eventOf(i));
        sendArq(_instances[i].member, EngineTopology::resultBits, true,
                {kReplaySettled, i}, std::move(what));
    }

    /** Member @p m's outage detector: every final packet outcome
     *  lands here. */
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
                note("outage end");
                // Replays settle no earlier than their first channel
                // occupation ends, so nothing re-shelves meanwhile.
                _replaying.swap(member.buffered);
                for (size_t i : _replaying)
                    replayResult(i);
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
            note("outage start");
            scheduleProbe(m);
        }
    }

    void
    scheduleProbe(size_t m)
    {
        const Time next =
            _queue.now() + _arq->profile().probeInterval;
        // Probing stops past the horizon so the queue always drains
        // under a permanent outage.
        if (next > _members[m].horizon)
            return;
        _queue.schedule(next, {kProbeTimer, m});
    }

    void
    sendProbe(size_t m)
    {
        Member &member = _members[m];
        std::string what;
        if (_captureTrace)
            what = "probe #" + std::to_string(member.probeCount);
        ++member.probeCount;
        sendArq(m, EngineTopology::resultBits, true, {kProbeSettled, m},
                std::move(what), /*is_probe=*/true);
    }

    /** Finish instance @p i locally from now on. */
    void
    degradeEvent(size_t i)
    {
        Instance &instance = _instances[i];
        if (instance.degraded)
            return;
        Member &member = _members[instance.member];
        instance.degraded = true;
        ++member.degradedEvents;
        ++_arq->stats().degradedEvents;
        if (_captureTrace)
            note("fallback #" + std::to_string(eventOf(i)));
        const LocalFallback plan = member.fallback->plan(
            std::span(_sensorFinishAt)
                .subspan(instance.row, member.graphNodes),
            _queue.now());
        _result.totals.sensorEnergy.compute += plan.compute;
        _queue.schedule(plan.completion, {kLocalResult, i});
    }

    void
    localResult(size_t i)
    {
        Instance &instance = _instances[i];
        instance.resultAt = _queue.now();
        instance.localResultAt = _queue.now();
        if (_captureTrace)
            note("local result #" + std::to_string(eventOf(i)));
        Member &member = _members[instance.member];
        if (member.degradedMode)
            member.buffered.push_back(i);
        else
            replayResult(i);
    }

    /** Check that member @p m's events all completed and fill its
     *  latency summary; also advances the run's span. */
    void
    summarize(size_t m)
    {
        const Member &member = _members[m];
        const DataflowGraph &graph = member.spec.topology->graph;
        MemberSimResult &out = _result.members[m];
        out.events = _eventsPerMember;
        out.degradedEvents = member.degradedEvents;
        Time latency_sum;
        for (size_t k = 0; k < _eventsPerMember; ++k) {
            const Instance &instance = _instances[mk(m, k)];
            xproAssert(instance.resultAt.has_value(),
                       "member %zu event %zu never completed", m, k);
            // A degraded event legitimately skips cells: the local
            // fallback recomputes them outside the dataflow walk.
            if (!instance.degraded) {
                for (size_t v = 1; v < member.graphNodes; ++v) {
                    xproAssert(_done[instance.row + v],
                               "cell '%s' never executed for event %zu",
                               graph.node(v).name.c_str(), k);
                }
            }
            const Time completion = *instance.resultAt;
            const Time latency =
                completion - member.spec.period * static_cast<double>(k);
            latency_sum += latency;
            out.worstLatency = std::max(out.worstLatency, latency);
            // Real-time requirement: done before the next segment
            // has been fully acquired.
            if (latency > member.spec.period)
                ++out.deadlineMisses;
            if (k == 0)
                out.firstCompletion = completion;
            _result.span = std::max(_result.span, completion);
        }
        out.meanLatency = Time::seconds(
            latency_sum.sec() / static_cast<double>(_eventsPerMember));
    }

    const WirelessLink &_link;
    const size_t _eventsPerMember;
    const bool _captureTrace;
    /** Payload bits of the node / group index below the instance. */
    int _nodeBits = 0;
    int _groupBits = 0;
    size_t _eventCap = 0;
    EventQueue _queue;
    DetailedRun _result;
    RadioChannel _radio;
    /** The shared aggregator CPU (AggregatorCells::SharedCpu). */
    std::optional<CpuServer> _cpu;
    std::vector<Member> _members;
    /** Per-(member, event) state, indexed mk. */
    std::vector<Instance> _instances;
    /** Flat per-(member, event, node) dataflow state, indexed
     *  Instance::row + v: pending predecessor counts and executed
     *  flags. */
    std::vector<uint32_t> _inputsPending;
    std::vector<uint8_t> _done;

    // Fault-injection state (unused on the fault-free path).
    std::optional<ArqMachine> _arq;
    std::span<const NodeOutage> _nodeOutages;
    /** Completion time of every node that started on the sensor end
     *  (source included), same indexing, for the fallback plan. */
    std::vector<std::optional<Time>> _sensorFinishAt;
    std::vector<size_t> _replaying; ///< buffered-replay scratch
    Time _recoverySum;
};

} // namespace

DetailedRun
simulateMembers(std::span<const SimMember> members,
                const WirelessLink &link, const RadioArbiter &arbiter,
                size_t events_per_member, const FaultProfile &faults,
                std::span<const NodeOutage> node_outages,
                AggregatorCells cells, bool capture_trace)
{
    CrossEndSimulator simulator(members, link, arbiter,
                                events_per_member, faults,
                                node_outages, cells, capture_trace);
    return simulator.run();
}

SimResult
simulateEvent(const EngineTopology &topology,
              const Placement &placement, const WirelessLink &link,
              const FaultProfile &faults)
{
    if (faults.enabled)
        faults.validate();
    const SimMember node{&topology, &placement, Time()};
    return simulateMembers({&node, 1}, link, FcfsArbiter(), 1, faults,
                           {}, AggregatorCells::Concurrent,
                           /*capture_trace=*/true)
        .totals;
}

StreamResult
simulateStream(const EngineTopology &topology,
               const Placement &placement, const WirelessLink &link,
               double events_per_second, size_t events,
               const FaultProfile &faults)
{
    xproAssert(events_per_second > 0.0, "event rate must be positive");
    if (faults.enabled)
        faults.validate();
    const SimMember node{&topology, &placement,
                         Time::seconds(1.0 / events_per_second)};
    // StreamResult carries no trace, so stream runs skip trace
    // capture entirely: same simulation, same numbers, and the
    // steady-state event loop stays allocation-free.
    DetailedRun run = simulateMembers(
        {&node, 1}, link, FcfsArbiter(), events, faults, {},
        AggregatorCells::Concurrent, /*capture_trace=*/false);
    const MemberSimResult &summary = run.members.front();
    StreamResult result;
    result.events = summary.events;
    result.deadlineMisses = summary.deadlineMisses;
    result.worstLatency = summary.worstLatency;
    result.meanLatency = summary.meanLatency;
    result.sensorEnergy = run.totals.sensorEnergy;
    result.degradedEvents = summary.degradedEvents;
    result.robustness = std::move(run.totals.robustness);
    return result;
}

} // namespace xpro
