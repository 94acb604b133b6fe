/**
 * @file
 * Golden digests of the detailed cross-end simulators.
 *
 * Every simulated number the event-driven simulators produce — the
 * stream statistics, the single-event trace, the fault counters and
 * the serialized fleet report — is printed (doubles with %.17g, so
 * the text round-trips exactly) and hashed. The recorded digests
 * pin the simulators byte for byte: any change to the event order,
 * the loss-draw order or the fault machinery shows up here, even
 * where the invariant tests elsewhere would still hold.
 *
 * On a mismatch the failure message prints the new digest. Update a
 * recorded value only for an intended change of simulated
 * behaviour, never for a refactoring.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "fleet/fleet.hh"
#include "sim/system_sim.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;

const WirelessLink link2(transceiver(WirelessModel::Model2));

/** FNV-1a, 64-bit. */
uint64_t
digest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
appendf(std::string &out, const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    out += buf;
}

void
appendEnergy(std::string &out, const SensorEnergyBreakdown &e)
{
    appendf(out, "compute %.17g", e.compute.j());
    appendf(out, " tx %.17g", e.tx.j());
    appendf(out, " rx %.17g\n", e.rx.j());
}

std::string
printStream(const StreamResult &r)
{
    std::string out = "stream " + std::to_string(r.events) + ' ' +
                      std::to_string(r.deadlineMisses) + ' ' +
                      std::to_string(r.degradedEvents) + '\n';
    appendf(out, "worst %.17g", r.worstLatency.sec());
    appendf(out, " mean %.17g\n", r.meanLatency.sec());
    appendEnergy(out, r.sensorEnergy);
    return out + r.robustness.serialize();
}

std::string
printEvent(const SimResult &r)
{
    std::string out = "event " + std::to_string(r.transfers) + '\n';
    appendf(out, "completion %.17g", r.completion.sec());
    appendf(out, " radio %.17g\n", r.radioBusy.sec());
    appendEnergy(out, r.sensorEnergy);
    for (const TraceEntry &entry : r.trace) {
        appendf(out, "%.17g ", entry.at.sec());
        out += entry.what + '\n';
    }
    return out + r.robustness.serialize();
}

/** Bursty channel plus scripted outage windows long enough to trip
 *  the outage detector, so probes, fallbacks and replays all run. */
FaultProfile
outageProfile()
{
    FaultProfile profile = FaultProfile::preset("bursty");
    profile.seed = 11;
    profile.outages = {{Time(), Time::millis(3.0)},
                       {Time::millis(100.0), Time::millis(300.0)}};
    return profile;
}

struct Case
{
    const char *name;
    uint64_t expected;
};

// Recorded at the commit before the typed event core replaced the
// closure-based queue; indexed [topology][placement][faults].
const Case kSimCases[] = {
    {"chain/sensor/clean", 0x20935f3b75f24a14ull},
    {"chain/sensor/faults", 0xfe7eb1607792f3d3ull},
    {"chain/aggregator/clean", 0x655ffbd342161ccbull},
    {"chain/aggregator/faults", 0xbf6af52a14a94a11ull},
    {"chain/trivial/clean", 0xdb2bb5cb983221ecull},
    {"chain/trivial/faults", 0x6fd421edd149fa9bull},
    {"fan/sensor/clean", 0x90d8354df65514ceull},
    {"fan/sensor/faults", 0xacdac8348b3c0873ull},
    {"fan/aggregator/clean", 0xdc68041b27892586ull},
    {"fan/aggregator/faults", 0x3ea8b9bbb84030fdull},
    {"fan/trivial/clean", 0xe5e0540cfccf1393ull},
    {"fan/trivial/faults", 0x35d61cdb59b0f34dull},
};

TEST(SimGoldenTest, StreamsAndTracesMatchRecordedDigests)
{
    const EngineTopology topologies[] = {
        test::chainTopology(100, 200, 50, 4096),
        test::fanOutTopology()};
    size_t index = 0;
    size_t outages = 0;
    for (const EngineTopology &topo : topologies) {
        const Placement placements[] = {
            Placement::allInSensor(topo),
            Placement::allInAggregator(topo),
            Placement::trivialCut(topo)};
        for (const Placement &placement : placements) {
            for (bool faulty : {false, true}) {
                FaultProfile faults;
                if (faulty)
                    faults = outageProfile();
                std::string text;
                for (double rate : {25.0, 800.0}) {
                    const StreamResult stream = simulateStream(
                        topo, placement, link2, rate, 16, faults);
                    outages += stream.robustness.outages;
                    text += printStream(stream);
                }
                text += printEvent(
                    simulateEvent(topo, placement, link2, faults));
                const Case &c = kSimCases[index++];
                const uint64_t got = digest(text);
                EXPECT_EQ(got, c.expected)
                    << c.name << ": digest 0x" << std::hex << got;
            }
        }
    }
    // The fault cases must exercise the outage machinery.
    EXPECT_GT(outages, 0u);
}

FleetConfig
goldenFleetConfig(RadioPolicy policy)
{
    FleetConfig config;
    config.nodes = heterogeneousFleet(3);
    for (FleetNodeSpec &node : config.nodes) {
        node.subspaceCandidates = 6;
        node.maxTrainingSegments = 60;
    }
    config.policy = policy;
    config.eventsPerNode = 4;
    config.faults = FaultProfile::preset("bursty");
    config.faults.seed = 5;
    config.nodeOutages = {{1, Time::seconds(0.5), Time::seconds(2.5)}};
    return config;
}

TEST(SimGoldenTest, FleetReportsMatchRecordedDigests)
{
    const Case cases[] = {
        {"fleet/fcfs", 0xeea593a4e7723c88ull},
        {"fleet/tdma", 0xd9219e38596a868aull},
    };
    const RadioPolicy policies[] = {RadioPolicy::Fcfs,
                                    RadioPolicy::Tdma};
    for (size_t i = 0; i < 2; ++i) {
        const FleetResult result =
            runFleet(goldenFleetConfig(policies[i]));
        EXPECT_GT(result.report.robustness.degradedEvents, 0u)
            << cases[i].name;
        const uint64_t got = digest(result.report.serialize());
        EXPECT_EQ(got, cases[i].expected)
            << cases[i].name << ": digest 0x" << std::hex << got;
    }
}

} // namespace
