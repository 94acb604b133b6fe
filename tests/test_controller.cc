/**
 * @file
 * Tests for the runtime-adaptive cross-end controller (control/):
 * anti-thrashing guards on oscillating channels, byte-identity of
 * the static windowed path with the legacy stream simulator,
 * warm-solve discipline (exactly one cold solve per controller) and
 * worker-count determinism of the fleet decision trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "control/adaptive_fleet.hh"
#include "control/adaptive_sim.hh"
#include "control/controller.hh"
#include "control/trace.hh"
#include "wireless/transceiver.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::CellSpec;
using xpro::test::MiniTopology;
using xpro::test::chainTopology;

const WirelessLink link2(transceiver(WirelessModel::Model2));

/**
 * A chain whose optimal cut flips with the channel cost: at nominal
 * prices the cheap feature cut (128-bit intermediate) wins; once
 * transfers cost ~4x, pushing the SVM in-sensor (32-bit crossing)
 * is cheaper.
 */
EngineTopology
flippingTopology()
{
    MiniTopology mini(1024);
    CellSpec feature;
    feature.name = "feature";
    feature.sensorNj = 100.0;
    feature.outputBits = 128;
    const size_t f = mini.addCell(feature, ComponentKind::Var);
    CellSpec svm;
    svm.name = "svm";
    svm.sensorNj = 400.0;
    svm.outputBits = 32;
    const size_t s = mini.addCell(svm, ComponentKind::Svm);
    CellSpec fusion;
    fusion.name = "fusion";
    fusion.sensorNj = 50.0;
    fusion.outputBits = 32;
    const size_t z = mini.addCell(fusion, ComponentKind::Fusion);
    mini.connect(DataflowGraph::sourceId, f);
    mini.connect(f, s);
    mini.connect(s, z);
    return mini.build(z);
}

/** A deep fade: ~90% of the time in the Bad state. */
GilbertElliottParams
harshChannel()
{
    GilbertElliottParams bad;
    bad.lossGood = 0.2;
    bad.lossBad = 0.95;
    bad.pGoodToBad = 0.9;
    bad.pBadToGood = 0.05;
    return bad;
}

/** Feed @p controller alternating clean/fade telemetry. */
size_t
driveSquareWave(CrossEndController &controller, size_t windows,
                double fade_scale)
{
    size_t flips = 0;
    for (size_t w = 0; w < windows; ++w) {
        ControlTelemetry telemetry;
        telemetry.at = Time::seconds(60.0) * double(w + 1);
        telemetry.eventsPerSecond = 4.0;
        telemetry.stateOfCharge = 1.0;
        telemetry.meanAttemptsPerPacket =
            (w / 2) % 2 == 1 ? fade_scale : 1.0;
        const ControlDecision decision =
            controller.observe(telemetry);
        flips += decision.action == "repartition";
    }
    return flips;
}

// --- controller policy --------------------------------------------

TEST(ControllerTest, UnguardedControllerThrashesOnSquareWave)
{
    const EngineTopology topo = flippingTopology();
    ControlConfig config;
    config.hysteresis = 0.0;
    config.minDwell = Time();
    CrossEndController controller(topo, link2, config);
    const size_t flips = driveSquareWave(controller, 16, 4.0);
    // Every half-period boundary flips the cut back and forth.
    EXPECT_GE(flips, 6u);
    EXPECT_EQ(controller.report().repartitions, flips);
}

TEST(ControllerTest, MinimumDwellPreventsOscillation)
{
    const EngineTopology topo = flippingTopology();
    ControlConfig config;
    config.hysteresis = 0.0;
    config.minDwell = Time::seconds(600.0); // 10 windows
    CrossEndController controller(topo, link2, config);
    const size_t flips = driveSquareWave(controller, 16, 4.0);
    EXPECT_LE(flips, 2u);
    EXPECT_GT(controller.report().dwellHolds, 0u);
}

TEST(ControllerTest, HysteresisBandHoldsSmallImprovements)
{
    const EngineTopology topo = flippingTopology();
    ControlConfig config;
    config.hysteresis = 10.0; // no improvement can clear 1000%
    config.minDwell = Time();
    CrossEndController controller(topo, link2, config);
    const size_t flips = driveSquareWave(controller, 16, 4.0);
    EXPECT_EQ(flips, 0u);
    EXPECT_GT(controller.report().hysteresisHolds, 0u);
}

TEST(ControllerTest, OneColdSolvePerControllerLifetime)
{
    const EngineTopology topo = flippingTopology();
    ControlConfig config;
    config.hysteresis = 0.0;
    config.minDwell = Time();
    CrossEndController controller(topo, link2, config);
    driveSquareWave(controller, 16, 4.0);
    const ControlReport report = controller.report();
    EXPECT_EQ(report.coldSolves, 1u);
    EXPECT_GE(report.warmSolves, 1u);
}

TEST(ControllerTest, DutyLevelFollowsStateOfCharge)
{
    const EngineTopology topo = flippingTopology();
    CrossEndController controller(topo, link2, ControlConfig{});
    ControlTelemetry telemetry;
    telemetry.eventsPerSecond = 4.0;
    const double socs[] = {1.0, 0.5, 0.34, 0.2, 0.1};
    const size_t levels[] = {0, 0, 1, 1, 2};
    for (size_t i = 0; i < 5; ++i) {
        telemetry.at = Time::seconds(60.0) * double(i + 1);
        telemetry.stateOfCharge = socs[i];
        controller.observe(telemetry);
        EXPECT_EQ(controller.dutyLevel(), levels[i])
            << "soc " << socs[i];
    }
}

TEST(ControllerTest, HandoverCostCountsMovedCellsOnly)
{
    const EngineTopology topo = flippingTopology();
    CrossEndController controller(topo, link2, ControlConfig{});
    EXPECT_EQ(controller.handoverCost(controller.placement())
                  .movedCells,
              0u);
    EXPECT_EQ(
        controller.handoverCost(controller.placement()).sensorEnergy
            .j(),
        0.0);
    const Placement all = Placement::allInSensor(topo);
    const HandoverCost cost = controller.handoverCost(all);
    EXPECT_GT(cost.movedCells, 0u);
    EXPECT_GT(cost.sensorEnergy.j(), 0.0);
    EXPECT_GT(cost.airTime.sec(), 0.0);
}

TEST(ControllerTest, ConfigValidationPanicsOnNonsense)
{
    ControlConfig config;
    config.repartitionPeriod = Time();
    EXPECT_THROW(config.validate(), PanicError);

    config = ControlConfig{};
    config.dutyLevels = {1.0, 1.2};
    config.socThresholds = {0.5};
    EXPECT_THROW(config.validate(), PanicError);

    config = ControlConfig{};
    config.socThresholds = {0.15, 0.35}; // must decrease
    EXPECT_THROW(config.validate(), PanicError);

    config = ControlConfig{};
    config.dutyLevels = {1.0};
    config.socThresholds = {0.5}; // one level needs no thresholds
    EXPECT_THROW(config.validate(), PanicError);
}

// --- adaptive stream over a trace ---------------------------------

TEST(AdaptiveSimTest, StaticPathMatchesLegacyStreamByteForByte)
{
    const EngineTopology topo = flippingTopology();
    const Placement placement =
        Placement::fromMask(topo, {true, true, false, false});
    const NonstationaryTrace trace =
        NonstationaryTrace::steady(1, Time::seconds(10.0), 4.0);

    AdaptiveRunConfig run;
    run.control.repartitionPeriod = Time::seconds(10.0);
    run.sampleCap = 0; // simulate every event
    const AdaptiveStreamResult windowed =
        simulateStaticStream(topo, placement, link2, trace, run);

    const StreamResult legacy =
        simulateStream(topo, placement, link2, 4.0, 40);

    EXPECT_EQ(windowed.stream.events, legacy.events);
    EXPECT_EQ(windowed.stream.deadlineMisses,
              legacy.deadlineMisses);
    EXPECT_EQ(windowed.stream.degradedEvents, legacy.degradedEvents);
    EXPECT_EQ(windowed.stream.meanLatency.us(),
              legacy.meanLatency.us());
    EXPECT_EQ(windowed.stream.worstLatency.us(),
              legacy.worstLatency.us());
    EXPECT_EQ(windowed.stream.sensorEnergy.compute.j(),
              legacy.sensorEnergy.compute.j());
    EXPECT_EQ(windowed.stream.sensorEnergy.tx.j(),
              legacy.sensorEnergy.tx.j());
    EXPECT_EQ(windowed.stream.sensorEnergy.rx.j(),
              legacy.sensorEnergy.rx.j());
    EXPECT_FALSE(windowed.stream.control.enabled);
    EXPECT_FALSE(windowed.stream.robustness.enabled);
}

TEST(AdaptiveSimTest, ControllerRepartitionsOnSquareWaveTrace)
{
    const EngineTopology topo = flippingTopology();
    const NonstationaryTrace trace = NonstationaryTrace::squareWave(
        12, Time::seconds(60.0), 4.0, 2, harshChannel());

    AdaptiveRunConfig run;
    run.control.hysteresis = 0.0;
    run.control.minDwell = Time();
    run.sampleCap = 32;
    const AdaptiveStreamResult result =
        simulateAdaptiveStream(topo, link2, trace, run);

    const ControlReport &control = result.stream.control;
    EXPECT_TRUE(control.enabled);
    EXPECT_EQ(control.windows, 12u);
    EXPECT_GE(control.repartitions, 2u);
    EXPECT_EQ(control.coldSolves, 1u);
    EXPECT_GE(control.warmSolves, 1u);
    EXPECT_GT(control.handoverTotalUj, 0.0);
    EXPECT_EQ(control.decisions.size(), 12u);
    EXPECT_LT(result.finalStateOfCharge, 1.0);
}

TEST(AdaptiveSimTest, RunsAreDeterministic)
{
    const EngineTopology topo = flippingTopology();
    const NonstationaryTrace trace = NonstationaryTrace::squareWave(
        8, Time::seconds(60.0), 4.0, 2, harshChannel());
    AdaptiveRunConfig run;
    run.control.hysteresis = 0.0;
    run.control.minDwell = Time();
    run.sampleCap = 16;
    const AdaptiveStreamResult a =
        simulateAdaptiveStream(topo, link2, trace, run);
    const AdaptiveStreamResult b =
        simulateAdaptiveStream(topo, link2, trace, run);
    EXPECT_EQ(a.stream.control.serialize(),
              b.stream.control.serialize());
    EXPECT_EQ(a.batteryEnergy.j(), b.batteryEnergy.j());
}

TEST(AdaptiveSimTest, LifetimeBeatsStaticExtremesOnDrift)
{
    const EngineTopology topo = flippingTopology();
    // Alternate clean and faded hours so neither static extreme is
    // ever right for long.
    const NonstationaryTrace trace = NonstationaryTrace::squareWave(
        8, Time::hours(0.5), 4.0, 2, harshChannel());
    AdaptiveRunConfig run;
    run.sensor.battery = Battery(2.0, 3.7); // small cell: fast test
    run.sampleCap = 16;

    const LifetimeResult adaptive =
        adaptiveLifetime(topo, link2, trace, run);
    const LifetimeResult in_sensor = staticLifetime(
        topo, Placement::allInSensor(topo), link2, trace, run);
    const LifetimeResult in_aggregator = staticLifetime(
        topo, Placement::allInAggregator(topo), link2, trace, run);

    EXPECT_GT(adaptive.lifetime.sec(), in_sensor.lifetime.sec());
    EXPECT_GT(adaptive.lifetime.sec(),
              in_aggregator.lifetime.sec());
    EXPECT_EQ(adaptive.control.coldSolves, 1u);
    EXPECT_GT(adaptive.tracePasses, 1u);
}

TEST(AdaptiveSimTest, ValidateBoundsWindowsPerPass)
{
    const size_t cap = AdaptiveRunConfig::maxWindowsPerPass;
    AdaptiveRunConfig run;
    run.control.repartitionPeriod = Time::seconds(1.0);
    // Exactly at the cap is allowed; one window more is not.
    EXPECT_NO_THROW(run.validate(NonstationaryTrace::steady(
        1, Time::seconds(double(cap)), 4.0)));
    EXPECT_THROW(run.validate(NonstationaryTrace::steady(
                     1, Time::seconds(double(cap + 1)), 4.0)),
                 FatalError);

    // A nanosecond period over a day would ask discretize() for
    // ~8.6e13 windows: every entry point refuses before building
    // one.
    const EngineTopology topo = flippingTopology();
    const NonstationaryTrace day = NonstationaryTrace::day(2017);
    run.control.repartitionPeriod = Time::seconds(1e-9);
    const Placement in_sensor = Placement::allInSensor(topo);
    EXPECT_THROW(simulateAdaptiveStream(topo, link2, day, run),
                 FatalError);
    EXPECT_THROW(
        simulateStaticStream(topo, in_sensor, link2, day, run),
        FatalError);
    EXPECT_THROW(adaptiveLifetime(topo, link2, day, run), FatalError);
    EXPECT_THROW(staticLifetime(topo, in_sensor, link2, day, run),
                 FatalError);

    run.control.repartitionPeriod = Time::seconds(60.0);
    run.maxPasses = 0;
    EXPECT_THROW(run.validate(day), FatalError);
}

TEST(AdaptiveSimTest, DecisionTraceCapBoundsRetention)
{
    const EngineTopology topo = flippingTopology();
    const NonstationaryTrace trace = NonstationaryTrace::squareWave(
        12, Time::seconds(60.0), 4.0, 2, harshChannel());
    AdaptiveRunConfig run;
    run.control.decisionTraceCap = 5;
    run.sampleCap = 16;
    const AdaptiveStreamResult result =
        simulateAdaptiveStream(topo, link2, trace, run);
    EXPECT_EQ(result.stream.control.decisions.size(), 5u);
    EXPECT_EQ(result.stream.control.droppedDecisions, 7u);
    EXPECT_EQ(result.stream.control.windows, 12u);
}

// --- adaptive golden digests --------------------------------------

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

/** Decision trace plus lifetime, events and passes, exactly. */
std::string
printLifetime(const LifetimeResult &r)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "|%.17g|%zu|%zu",
                  r.lifetime.hr(), r.tracePasses, r.events);
    return r.control.serialize() + buf;
}

/**
 * Pins the whole adaptive path byte for byte: controller decisions,
 * operating-point caching, window memo and battery accounting over
 * the seeded day, on a cut that flips with the channel and on a
 * fan-out graph with shared broadcast payloads. The small cell (as
 * the benchmark's smoke run uses) depletes within a few passes. On a
 * mismatch the failure prints the new digest; update a recorded
 * value only for an intended change of simulated behaviour.
 */
TEST(AdaptiveGoldenTest, LifetimesMatchRecordedDigests)
{
    struct Case
    {
        const char *name;
        uint64_t expected;
    };
    const Case cases[] = {
        {"flipping/adaptive", 0xa91732ae34b5436cull},
        {"flipping/static", 0x1b2112d0f59e5c70ull},
        {"fan/adaptive", 0x2f49f35175563cfbull},
        {"fan/static", 0xdfe004065b46335bull},
    };
    const EngineTopology topologies[] = {flippingTopology(),
                                         test::fanOutTopology()};
    const NonstationaryTrace day = NonstationaryTrace::day(2017);
    AdaptiveRunConfig run;
    run.sensor.battery = Battery(0.2, 3.0);

    size_t index = 0;
    for (const EngineTopology &topo : topologies) {
        const LifetimeResult adaptive =
            adaptiveLifetime(topo, link2, day, run);
        const LifetimeResult in_sensor = staticLifetime(
            topo, Placement::allInSensor(topo), link2, day, run);
        EXPECT_GT(adaptive.control.repartitions, 0u);
        for (const LifetimeResult *result : {&adaptive, &in_sensor}) {
            const Case &c = cases[index++];
            const uint64_t got = digest(printLifetime(*result));
            EXPECT_EQ(got, c.expected)
                << c.name << ": digest 0x" << std::hex << got;
        }
    }
}

// --- nonstationary traces -----------------------------------------

TEST(TraceTest, DiscretizeNeverStraddlesEnvironmentChanges)
{
    NonstationaryTrace trace;
    ControlWindow a;
    a.duration = Time::seconds(150.0);
    a.eventsPerSecond = 1.0;
    ControlWindow b;
    b.duration = Time::seconds(90.0);
    b.eventsPerSecond = 8.0;
    trace.windows = {a, b};

    const std::vector<ControlWindow> chopped =
        trace.discretize(Time::seconds(60.0));
    ASSERT_EQ(chopped.size(), 5u);
    EXPECT_EQ(chopped[0].duration.sec(), 60.0);
    EXPECT_EQ(chopped[2].duration.sec(), 30.0); // trailing chunk
    EXPECT_EQ(chopped[2].eventsPerSecond, 1.0);
    EXPECT_EQ(chopped[3].eventsPerSecond, 8.0);
    EXPECT_EQ(chopped[4].duration.sec(), 30.0);
    Time total;
    for (const ControlWindow &w : chopped)
        total += w.duration;
    EXPECT_EQ(total.sec(), trace.total().sec());
}

TEST(TraceTest, DayTraceIsSeededAndNonstationary)
{
    const NonstationaryTrace day = NonstationaryTrace::day(7);
    ASSERT_EQ(day.windows.size(), 24u);
    EXPECT_EQ(day.total().hr(), 24.0);
    size_t faded = 0;
    for (const ControlWindow &w : day.windows)
        faded += !w.idealChannel();
    EXPECT_GT(faded, 0u);
    EXPECT_LT(faded, 24u);
    EXPECT_NE(day.windows[2].eventsPerSecond,
              day.windows[12].eventsPerSecond);
    // Same seed, same day; different seed, different episodes.
    const NonstationaryTrace again = NonstationaryTrace::day(7);
    for (size_t w = 0; w < 24; ++w) {
        EXPECT_EQ(day.windows[w].idealChannel(),
                  again.windows[w].idealChannel());
    }
}

// --- fleet decision-trace determinism -----------------------------

/** Small-but-real fleet config that trains quickly. */
FleetConfig
tinyFleetConfig(size_t workers)
{
    FleetConfig config;
    config.nodes = heterogeneousFleet(3);
    for (FleetNodeSpec &node : config.nodes) {
        node.subspaceCandidates = 6;
        node.maxTrainingSegments = 60;
    }
    config.workers = workers;
    config.eventsPerNode = 3;
    return config;
}

TEST(AdaptiveFleetTest, ControlReportIsByteIdenticalAcrossWorkers)
{
    const NonstationaryTrace trace = NonstationaryTrace::squareWave(
        4, Time::seconds(60.0), 2.0, 1, harshChannel());
    AdaptiveRunConfig run;
    run.sampleCap = 8;

    const FleetResult one =
        runAdaptiveFleet(tinyFleetConfig(1), trace, run);
    const FleetResult four =
        runAdaptiveFleet(tinyFleetConfig(4), trace, run);

    ASSERT_TRUE(one.report.control.enabled);
    EXPECT_EQ(one.report.control.coldSolves, 3u); // one per node
    EXPECT_EQ(one.report.control.windows, 12u);   // 4 per node
    EXPECT_EQ(one.report.control.serialize(),
              four.report.control.serialize());
    EXPECT_EQ(one.report.serialize(), four.report.serialize());
}

// --- argparse satellites ------------------------------------------

TEST(ArgparseTest, RealParsersValidate)
{
    EXPECT_EQ(parsePositiveRealArg("2.5", "--repartition-period"),
              2.5);
    EXPECT_THROW(parsePositiveRealArg("0", "--repartition-period"),
                 FatalError);
    EXPECT_THROW(parsePositiveRealArg("-1", "--repartition-period"),
                 FatalError);
    EXPECT_THROW(parsePositiveRealArg("abc", "--repartition-period"),
                 FatalError);
    EXPECT_EQ(parseNonNegativeRealArg("0", "--hysteresis"), 0.0);
    EXPECT_EQ(parseNonNegativeRealArg("0.25", "--hysteresis"), 0.25);
    EXPECT_THROW(parseNonNegativeRealArg("-0.1", "--hysteresis"),
                 FatalError);
    EXPECT_THROW(parseNonNegativeRealArg("nope", "--hysteresis"),
                 FatalError);
}

} // namespace
