/**
 * @file
 * Tests for the incremental battery model (ChargeTracker) and the
 * Chrome trace exporter.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "core/partitioner.hh"
#include "platform/battery_sim.hh"
#include "sim/trace_export.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::chainTopology;

/** One span of a repeating load cycle. */
struct LoadSpan
{
    Power load;
    Time duration;
};

/**
 * Drain @p cycle span by span, repeating it until the battery dies,
 * and return the interpolated depletion instant.
 */
Time
drainUntilDepleted(const Battery &battery,
                   const std::vector<LoadSpan> &cycle)
{
    ChargeTracker tracker(battery);
    Time now;
    while (!tracker.depleted()) {
        for (const LoadSpan &span : cycle) {
            now += span.duration;
            tracker.drainTo(now, span.load.during(span.duration));
        }
    }
    return tracker.depletionTime();
}

TEST(BatterySimTest, ConstantLoadMatchesClosedForm)
{
    const Battery battery = Battery::sensorNodeBattery();
    const Power load = Power::micros(25.0);
    const Time closed_form = battery.lifetime(load);
    const Time tracked =
        drainUntilDepleted(battery, {{load, Time::hours(1.0)}});
    EXPECT_NEAR(tracked.hr() / closed_form.hr(), 1.0, 1e-9);
}

TEST(BatterySimTest, DutyCycledProfileOutlivesContinuous)
{
    const Battery battery = Battery::sensorNodeBattery();
    const Power active = Power::micros(100.0);
    const Power sleep = Power::micros(2.0);
    const Time continuous =
        drainUntilDepleted(battery, {{active, Time::hours(1.0)}});
    const Time duty_cycled = drainUntilDepleted(
        battery, {{active, Time::hours(1.0)}, {sleep, Time::hours(3.0)}});
    EXPECT_GT(duty_cycled, continuous);
    // Per 4 h the cycle draws 106 uWh against 400 uWh, and both runs
    // derate to the same 100 uW capacity: about 3.8x the life.
    EXPECT_GT(duty_cycled / continuous, 3.5);
}

// --- ChargeTracker (online controller's battery telemetry) -------

TEST(ChargeTrackerTest, MonotoneQueriesExtrapolateLastSpan)
{
    const Battery battery = Battery::sensorNodeBattery();
    ChargeTracker tracker(battery);
    EXPECT_DOUBLE_EQ(tracker.stateOfCharge(), 1.0);
    EXPECT_FALSE(tracker.depleted());

    tracker.drainTo(Time::hours(1.0), Energy::millis(10.0));
    const double after_first = tracker.stateOfCharge();
    EXPECT_LT(after_first, 1.0);
    EXPECT_GT(after_first, 0.0);

    // Queries between drains extrapolate the last span's mean power
    // and must never increase with time.
    double previous = after_first;
    for (double h = 1.0; h <= 3.0; h += 0.25) {
        const double soc = tracker.stateOfCharge(Time::hours(h));
        EXPECT_LE(soc, previous);
        previous = soc;
    }
    // now() stays at the last drain; extrapolation is side-effect
    // free.
    EXPECT_DOUBLE_EQ(tracker.now().hr(), 1.0);
    EXPECT_DOUBLE_EQ(tracker.stateOfCharge(), after_first);
}

TEST(ChargeTrackerTest, DepletesToExactlyZeroAndStaysThere)
{
    const Battery battery(1.0, 3.7); // tiny 1 mAh cell
    ChargeTracker tracker(battery);
    const Energy usable = battery.usableEnergy(Power());

    // Drain ~60% of the usable capacity, then overshoot it. Gentle
    // hour-long spans keep the rate derating negligible.
    tracker.drainTo(Time::hours(1.0), usable * 0.6);
    EXPECT_FALSE(tracker.depleted());
    EXPECT_GT(tracker.stateOfCharge(), 0.0);

    tracker.drainTo(Time::hours(2.0), usable * 0.8);
    EXPECT_TRUE(tracker.depleted());
    EXPECT_DOUBLE_EQ(tracker.stateOfCharge(), 0.0);
    EXPECT_DOUBLE_EQ(tracker.stateOfCharge(Time::hours(5.0)), 0.0);

    // Death is interpolated inside the last span, not snapped to
    // its boundary.
    const Time died = tracker.depletionTime();
    EXPECT_GT(died.hr(), 1.0);
    EXPECT_LT(died.hr(), 2.0);

    // Consumption is capped at the usable limit (rate-derated, so
    // at or below the nominal usable energy).
    EXPECT_LE(tracker.consumed().j(), usable.j());

    // Further drains on a dead battery are harmless no-ops.
    tracker.drainTo(Time::hours(3.0), Energy::millis(1.0));
    EXPECT_DOUBLE_EQ(tracker.stateOfCharge(), 0.0);
    EXPECT_DOUBLE_EQ(tracker.depletionTime().sec(), died.sec());
}

TEST(ChargeTrackerTest, ZeroEnergySpansAdvanceTimeOnly)
{
    ChargeTracker tracker(Battery::sensorNodeBattery());
    tracker.drainTo(Time::seconds(10.0), Energy::millis(1.0));
    const double soc = tracker.stateOfCharge();
    tracker.drainTo(Time::seconds(20.0), Energy());
    EXPECT_DOUBLE_EQ(tracker.stateOfCharge(), soc);
    // An idle span resets the extrapolation basis: future queries
    // no longer project the earlier load.
    EXPECT_DOUBLE_EQ(tracker.stateOfCharge(Time::seconds(100.0)),
                     soc);
}

TEST(ChargeTrackerTest, InvalidUsePanics)
{
    ChargeTracker tracker(Battery::sensorNodeBattery());
    tracker.drainTo(Time::seconds(10.0), Energy::millis(1.0));
    // Time must advance monotonically.
    EXPECT_THROW(tracker.drainTo(Time::seconds(5.0), Energy()),
                 PanicError);
    // A nonzero drain needs a nonzero span.
    EXPECT_THROW(tracker.drainTo(Time::seconds(10.0),
                                 Energy::millis(1.0)),
                 PanicError);
    // Queries cannot look into the past.
    EXPECT_THROW(tracker.stateOfCharge(Time::seconds(1.0)),
                 PanicError);
    // Depletion time is undefined while the battery lives.
    EXPECT_THROW(tracker.depletionTime(), FatalError);
}

TEST(TraceExportTest, ProducesValidLookingJson)
{
    const EngineTopology topo = chainTopology(100, 200, 50, 2048);
    const WirelessLink link(transceiver(WirelessModel::Model2));
    const Placement placement =
        Placement::fromMask(topo, {true, true, false, false});
    const SimResult sim = simulateEvent(topo, placement, link);

    std::ostringstream out;
    writeChromeTrace(sim, topo, placement, out);
    const std::string json = out.str();

    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("wireless channel"), std::string::npos);
    EXPECT_NE(json.find("sensor node"), std::string::npos);
    // The chain's cells appear as duration events.
    EXPECT_NE(json.find("feature"), std::string::npos);
    EXPECT_NE(json.find("svm"), std::string::npos);
    // Balanced brackets at the ends.
    EXPECT_EQ(json.back(), '\n');
    EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(TraceExportTest, RadioEventsMatchTransferCount)
{
    const EngineTopology topo = chainTopology(100, 200, 50, 2048);
    const WirelessLink link(transceiver(WirelessModel::Model2));
    const Placement placement =
        Placement::fromMask(topo, {true, true, false, false});
    const SimResult sim = simulateEvent(topo, placement, link);

    std::ostringstream out;
    writeChromeTrace(sim, topo, placement, out);
    const std::string json = out.str();
    size_t radio_events = 0;
    size_t pos = 0;
    while ((pos = json.find("\"tid\":1}", pos)) != std::string::npos) {
        ++radio_events;
        pos += 1;
    }
    EXPECT_EQ(radio_events, sim.transfers);
}

TEST(TraceExportTest, FileWriterRoundTrips)
{
    const EngineTopology topo = chainTopology(10, 10, 10, 256);
    const WirelessLink link(transceiver(WirelessModel::Model2));
    const Placement placement = Placement::allInSensor(topo);
    const SimResult sim = simulateEvent(topo, placement, link);
    const std::string path = "/tmp/xpro_trace_test.json";
    writeChromeTraceFile(sim, topo, placement, path);
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::remove(path.c_str());
    EXPECT_THROW(writeChromeTraceFile(sim, topo, placement,
                                      "/nonexistent-dir/t.json"),
                 FatalError);
}

} // namespace
