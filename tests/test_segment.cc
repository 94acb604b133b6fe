/**
 * @file
 * Tests for the peak-triggered (beat-aligned) stream segmenter,
 * including detection on synthetic continuous ECG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "common/random.hh"
#include "data/ecg_synth.hh"
#include "dsp/features.hh"
#include "dsp/segment.hh"

namespace
{

using namespace xpro;

TEST(PeakSegmenterTest, DetectsIsolatedSpikes)
{
    PeakSegmenterConfig config;
    config.windowLength = 20;
    config.prePeakFraction = 0.5;
    config.thresholdRms = 3.0;
    config.refractory = 30;
    PeakTriggeredSegmenter seg(config);

    // Low-level noise with two large spikes.
    Rng rng(1603);
    for (int i = 0; i < 400; ++i) {
        double v = 0.05 * rng.gaussian();
        if (i == 100 || i == 250)
            v = 5.0;
        seg.push(v);
    }
    EXPECT_EQ(seg.peaksDetected(), 2u);
    ASSERT_EQ(seg.ready(), 2u);
    // The spike sits near the middle of its window.
    const std::vector<double> window = seg.pop();
    ASSERT_EQ(window.size(), 20u);
    const auto peak_pos =
        std::max_element(window.begin(), window.end()) -
        window.begin();
    EXPECT_NEAR(static_cast<double>(peak_pos), 10.0, 1.0);
}

TEST(PeakSegmenterTest, RefractorySuppressesDoubleTriggers)
{
    PeakSegmenterConfig config;
    config.windowLength = 16;
    config.refractory = 50;
    PeakTriggeredSegmenter seg(config);
    Rng rng(1605);
    for (int i = 0; i < 300; ++i) {
        double v = 0.05 * rng.gaussian();
        // A burst of three successive large samples: one beat.
        if (i >= 100 && i <= 102)
            v = 4.0;
        seg.push(v);
    }
    EXPECT_EQ(seg.peaksDetected(), 1u);
}

TEST(PeakSegmenterTest, FindsSyntheticHeartbeats)
{
    // Continuous ECG at 360 Hz: beats every ~0.83 s for 10 s.
    const double rate = 360.0;
    Rng rng(1607);
    EcgSynthConfig ecg;
    ecg.noiseLevel = 0.03;

    std::vector<double> stream;
    const size_t beats = 12;
    for (size_t b = 0; b < beats; ++b) {
        const auto beat = synthesizeEcgSegment(
            300, rate, false, ecg, rng);
        stream.insert(stream.end(), beat.begin(), beat.end());
    }

    PeakSegmenterConfig config;
    config.windowLength = 82; // C1's segment shape
    config.prePeakFraction = 0.4;
    config.thresholdRms = 2.5;
    config.refractory = 180; // half a beat period
    PeakTriggeredSegmenter seg(config);
    seg.push(stream);

    // Nearly every beat is detected and windowed.
    EXPECT_GE(seg.peaksDetected(), beats - 2);
    EXPECT_LE(seg.peaksDetected(), beats + 2);
    EXPECT_GE(seg.ready(), beats - 3);

    // Each extracted window contains a dominant R peak.
    while (seg.ready() > 0) {
        const std::vector<double> window = seg.pop();
        ASSERT_EQ(window.size(), 82u);
        EXPECT_GT(featureMax(window.data(), window.size()), 0.5);
    }
}

TEST(PeakSegmenterTest, ThresholdAdaptsToSignalLevel)
{
    PeakTriggeredSegmenter seg;
    Rng rng(1609);
    for (int i = 0; i < 500; ++i)
        seg.push(0.1 * rng.gaussian());
    const double quiet = seg.threshold();
    for (int i = 0; i < 2000; ++i)
        seg.push(1.0 * rng.gaussian());
    EXPECT_GT(seg.threshold(), 3.0 * quiet);
}

TEST(PeakSegmenterTest, InvalidConfigPanics)
{
    PeakSegmenterConfig bad;
    bad.windowLength = 1;
    EXPECT_THROW(PeakTriggeredSegmenter{bad}, PanicError);
    PeakSegmenterConfig bad2;
    bad2.prePeakFraction = 1.5;
    EXPECT_THROW(PeakTriggeredSegmenter{bad2}, PanicError);
}

} // namespace
