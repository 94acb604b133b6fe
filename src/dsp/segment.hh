/**
 * @file
 * Continuous-stream segmentation.
 *
 * The paper's test cases are pre-segmented (one beat / burst per
 * segment); a deployed wearable receives a continuous sample stream
 * and must extract those segments itself before the analytic engine
 * runs. PeakTriggeredSegmenter does that for beat-aligned signals:
 * adaptive-threshold peak detection with a refractory period,
 * emitting a window centred on each detected peak (ECG-style beat
 * alignment). It is incremental: push samples as they arrive, pop
 * segments as they complete.
 */

#ifndef XPRO_DSP_SEGMENT_HH
#define XPRO_DSP_SEGMENT_HH

#include <cstddef>
#include <deque>
#include <vector>

namespace xpro
{

/** Configuration of the peak-triggered segmenter. */
struct PeakSegmenterConfig
{
    /** Samples per emitted segment. */
    size_t windowLength = 82;
    /** Fraction of the window placed before the peak. */
    double prePeakFraction = 0.4;
    /** Detection threshold as a multiple of the running RMS. */
    double thresholdRms = 3.0;
    /** Minimum samples between detected peaks (refractory). */
    size_t refractory = 60;
    /** Smoothing factor of the running RMS estimate. */
    double rmsAlpha = 0.005;
    /** Samples used to warm up the RMS estimate before any
     *  detection fires. */
    size_t warmupSamples = 100;
};

/**
 * Adaptive-threshold peak detector emitting peak-centred windows
 * (R-peak-style beat segmentation).
 */
class PeakTriggeredSegmenter
{
  public:
    explicit PeakTriggeredSegmenter(
        const PeakSegmenterConfig &config = {});

    /** Feed one sample. */
    void push(double sample);

    /** Feed a block of samples. */
    void push(const std::vector<double> &samples);

    /** Completed beat windows ready to pop. */
    size_t ready() const { return _ready.size(); }

    /** Pop the oldest completed window. */
    std::vector<double> pop();

    /** Peaks detected so far (including ones still buffering). */
    size_t peaksDetected() const { return _peaksDetected; }

    /** Current adaptive threshold (diagnostics). */
    double threshold() const;

  private:
    void tryEmit();

    PeakSegmenterConfig _config;
    std::deque<double> _history;
    size_t _absoluteIndex = 0;
    size_t _historyStart = 0;
    double _meanSquare = 1e-6;
    size_t _lastPeak = 0;
    bool _hasPeak = false;
    size_t _peaksDetected = 0;
    std::deque<size_t> _pendingPeaks;
    std::deque<std::vector<double>> _ready;
};

} // namespace xpro

#endif // XPRO_DSP_SEGMENT_HH
