#include "dsp/segment.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace xpro
{

PeakTriggeredSegmenter::PeakTriggeredSegmenter(
    const PeakSegmenterConfig &config)
    : _config(config)
{
    xproAssert(config.windowLength > 1, "window too short");
    xproAssert(config.prePeakFraction >= 0.0 &&
                   config.prePeakFraction < 1.0,
               "pre-peak fraction out of range");
    xproAssert(config.thresholdRms > 0.0,
               "threshold must be positive");
}

double
PeakTriggeredSegmenter::threshold() const
{
    return _config.thresholdRms * std::sqrt(_meanSquare);
}

void
PeakTriggeredSegmenter::push(double sample)
{
    _history.push_back(sample);
    const size_t index = _absoluteIndex++;

    // Running RMS of the stream for the adaptive threshold; adapt
    // fast during warm-up so the threshold settles before detection
    // is armed.
    const bool warming = index < _config.warmupSamples;
    const double alpha = warming ? 0.05 : _config.rmsAlpha;
    _meanSquare += alpha * (sample * sample - _meanSquare);

    const bool refractory_over =
        !_hasPeak || index - _lastPeak >= _config.refractory;
    if (!warming && refractory_over &&
        std::fabs(sample) > threshold()) {
        _lastPeak = index;
        _hasPeak = true;
        ++_peaksDetected;
        _pendingPeaks.push_back(index);
    }

    tryEmit();

    // Trim history no pending window can still need.
    const size_t pre = static_cast<size_t>(
        _config.prePeakFraction *
        static_cast<double>(_config.windowLength));
    const size_t keep =
        _config.windowLength + pre + _config.refractory;
    while (_history.size() > keep &&
           (_pendingPeaks.empty() ||
            _historyStart + pre < _pendingPeaks.front())) {
        _history.pop_front();
        ++_historyStart;
    }
}

void
PeakTriggeredSegmenter::push(const std::vector<double> &samples)
{
    for (double sample : samples)
        push(sample);
}

void
PeakTriggeredSegmenter::tryEmit()
{
    const size_t pre = static_cast<size_t>(
        _config.prePeakFraction *
        static_cast<double>(_config.windowLength));

    while (!_pendingPeaks.empty()) {
        const size_t peak = _pendingPeaks.front();
        // Window spans [peak - pre, peak - pre + windowLength).
        const size_t start = peak >= pre ? peak - pre : 0;
        const size_t end = start + _config.windowLength;
        if (_absoluteIndex < end)
            break; // still buffering the tail of this beat
        if (start < _historyStart) {
            // Too-early peak whose pre-window history is gone.
            _pendingPeaks.pop_front();
            continue;
        }
        std::vector<double> window;
        window.reserve(_config.windowLength);
        for (size_t i = start; i < end; ++i)
            window.push_back(_history[i - _historyStart]);
        _ready.push_back(std::move(window));
        _pendingPeaks.pop_front();
    }
}

std::vector<double>
PeakTriggeredSegmenter::pop()
{
    xproAssert(!_ready.empty(), "no completed window to pop");
    std::vector<double> window = std::move(_ready.front());
    _ready.pop_front();
    return window;
}

} // namespace xpro
