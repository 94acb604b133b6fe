/**
 * @file
 * The XPro benchmark harness: four workloads through the library's
 * public APIs, each timed in host time, with output checks that
 * count failed operations.
 *
 *   xpro_perfbench --workload design|adaptive_day|population|serve
 *                  [--seed N] [--seconds S] [--trace 0|1]
 *                  [--trace-out FILE] [--smoke] [--corrupt]
 *
 * --trace 0 measures the named workload untraced and reports the
 * end-to-end metrics. --trace 1 is the separate traced run: every
 * workload runs with spans around its layer calls (one traced
 * iteration each, so every layer gets spans), the named workload
 * alternates untraced and traced iterations for --seconds to give
 * the tracing overhead, and the per-layer metrics are computed from
 * the spans' self times and the stats-registry counter deltas taken
 * around the same calls. --smoke shrinks every input for the
 * self-test; --corrupt damages one output per workload so the
 * self-test can see it counted as a failed operation.
 *
 * The last line of standard output is one JSON object:
 * {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
 * Every number in it is host time or host memory; the simulated
 * statistics are checked outputs, never metrics.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/random.hh"
#include "common/simd.hh"
#include "control/adaptive_sim.hh"
#include "core/partitioner.hh"
#include "core/pipeline.hh"
#include "data/testcases.hh"
#include "fleet/fleet.hh"
#include "hw/cost_cache.hh"
#include "obs/stats_registry.hh"
#include "serve/batch_server.hh"
#include "serve/hot_path.hh"

using namespace xpro;

namespace
{

constexpr uint64_t kDefaultSeed = 2017;

/**
 * adaptive_day and serve run deployed models: the paper-config
 * designs trained on the library's default-seed datasets. Their
 * workload seed drives what those models see (the day trace, the
 * serving traffic), so seeds compare one program on different
 * inputs rather than differently sized models.
 */
constexpr uint64_t kModelSeed = 2017;

/**
 * Offered rate of the serve workload's open loop, in events per
 * second: about a quarter of the closed-loop inline capacity
 * measured when the benchmark was added (80-100k events/s on a
 * shared 4-thread x86-64 host, default seed). At half capacity a
 * wall-clock loop amplified the host's own speed noise into p50
 * swings of 22-39 us between identical runs; at a quarter the loop
 * still forms batches under bursts while its latency tracks the
 * serving path. Never retune it: latency is only comparable across
 * commits at one fixed rate.
 */
constexpr double kServeOfferedRate = 20000.0;
/** BatchServer batch size, as bench_serving_hotpath uses. */
constexpr size_t kServeBatch = 64;
/** Independent wearables sharing the six Table-1 models. */
constexpr size_t kWearables = 1200;

/** Setups per run; setup_s is their median. */
constexpr size_t kSetupRepeats = 3;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Process CPU seconds. Every timed path runs inline on the calling
 * thread, so on a quiet host this reads the same as wall time; unlike
 * wall time it leaves out the stretches in which the (virtual) CPU is
 * taken away from the process.
 */
double
cpuNow()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

/**
 * The host-speed reference. On a shared host the CPU runs faster or
 * slower from one minute to the next (clock frequency, neighbours on
 * the same core), and process CPU time moves with it. A fixed pass
 * that uses no library code, a dependent xorshift chain held in
 * registers, measures that speed. It is timed in thread CPU time, so
 * a library thread running beside it cannot make the host look slow.
 * Every pass is kept for the run's summary line.
 */
class HostSpeed
{
  public:
    /** The pass's median on a 4-vCPU Xeon (family 6, model 207) VM
     *  when the benchmark was added: the speed host times are
     *  reported at. */
    static constexpr double kNominalS = 0.012;

    static HostSpeed &
    instance()
    {
        static HostSpeed speed;
        return speed;
    }

    /** How much slower than nominal the host runs now: 1 at nominal
     *  speed, above 1 when slower. */
    double
    slowdown()
    {
        const double t0 = clockSeconds(CLOCK_THREAD_CPUTIME_ID);
        uint64_t x = 88172645463325252ull;
        uint64_t sum = 0;
        for (size_t i = 0; i < 5000000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum += x;
        }
        const double seconds = clockSeconds(CLOCK_THREAD_CPUTIME_ID) - t0;
        _sink = sum;
        _samples.push_back(seconds);
        return seconds / kNominalS;
    }

    const std::vector<double> &samples() const { return _samples; }

  private:
    std::vector<double> _samples;
    volatile uint64_t _sink = 0;
};

/**
 * Times one interval in host seconds at the reference speed: process
 * CPU time between construction and seconds(), divided by the mean
 * slowdown measured just before and just after it (no reference pass
 * falls inside the interval).
 */
class HostTimer
{
  public:
    HostTimer()
        : _slowdown(HostSpeed::instance().slowdown()), _cpu(cpuNow())
    {}

    double
    seconds() const
    {
        const double cpu = cpuNow() - _cpu;
        return cpu /
               (0.5 * (_slowdown + HostSpeed::instance().slowdown()));
    }

  private:
    double _slowdown;
    double _cpu;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/** FNV-1a over the bytes of @p text. */
uint64_t
digest(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
fmt(const char *format, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

/**
 * Digests of the simulated outputs recorded when the benchmark was
 * added,
 * keyed by the seed of the input they came from (the day seed for
 * adaptive_day, the workload seed for population). A pure speed
 * change must reproduce them exactly; an input without an entry
 * skips the digest check (the invariant checks still run).
 */
struct RecordedDigest
{
    const char *what;
    uint64_t seed;
    uint64_t value;
};

constexpr RecordedDigest kRecordedDigests[] = {
    {"adaptive_day.adaptive", 2017, 0x3d9a4c5ab0068a1full},
    {"adaptive_day.static", 2017, 0x6cae2f15f4a16da3ull},
    // The next two days a run at the default seed plays.
    {"adaptive_day.adaptive", 7355996404503079848ull, 0x99e4bdb9c719c049ull},
    {"adaptive_day.static", 7355996404503079848ull, 0x4e85d9b96b1d20aeull},
    {"adaptive_day.adaptive", 3252677139146419684ull, 0xcf740aa502eb812full},
    {"adaptive_day.static", 3252677139146419684ull, 0x7bcff39cc1db51f3ull},
    {"population", 2017, 0xad3acbb29d4e517eull},
};

/** Recorded digest for (@p what, @p seed), if any. */
std::optional<uint64_t>
recordedDigest(const std::string &what, uint64_t seed)
{
    for (const RecordedDigest &d : kRecordedDigests) {
        if (what == d.what && seed == d.seed)
            return d.value;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own calls into each
// layer, kept in memory and written as Chrome-trace JSON at the end.
// ---------------------------------------------------------------

class Tracer
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;

    struct Record
    {
        const char *name;
        const char *workload;
        uint32_t parent;
        uint32_t iteration;
        double start;
        double end;
    };

    /** RAII span; a no-op (no clock read) while tracing is off. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name)
            : _tracer(tracer.on() ? &tracer : nullptr)
        {
            if (_tracer)
                _index = _tracer->open(name);
        }
        ~Span()
        {
            if (_tracer)
                _tracer->close(_index);
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *_tracer;
        uint32_t _index = kNone;
    };

    bool on() const { return _on; }
    void setOn(bool on) { _on = on; }

    /** Tag the spans that follow with @p workload. */
    void setWorkload(const char *workload) { _workload = workload; }

    /** Start a new workload iteration: its spans share one id. */
    void nextIteration() { ++_iteration; }

    const std::vector<Record> &records() const { return _spans; }

    /** Duration minus the time covered by direct children. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(_spans.size());
        for (size_t i = 0; i < _spans.size(); ++i)
            self[i] = _spans[i].end - _spans[i].start;
        for (const Record &r : _spans) {
            if (r.parent != kNone)
                self[r.parent] -= r.end - r.start;
        }
        return self;
    }

    /**
     * Self time of spans named @p name in @p workload, summed per
     * iteration; one entry per iteration that has such spans.
     */
    std::vector<double>
    perIteration(const char *workload, const char *name) const
    {
        const std::vector<double> self = selfTimes();
        std::map<uint32_t, double> sums;
        for (size_t i = 0; i < _spans.size(); ++i) {
            if (std::strcmp(_spans[i].workload, workload) == 0 &&
                std::strcmp(_spans[i].name, name) == 0)
                sums[_spans[i].iteration] += self[i];
        }
        std::vector<double> out;
        for (const auto &[iteration, sum] : sums)
            out.push_back(sum);
        return out;
    }

    /** Self time of every span named @p name in @p workload. */
    std::vector<double>
    each(const char *workload, const char *name) const
    {
        const std::vector<double> self = selfTimes();
        std::vector<double> out;
        for (size_t i = 0; i < _spans.size(); ++i) {
            if (std::strcmp(_spans[i].workload, workload) == 0 &&
                std::strcmp(_spans[i].name, name) == 0)
                out.push_back(self[i]);
        }
        return out;
    }

    /** Chrome-trace JSON ("X" complete events), Perfetto-loadable;
     *  one track per workload. */
    void
    writeChrome(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write " + path);
        std::map<std::string, int> tids;
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        const double origin = _spans.empty() ? 0.0 : _spans[0].start;
        for (size_t i = 0; i < _spans.size(); ++i) {
            const Record &r = _spans[i];
            const int tid = tids.emplace(r.workload, tids.size() + 1)
                                .first->second;
            out << (i ? "," : "")
                << fmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                       "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                       "\"args\":{\"span\":%zu,\"parent\":%lld,"
                       "\"iteration\":%u}}",
                       r.name, r.workload, tid,
                       (r.start - origin) * 1e6,
                       (r.end - r.start) * 1e6, i,
                       r.parent == kNone
                           ? -1LL
                           : static_cast<long long>(r.parent),
                       r.iteration);
        }
        for (const auto &[workload, tid] : tids) {
            out << fmt(",{\"name\":\"thread_name\",\"ph\":\"M\","
                       "\"pid\":1,\"tid\":%d,\"args\":{\"name\":"
                       "\"%s\"}}",
                       tid, workload.c_str());
        }
        out << "]}\n";
    }

  private:
    uint32_t
    open(const char *name)
    {
        const uint32_t index = static_cast<uint32_t>(_spans.size());
        _spans.push_back({name, _workload, _open, _iteration,
                          wallNow(), 0.0});
        _open = index;
        return index;
    }

    void
    close(uint32_t index)
    {
        _spans[index].end = wallNow();
        _open = _spans[index].parent;
    }

    bool _on = false;
    const char *_workload = "";
    uint32_t _iteration = 0;
    uint32_t _open = kNone;
    std::vector<Record> _spans;
};

using Span = Tracer::Span;

// ---------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    bool smoke = false;
    bool corrupt = false;
};

/**
 * What a measured stretch of iterations produced. The throughput is
 * the stretch's work over its host time, so iterations whose inputs
 * cost different amounts per unit (the days of adaptive_day, the
 * dataset draws of design) weigh by their work. Host time per lossy
 * window differed by 15% (coefficient of variation) between 16
 * measured days; resampled into runs of six days, the median of
 * per-iteration rates spread about twice as far across runs as this
 * ratio. Latency percentiles are taken per iteration and reported as
 * their medians.
 */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    size_t iterations = 0;
    double units = 0.0;   ///< work units over all iterations
    double seconds = 0.0; ///< their host seconds
    std::vector<double> p50Us;
    std::vector<double> p90Us;
    std::vector<double> p99Us;
    size_t samples = 0; ///< latency samples over all iterations

    void
    addIteration(double work, double host_s,
                 const std::vector<double> &latencyUs)
    {
        ++iterations;
        units += work;
        seconds += host_s;
        p50Us.push_back(percentile(latencyUs, 0.50));
        p90Us.push_back(percentile(latencyUs, 0.90));
        p99Us.push_back(percentile(latencyUs, 0.99));
        samples += latencyUs.size();
    }

    /** A closed-loop iteration: its one latency sample is the host
     *  time per work unit. */
    void
    addClosedIteration(double work, double host_s)
    {
        addIteration(work, host_s, {host_s * 1e6 / work});
    }

    void
    merge(const Outcome &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        iterations += o.iterations;
        units += o.units;
        seconds += o.seconds;
        p50Us.insert(p50Us.end(), o.p50Us.begin(), o.p50Us.end());
        p90Us.insert(p90Us.end(), o.p90Us.begin(), o.p90Us.end());
        p99Us.insert(p99Us.end(), o.p99Us.begin(), o.p99Us.end());
        samples += o.samples;
    }

    double throughput() const { return seconds > 0.0 ? units / seconds : 0.0; }
};

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

class Workload
{
  public:
    Workload(const Options &options, Tracer &tracer)
        : _options(options), _tracer(tracer)
    {}
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    /** What one latency sample and one work unit are. */
    virtual const char *unitNote() const = 0;
    /** Build the inputs and warm up; safe to call again. */
    virtual void setup() = 0;
    /** One iteration of the workload. */
    virtual void iterate(Outcome &out) = 0;
    /**
     * Make the next iteration replay the inputs of the last one, so
     * the traced run compares untraced and traced iterations on the
     * same inputs. A no-op where every iteration has the same inputs.
     */
    virtual void replay() {}
    /** Per-layer rows from this workload's traced iterations. */
    virtual void layerMetrics(std::vector<Metric> &out) const = 0;

  protected:
    /** Record a failed check on stderr and count it. */
    void
    check(Outcome &out, bool ok, const std::string &what)
    {
        ++out.attempted;
        if (!ok) {
            ++out.failed;
            std::fprintf(stderr, "check failed [%s]: %s\n", name(),
                         what.c_str());
        }
    }

    /**
     * Compare @p value against the digest recorded for (@p what,
     * @p seed); true when they match or none is recorded.
     */
    bool
    digestMatches(const std::string &what, uint64_t seed, uint64_t value)
    {
        if (_options.smoke)
            return true; // digests are recorded at full size only
        const std::optional<uint64_t> recorded =
            recordedDigest(what, seed);
        const bool ok = !recorded || *recorded == value;
        const std::string key = what + fmt("@%" PRIu64, seed);
        if (!ok || !_printed.count(key)) {
            std::printf("digest %s seed %" PRIu64 ": 0x%016" PRIx64
                        " (%s)\n",
                        what.c_str(), seed, value,
                        !recorded ? "none recorded"
                                  : ok ? "matches" : "DIFFERS");
            _printed.insert(key);
        }
        return ok;
    }

    /** Corrupt this iteration's output once per run (self-test). */
    bool
    corruptNow()
    {
        if (!_options.corrupt || _corrupted)
            return false;
        _corrupted = true;
        return true;
    }

    const Options &_options;
    Tracer &_tracer;

  private:
    bool _corrupted = false;
    std::set<std::string> _printed;
};

EngineConfig
paperConfig(bool smoke)
{
    EngineConfig config; // defaults mirror the paper (Section 4.4)
    if (smoke)
        config.subspace.candidates = 8;
    return config;
}

TrainingOptions
paperTraining(uint64_t seed, bool smoke)
{
    TrainingOptions options; // mlWorkers = 1: inline
    options.maxTrainingSegments = smoke ? 60 : 300;
    options.seed = seed;
    return options;
}

/**
 * design: the designer's flow over the six Table-1 cases at the
 * paper configuration, train -> topology -> generator, with the
 * process-wide cost cache cleared before every sweep (each CLI
 * design run pays it cold). Unit: one designed case; latency
 * sample: a sweep's host time per designed case.
 */
class DesignWorkload : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "design"; }
    const char *unitNote() const override
    {
        return "one designed case (train, topology, generate)";
    }

    void
    setup() override
    {
        _draws.clear();
        Rng rng(_options.seed);
        for (size_t d = 0; d < kDraws; ++d) {
            Draw draw;
            draw.seed = rng.next();
            Span span(_tracer, "data.synth");
            for (TestCase tc : allTestCases) {
                if (_options.smoke && draw.datasets.size() == 2)
                    break;
                draw.datasets.push_back(makeTestCase(tc, draw.seed));
            }
            _draws.push_back(std::move(draw));
        }
        _next = 0;
    }

    void
    iterate(Outcome &out) override
    {
        const StatsSnapshot before = StatsRegistry::instance().snapshot();
        _last = _next;
        const Draw &draw = _draws[_next++ % _draws.size()];
        {
            Span sweep(_tracer, "design.sweep");
            const TrainingOptions training =
                paperTraining(draw.seed, _options.smoke);
            const HostTimer timer;
            CellCostCache::instance().clear();
            for (const SignalDataset &ds : draw.datasets)
                designCase(ds, training, out);
            out.addClosedIteration(
                static_cast<double>(draw.datasets.size()),
                timer.seconds());
        }
        if (!_tracer.on())
            return;
        const StatsSnapshot after = StatsRegistry::instance().snapshot();
        _cacheHits += after.value("cost_cache.hits") -
                      before.value("cost_cache.hits");
        _cacheMisses += after.value("cost_cache.misses") -
                        before.value("cost_cache.misses");
        // Reference feature extraction over the training-sized
        // prefix of every case, outside the timed sweep.
        Span probe(_tracer, "dsp.extract");
        const FeatureExtractor extractor(_config.wavelet);
        const size_t cap = paperTraining(draw.seed, _options.smoke)
                               .maxTrainingSegments;
        for (const SignalDataset &ds : draw.datasets) {
            const size_t n = std::min(ds.segments.size(), cap);
            for (size_t i = 0; i < n; ++i)
                extractor.extractAll(ds.segments[i].samples);
            _extracted += n;
        }
    }

    void replay() override { _next = _last; }

    void
    layerMetrics(std::vector<Metric> &out) const override
    {
        const auto perSweep = [&](const char *span) {
            return median(_tracer.perIteration(name(), span));
        };
        const double extract_s =
            median(_tracer.perIteration(name(), "dsp.extract"));
        const size_t sweeps =
            _tracer.perIteration(name(), "design.sweep").size();
        const double perSweepExtracted =
            sweeps ? static_cast<double>(_extracted) /
                         static_cast<double>(sweeps)
                   : 0.0;
        out.push_back({"data.synth_s", "s",
                       median(_tracer.each(name(), "data.synth"))});
        out.push_back({"ml.train_s", "s", perSweep("ml.train")});
        out.push_back({"dsp.extract_us", "us",
                       perSweepExtracted > 0.0
                           ? extract_s * 1e6 / perSweepExtracted
                           : 0.0});
        out.push_back({"core.topology_s", "s",
                       perSweep("core.topology")});
        const double lookups =
            static_cast<double>(_cacheHits + _cacheMisses);
        out.push_back({"hw.cost_cache_hit_rate", "ratio",
                       lookups > 0.0
                           ? static_cast<double>(_cacheHits) / lookups
                           : 0.0});
        out.push_back({"core.generate_s", "s",
                       perSweep("core.generate")});
    }

  private:
    void
    designCase(const SignalDataset &ds, const TrainingOptions &training,
               Outcome &out)
    {
        TrainedPipeline pipeline;
        {
            Span span(_tracer, "ml.train");
            pipeline = trainPipeline(ds, _config, training);
        }
        EngineTopology topology;
        {
            Span span(_tracer, "core.topology");
            topology = buildEngineTopology(pipeline.ensemble,
                                           ds.segmentLength, _config,
                                           ds.eventsPerSecond());
        }
        XProGenerator generator(topology, _link);
        PartitionResult result;
        {
            Span span(_tracer, "core.generate");
            result = generator.generate();
        }

        if (corruptNow())
            result.delay.backCompute += generator.delayLimit();
        const double objective =
            generator.objective(result.placement).j();
        const bool ok =
            result.delay.total() <= generator.delayLimit() &&
            objective <= generator
                             .objective(Placement::allInSensor(topology))
                             .j() &&
            objective <=
                generator
                    .objective(Placement::allInAggregator(topology))
                    .j();
        check(out, ok,
              ds.symbol + ": placement misses the delay limit or "
                          "loses to an all-in-one-end design");
    }

    /**
     * Independent dataset draws per run, seeded from the workload
     * seed; sweeps cycle through them. Training cost differs between
     * draws by tens of percent, so a run that designed only one draw
     * would measure its seed more than the code.
     */
    static constexpr size_t kDraws = 4;

    struct Draw
    {
        uint64_t seed = 0;
        std::vector<SignalDataset> datasets;
    };

    EngineConfig _config = paperConfig(_options.smoke);
    WirelessLink _link{transceiver(_config.wireless)};
    std::vector<Draw> _draws;
    size_t _next = 0;
    size_t _last = 0;
    uint64_t _cacheHits = 0;
    uint64_t _cacheMisses = 0;
    size_t _extracted = 0;
};

/**
 * adaptive_day: the runtime controller's lifetime over the seeded
 * nonstationary day for C1 (default AdaptiveRunConfig), against the
 * all-in-sensor static design on the same day. Work unit: one lossy
 * control window (a window of a bursty-channel episode) simulated by
 * either call. Lossy windows carry most of a day's host time, and a
 * day has 60 to 540 of its 1440, so host time per window of any kind
 * would measure the day drawn rather than the simulator. The count
 * follows from the day and the checked outputs (ControlReport::windows,
 * the static run's whole windows before depletion), so a pure speed
 * change cannot alter it. Latency sample: an iteration's host time
 * per lossy window.
 */
class AdaptiveDayWorkload : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "adaptive_day"; }
    const char *unitNote() const override
    {
        return "one lossy control window simulated by an "
               "adaptiveLifetime or staticLifetime call";
    }

    void
    setup() override
    {
        _topology.reset();
        SignalDataset ds;
        {
            Span span(_tracer, "data.synth");
            ds = makeTestCase(TestCase::C1, kModelSeed);
        }
        TrainedPipeline pipeline;
        {
            Span span(_tracer, "ml.train");
            pipeline = trainPipeline(ds, _config, _training);
        }
        {
            Span span(_tracer, "core.topology");
            _topology = std::make_unique<EngineTopology>(
                buildEngineTopology(pipeline.ensemble,
                                    ds.segmentLength, _config,
                                    ds.eventsPerSecond()));
        }
        _run = AdaptiveRunConfig{};
        _run.sensor.process = _config.process;
        if (_options.smoke) {
            // A small cell depletes within a few trace passes.
            _run.sensor.battery = Battery(0.2, 3.0);
        }
        // Warm-up: one pass of a fixed day through the same window
        // stepping engine.
        Span span(_tracer, "control.warmup");
        simulateAdaptiveStream(*_topology, _link,
                               NonstationaryTrace::day(kModelSeed), _run);
        _days = Rng(_options.seed);
        _iterations = 0;
    }

    void
    iterate(Outcome &out) override
    {
        const EngineTopology &topo = *_topology;
        // The first iteration plays day(seed); later ones play days
        // drawn from the seed, so one run averages several days.
        _lastDays = _days;
        _lastIterations = _iterations;
        const uint64_t day_seed =
            _iterations++ == 0 ? _options.seed : _days.next();
        const NonstationaryTrace day = NonstationaryTrace::day(day_seed);
        StatsRegistry &reg = StatsRegistry::instance();
        const StatsSnapshot s0 = reg.snapshot();
        const HostTimer adaptive_timer;
        LifetimeResult adaptive;
        {
            Span span(_tracer, "control.adaptive");
            adaptive = adaptiveLifetime(topo, _link, day, _run);
        }
        const double adaptive_s = adaptive_timer.seconds();
        const StatsSnapshot s1 = reg.snapshot();
        const HostTimer static_timer;
        LifetimeResult in_sensor;
        {
            Span span(_tracer, "sim.static");
            in_sensor = staticLifetime(
                topo, Placement::allInSensor(topo), _link, day, _run);
        }
        const double static_s = static_timer.seconds();

        const uint64_t adaptive_windows = adaptive.control.windows;
        const uint64_t static_windows = wholeWindows(in_sensor);
        const std::vector<ControlWindow> schedule =
            day.discretize(_run.control.repartitionPeriod);
        out.addClosedIteration(
            static_cast<double>(lossyWindows(schedule, adaptive_windows) +
                                lossyWindows(schedule, static_windows)),
            adaptive_s + static_s);

        if (corruptNow())
            adaptive.control.coldSolves += 1;
        check(out,
              adaptive.control.coldSolves == 1 &&
                  digestMatches("adaptive_day.adaptive", day_seed,
                                lifetimeDigest(adaptive)),
              "adaptive lifetime: cold solves != 1 or digest differs");
        check(out,
              digestMatches("adaptive_day.static", day_seed,
                            lifetimeDigest(in_sensor)),
              "static lifetime digest differs");

        if (!_tracer.on())
            return;
        _adaptiveWindows += adaptive_windows;
        _staticWindows += static_windows;
        for (const char *name : kWindowCounters)
            _windowCounts[name] += s1.value(name) - s0.value(name);
        warmResolveProbe();
    }

    void
    replay() override
    {
        _days = _lastDays;
        _iterations = _lastIterations;
    }

    void
    layerMetrics(std::vector<Metric> &out) const override
    {
        const double adaptive_s =
            sum(_tracer.perIteration(name(), "control.adaptive"));
        const double static_s =
            sum(_tracer.perIteration(name(), "sim.static"));
        const double aw = static_cast<double>(_adaptiveWindows);
        const double sw = static_cast<double>(_staticWindows);
        const double adaptive_us = aw > 0 ? adaptive_s * 1e6 / aw : 0.0;
        const double static_us = sw > 0 ? static_s * 1e6 / sw : 0.0;
        out.push_back({"control.adaptive_window_us", "us", adaptive_us});
        out.push_back({"sim.static_window_us", "us", static_us});
        out.push_back({"control.overhead_window_us", "us",
                       adaptive_us - static_us});
        out.push_back({"core.warm_resolve_us", "us",
                       median(_tracer.each(name(), "core.warm_resolve")) *
                           1e6 / kWarmLambdas});
        const auto perWindow = [&](const char *counter_name) {
            const auto it = _windowCounts.find(counter_name);
            return aw > 0 && it != _windowCounts.end()
                       ? static_cast<double>(it->second) / aw
                       : 0.0;
        };
        out.push_back({"sim.events_run_per_window", "count/window",
                       perWindow("sim.events_run")});
        out.push_back({"sim.queue_runs_per_window", "count/window",
                       perWindow("sim.queue_runs")});
        out.push_back({"control.resolves_per_window", "count/window",
                       perWindow("control.resolves")});
        out.push_back({"control.repartitions_per_window", "count/window",
                       perWindow("control.repartitions")});
    }

  private:
    static constexpr size_t kWarmLambdas = 32;
    static constexpr const char *kWindowCounters[] = {
        "sim.events_run", "sim.queue_runs", "control.resolves",
        "control.repartitions"};

    static double
    sum(const std::vector<double> &values)
    {
        double total = 0.0;
        for (double v : values)
            total += v;
        return total;
    }

    /** Whole control windows before depletion: how ControlReport
     *  counts them for the adaptive run. */
    uint64_t
    wholeWindows(const LifetimeResult &r) const
    {
        return static_cast<uint64_t>(std::floor(
            r.lifetime.sec() / _run.control.repartitionPeriod.sec()));
    }

    /** Lossy windows among the first @p windows windows stepped
     *  through repeated passes of @p schedule. */
    static uint64_t
    lossyWindows(const std::vector<ControlWindow> &schedule,
                 uint64_t windows)
    {
        const uint64_t tail = windows % schedule.size();
        uint64_t per_pass = 0;
        uint64_t in_tail = 0;
        for (size_t slot = 0; slot < schedule.size(); ++slot) {
            if (!schedule[slot].idealChannel()) {
                ++per_pass;
                in_tail += slot < tail ? 1 : 0;
            }
        }
        return windows / schedule.size() * per_pass + in_tail;
    }

    static uint64_t
    lifetimeDigest(const LifetimeResult &r)
    {
        return digest(r.control.serialize() +
                      fmt("|%.17g|%zu|%zu", r.lifetime.hr(),
                          r.tracePasses, r.events));
    }

    /** A warm 32-lambda cutAt sweep on the C1 topology: what the
     *  controller's re-solves cost. */
    void
    warmResolveProbe()
    {
        XProGenerator generator(*_topology, _link);
        generator.cutAt(0.0); // the one cold solve
        Span span(_tracer, "core.warm_resolve");
        const double ratio =
            std::pow(1e14, 1.0 / static_cast<double>(kWarmLambdas - 1));
        double lambda = 1e-10;
        for (size_t i = 0; i < kWarmLambdas; ++i, lambda *= ratio)
            generator.cutAt(lambda);
    }

    EngineConfig _config = paperConfig(_options.smoke);
    TrainingOptions _training = paperTraining(kModelSeed, _options.smoke);
    WirelessLink _link{transceiver(_config.wireless)};
    std::unique_ptr<EngineTopology> _topology;
    AdaptiveRunConfig _run;
    Rng _days;
    size_t _iterations = 0;
    Rng _lastDays;
    size_t _lastIterations = 0;
    uint64_t _adaptiveWindows = 0;
    uint64_t _staticWindows = 0;
    std::map<std::string, uint64_t> _windowCounts;
};

/**
 * population: one process simulating 1,000,000 nodes x 2 events on
 * 16 shards with one worker, the cloud tier provisioned for the
 * offered load as in bench_fleet_million. Unit: one completed
 * node-event. Latency sample: host time per node-event of one run.
 */
class PopulationWorkload : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "population"; }
    const char *unitNote() const override
    {
        return "one completed node-event of a runPopulationFleet call";
    }

    void
    setup() override
    {
        _config = PopulationFleetConfig{};
        _config.nodes = _options.smoke ? 20000 : 1000000;
        _config.eventsPerNode = 2;
        _config.shards = 16;
        _config.workers = 1; // inline
        _config.seed = _options.seed;
        _config.tiers.cloudEventsPerSec = 5000000;
        // Warm-up: page in the fleet code and size the allocator on
        // a smaller fleet of the same shape.
        PopulationFleetConfig warm = _config;
        warm.nodes = _config.nodes / 4;
        Span span(_tracer, "fleet.warmup");
        runPopulationFleet(warm);
    }

    void
    iterate(Outcome &out) override
    {
        StatsRegistry &reg = StatsRegistry::instance();
        const StatsSnapshot before = reg.snapshot();
        const HostTimer timer;
        const double cpu0 = cpuNow();
        const double t0 = wallNow();
        PopulationFleetResult result;
        {
            Span span(_tracer, "fleet.population");
            result = runPopulationFleet(_config);
        }
        const double elapsed = wallNow() - t0;
        const double cpu = cpuNow() - cpu0;
        const double host_s = timer.seconds();
        const StatsSnapshot after = reg.snapshot();

        const FleetReport &report = result.report;
        out.addClosedIteration(static_cast<double>(report.totalEvents),
                               host_s);

        uint64_t completed = report.totalEvents;
        if (corruptNow())
            completed -= 1;
        const uint64_t offered = _config.nodes * _config.eventsPerNode;
        check(out,
              completed + report.tiers.localFallbacks +
                          report.tiers.dutySuppressed +
                          report.chaos.droppedEvents ==
                      offered,
              "completed + dropped + suppressed != offered");
        check(out,
              digestMatches("population", _options.seed,
                            digest(report.serialize() +
                                   fmt("|%" PRIu64,
                                       result.simulatedEvents))),
              "FleetReport digest differs");

        if (!_tracer.on())
            return;
        _cpuSeconds.push_back(cpu);
        _wheelRates.push_back(
            static_cast<double>(result.simulatedEvents) / elapsed);
        for (const char *name : kQueueCounters)
            _queueCounts[name] = after.value(name) - before.value(name);
        _bytesPerNode = result.bytesPerNode;
    }

    void
    layerMetrics(std::vector<Metric> &out) const override
    {
        out.push_back({"fleet.population_s", "s",
                       median(_tracer.each(name(), "fleet.population"))});
        out.push_back({"fleet.population_cpu_s", "s", median(_cpuSeconds)});
        out.push_back({"sim.wheel_items_per_s", "1/s", median(_wheelRates)});
        for (const char *name : kQueueCounters) {
            const auto it = _queueCounts.find(name);
            out.push_back({name, "count",
                           it == _queueCounts.end()
                               ? 0.0
                               : static_cast<double>(it->second)});
        }
        out.push_back({"fleet.bytes_per_node", "B/node",
                       static_cast<double>(_bytesPerNode)});
    }

  private:
    static constexpr const char *kQueueCounters[] = {
        "event_queue.windows", "event_queue.cascades",
        "event_queue.far_filed"};

    PopulationFleetConfig _config;
    std::vector<double> _cpuSeconds;
    std::vector<double> _wheelRates;
    std::map<std::string, uint64_t> _queueCounts;
    size_t _bytesPerNode = 0;
};

/**
 * serve: independent wearables on the six Table-1 paper-config
 * models. Open loop: events arrive as a seeded Poisson stream at the
 * frozen kServeOfferedRate; every due event, up to kServeBatch, goes
 * to BatchServer::serveInto and is timed from its due time on the
 * loop's own clock (see openLoop). A closed-loop backlogged pass
 * between open-loop phases measures inline capacity. Unit: one event
 * of the closed-loop pass. Latency sample: one open-loop event, due
 * to classified.
 */
class ServeWorkload : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "serve"; }
    const char *unitNote() const override
    {
        return "latency: one open-loop event from its due time; "
               "throughput: one closed-loop event";
    }

    void
    setup() override
    {
        _server.reset();
        _hot.clear();
        _pipelines.clear();
        _datasets.clear();
        {
            Span span(_tracer, "data.synth");
            for (TestCase tc : allTestCases)
                _datasets.push_back(makeTestCase(tc, kModelSeed));
        }
        for (const SignalDataset &ds : _datasets) {
            Span span(_tracer, "ml.train");
            _pipelines.push_back(trainPipeline(ds, _config, _training));
        }
        std::vector<const HotPathPipeline *> users;
        _hot.reserve(_pipelines.size());
        for (const TrainedPipeline &pipeline : _pipelines) {
            _hot.emplace_back(pipeline);
            users.push_back(&_hot.back());
        }
        _server = std::make_unique<BatchServer>(users, kServeBatch,
                                                1); // inline
        // The oracle: every segment any event can carry, classified
        // once by the reference TrainedPipeline::classify.
        {
            Span span(_tracer, "core.classify_ref");
            _oracle.assign(_datasets.size(), {});
            for (size_t u = 0; u < _datasets.size(); ++u) {
                for (const Segment &s : _datasets[u].segments)
                    _oracle[u].push_back(_pipelines[u].classify(s.samples));
            }
        }
        _rng = Rng(_options.seed);
        // An equal share of the wearables per model, so every seed
        // offers the same model mix and draws only the traffic.
        _wearableModel.resize(kWearables);
        for (size_t w = 0; w < kWearables; ++w)
            _wearableModel[w] =
                static_cast<uint32_t>(w % _datasets.size());
        // Warm-up: grow the scratch arenas on one backlog pass.
        Outcome warm;
        closedPass(warm);
        if (warm.failed)
            throw std::runtime_error("serve warm-up mispredicted");
    }

    void
    iterate(Outcome &out) override
    {
        _lastRng = _rng;
        Span span(_tracer, "serve.iteration");
        const StatsSnapshot before = StatsRegistry::instance().snapshot();
        // Latency comes from the open-loop phase, throughput from
        // the closed-loop pass.
        const std::vector<double> latencyUs =
            openLoop(out, openLoopEvents());
        const double closed_s = closedPass(out);
        out.addIteration(static_cast<double>(closedPassEvents()),
                         closed_s, latencyUs);
        if (!_tracer.on())
            return;
        const StatsSnapshot after = StatsRegistry::instance().snapshot();
        _laneGroups += after.value("serve.lane_groups") -
                       before.value("serve.lane_groups");
        _laneIdle += after.value("serve.lane_slots_idle") -
                     before.value("serve.lane_slots_idle");
    }

    void replay() override { _rng = _lastRng; }

    void
    layerMetrics(std::vector<Metric> &out) const override
    {
        const std::vector<double> batches =
            _tracer.each(name(), "serve.batch");
        out.push_back({"serve.batch_us", "us", median(batches) * 1e6});
        out.push_back({"serve.batch_events_mean", "events/call",
                       _openCalls ? static_cast<double>(_openEvents) /
                                        static_cast<double>(_openCalls)
                                  : 0.0});
        const double slots =
            static_cast<double>(_laneGroups * simdPackWidth);
        out.push_back({"serve.lane_utilization", "ratio",
                       slots > 0.0
                           ? 1.0 - static_cast<double>(_laneIdle) / slots
                           : 0.0});
        size_t classified = 0;
        for (const std::vector<int> &labels : _oracle)
            classified += labels.size();
        const double oracle_s =
            median(_tracer.each(name(), "core.classify_ref"));
        out.push_back({"core.classify_ref_us", "us",
                       classified ? oracle_s * 1e6 /
                                        static_cast<double>(classified)
                                  : 0.0});
    }

  private:
    struct Pending
    {
        double due;
        uint32_t user;
        uint32_t segment;
    };

    /** Next event of the seeded stream (wearable -> model, segment). */
    Pending
    nextEvent(double due)
    {
        const uint32_t model =
            _wearableModel[_rng.below(kWearables)];
        const uint32_t segment = static_cast<uint32_t>(
            _rng.below(_datasets[model].segments.size()));
        return {due, model, segment};
    }

    double
    nextGap()
    {
        return -std::log(1.0 - _rng.uniform()) / kServeOfferedRate;
    }

    ServingEvent
    servingEvent(const Pending &p) const
    {
        const Segment &s = _datasets[p.user].segments[p.segment];
        return {p.user, s.samples.data(), s.samples.size()};
    }

    void
    verify(Outcome &out, const Pending *events, const int *labels,
           size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            ++out.attempted;
            if (labels[i] != _oracle[events[i].user][events[i].segment]) {
                ++out.failed;
                std::fprintf(stderr,
                             "check failed [serve]: user %u segment %u "
                             "predicted %d, oracle %d\n",
                             events[i].user, events[i].segment,
                             labels[i],
                             _oracle[events[i].user][events[i].segment]);
            }
        }
    }

    /**
     * Serve @p events of the seeded arrival stream, then drain;
     * returns each event's latency from its due time. The loop keeps
     * its own clock: it jumps to the next due time when the queue is
     * empty and advances by the host time of each serveInto call
     * (process CPU time at the reference speed, scaled by one
     * reference pass before the loop), so the queue forms as it would
     * on a CPU that is never taken away and runs at that speed, and
     * the loop never waits for an arrival.
     */
    std::vector<double>
    openLoop(Outcome &out, size_t events)
    {
        std::vector<double> latencyUs;
        latencyUs.reserve(events);
        std::vector<Pending> queue;
        queue.reserve(events);
        ServingEvent batch[kServeBatch];
        int labels[kServeBatch];
        const double slowdown = HostSpeed::instance().slowdown();
        double now = 0.0;
        Pending next = nextEvent(nextGap());
        size_t head = 0;
        while (head < events) {
            if (head == queue.size())
                now = std::max(now, next.due); // idle until it is due
            while (queue.size() < events && next.due <= now) {
                queue.push_back(next);
                next = nextEvent(next.due + nextGap());
            }
            const size_t n = std::min(kServeBatch, queue.size() - head);
            for (size_t i = 0; i < n; ++i)
                batch[i] = servingEvent(queue[head + i]);
            const double t0 = cpuNow();
            {
                Span span(_tracer, "serve.batch");
                _server->serveInto(batch, n, labels);
            }
            now += (cpuNow() - t0) / slowdown;
            for (size_t i = 0; i < n; ++i)
                latencyUs.push_back((now - queue[head + i].due) * 1e6);
            if (corruptNow())
                labels[0] = -labels[0];
            verify(out, queue.data() + head, labels, n);
            if (_tracer.on()) {
                ++_openCalls;
                _openEvents += n;
            }
            head += n;
        }
        return latencyUs;
    }

    /** One second of arrivals at the offered rate. */
    size_t openLoopEvents() const { return _options.smoke ? 2000 : 20000; }

    size_t closedPassEvents() const { return _options.smoke ? 512 : 16384; }

    /** A backlogged pass: a fixed batch of events served at once;
     *  returns its host seconds. */
    double
    closedPass(Outcome &out)
    {
        const size_t n = closedPassEvents();
        std::vector<Pending> events(n);
        std::vector<ServingEvent> batch(n);
        for (size_t i = 0; i < n; ++i) {
            events[i] = nextEvent(0.0);
            batch[i] = servingEvent(events[i]);
        }
        std::vector<int> labels(n);
        const HostTimer timer;
        {
            Span span(_tracer, "serve.closed");
            _server->serveInto(batch.data(), n, labels.data());
        }
        const double elapsed = timer.seconds();
        verify(out, events.data(), labels.data(), n);
        return elapsed;
    }

    EngineConfig _config = paperConfig(_options.smoke);
    TrainingOptions _training = paperTraining(kModelSeed, _options.smoke);
    std::vector<SignalDataset> _datasets;
    std::vector<TrainedPipeline> _pipelines;
    std::vector<HotPathPipeline> _hot;
    std::unique_ptr<BatchServer> _server;
    std::vector<std::vector<int>> _oracle;
    std::vector<uint32_t> _wearableModel;
    Rng _rng;
    Rng _lastRng;
    uint64_t _openCalls = 0;
    uint64_t _openEvents = 0;
    uint64_t _laneGroups = 0;
    uint64_t _laneIdle = 0;
};

const char *const kWorkloads[] = {"design", "adaptive_day", "population",
                                  "serve"};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &options,
             Tracer &tracer)
{
    if (name == "design")
        return std::make_unique<DesignWorkload>(options, tracer);
    if (name == "adaptive_day")
        return std::make_unique<AdaptiveDayWorkload>(options, tracer);
    if (name == "population")
        return std::make_unique<PopulationWorkload>(options, tracer);
    if (name == "serve")
        return std::make_unique<ServeWorkload>(options, tracer);
    return nullptr;
}

/** Set up @p runs times; returns the median setup seconds. */
double
timedSetup(Workload &workload, size_t runs)
{
    std::vector<double> times;
    for (size_t i = 0; i < runs; ++i) {
        const HostTimer timer;
        workload.setup();
        times.push_back(timer.seconds());
    }
    return median(times);
}

/** Iterate until @p seconds of wall time have passed (at least
 *  once). */
Outcome
measure(Workload &workload, double seconds)
{
    Outcome out;
    const double stop = wallNow() + seconds;
    do {
        workload.iterate(out);
    } while (wallNow() < stop);
    return out;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = fmt("{\"correct\": %s, \"attempted\": %" PRIu64
                           ", \"failed\": %" PRIu64 ", \"metrics\": {",
                           correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        line += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

int
runUntraced(const Options &options)
{
    Tracer tracer; // stays off
    std::unique_ptr<Workload> workload =
        makeWorkload(options.workload, options, tracer);
    const double setup_s =
        timedSetup(*workload, options.smoke ? 1 : kSetupRepeats);
    const Outcome out = measure(*workload, options.seconds);

    std::printf("workload %s seed %" PRIu64 ": %zu iterations, %zu "
                "latency samples (%s); median per-iteration p50 %.3f "
                "p90 %.3f p99 %.3f us\n",
                workload->name(), options.seed, out.iterations,
                out.samples, workload->unitNote(), median(out.p50Us),
                median(out.p90Us), median(out.p99Us));
    const std::vector<double> &passes = HostSpeed::instance().samples();
    std::printf("host times at the reference speed: reference pass "
                "median %.3f ms over %zu passes (nominal %.3f ms)\n",
                median(passes) * 1e3, passes.size(),
                HostSpeed::kNominalS * 1e3);
    const std::vector<Metric> metrics = {
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"throughput_per_s", "1/s", out.throughput()},
    };
    printResult(out.failed == 0, out.attempted, out.failed, metrics);
    return 0;
}

int
runTraced(const Options &options)
{
    Tracer tracer;
    tracer.setOn(true);
    Outcome total;
    std::vector<Metric> metrics;
    double overhead_pct = 0.0;
    for (const char *name : kWorkloads) {
        tracer.setWorkload(name);
        tracer.nextIteration();
        std::unique_ptr<Workload> workload =
            makeWorkload(name, options, tracer);
        workload->setup();
        if (options.workload != name) {
            tracer.nextIteration();
            workload->iterate(total);
        } else {
            // Alternate untraced and traced iterations on the same
            // inputs, so both sides see the same host conditions.
            Outcome plain, traced;
            const double stop = wallNow() + options.seconds;
            do {
                tracer.setOn(false);
                workload->iterate(plain);
                workload->replay();
                tracer.setOn(true);
                tracer.nextIteration();
                workload->iterate(traced);
            } while (wallNow() < stop);
            overhead_pct =
                (plain.throughput() / traced.throughput() - 1.0) * 100.0;
            total.merge(plain);
            total.merge(traced);
        }
        workload->layerMetrics(metrics);
    }
    metrics.push_back({"obs.trace_overhead_pct", "%", overhead_pct});
    if (!options.traceOut.empty()) {
        tracer.writeChrome(options.traceOut);
        std::printf("trace: %zu spans written to %s\n",
                    tracer.records().size(), options.traceOut.c_str());
    }
    printResult(total.failed == 0, total.attempted, total.failed,
                metrics);
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: xpro_perfbench --workload "
                 "design|adaptive_day|population|serve [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--smoke] [--corrupt]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                options.workload = value();
            else if (arg == "--seed")
                options.seed = std::stoull(value());
            else if (arg == "--seconds")
                options.seconds = std::stod(value());
            else if (arg == "--trace")
                options.trace = std::stoi(value()) != 0;
            else if (arg == "--trace-out")
                options.traceOut = value();
            else if (arg == "--smoke")
                options.smoke = true;
            else if (arg == "--corrupt")
                options.corrupt = true;
            else
                usage(("unknown argument " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  options.workload) == std::end(kWorkloads))
        usage("unknown or missing --workload");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    if (!statsCompiledIn()) {
        std::fprintf(stderr, "error: the stats registry is compiled "
                             "out; the benchmark reads its counters\n");
        return 2;
    }
    try {
        return options.trace ? runTraced(options) : runUntraced(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
