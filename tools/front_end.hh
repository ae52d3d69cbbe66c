/**
 * @file
 * The front end every `ahq` verb shares (DESIGN.md §18):
 *
 *  - FlagScanner, the one reader of the `--flag[=value]` grammar,
 *    and the typed value readers that validate flag values;
 *  - foldTrace / parseTraceArgs, the one path by which the
 *    trace-reading verbs (trace, timeline, profile, why, alerts,
 *    report, experiment analyze|verdict) open a JSONL trace, check
 *    its schema version, filter it and pick an output format;
 *  - machineFor / nodeFor / simulationConfigFor, the one mapping
 *    from SimulateOptions to the inputs of a run;
 *  - RunTelemetry, the one wiring of a run's trace sink, metrics,
 *    time series and span profiler, and the one end-of-run output
 *    that prints and flushes them.
 *
 * Exit-code contract of every verb: 0 ok, 1 bad input data or a
 * runtime failure, 2 a usage error (bad flag, bad flag value,
 * missing argument).
 */

#ifndef AHQ_TOOLS_FRONT_END_HH
#define AHQ_TOOLS_FRONT_END_HH

#include <climits>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cli.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_sink.hh"
#include "trace/fleet_load.hh"

namespace ahq::cli
{

/**
 * Walks a verb's arguments one at a time. An argument starting
 * with "--" is split at its first '=' so every flag accepts both
 * "--flag value" and "--flag=value"; anything else (positional
 * "app=load" specs, short flags such as "-o") stays whole.
 */
class FlagScanner
{
  public:
    explicit FlagScanner(const std::vector<std::string> &args)
        : args_(args)
    {
    }

    /** Advance to the next argument; false past the last one. */
    bool next();

    /** The current argument without any inline "=value". */
    const std::string &name() const { return name_; }

    /** The current argument exactly as given. */
    const std::string &raw() const { return args_[cur_]; }

    /** True when the current argument starts with '-'. */
    bool isFlag() const { return !name_.empty() && name_[0] == '-'; }

    /**
     * The current flag's value: its inline "=value", else the next
     * argument, which is consumed.
     * @throws std::invalid_argument "<flag> needs a value" when the
     *         list ends first.
     */
    std::string value();

    /** value() as a finite number (see parseDouble). */
    double number();

    /**
     * value() as a finite number >= min_v.
     * @throws std::invalid_argument "<flag> must be >= <min_v> (got
     *         <value>)" below the minimum.
     */
    double numberAtLeast(double min_v);

    /**
     * value() as an integer >= min_v; fractional or trailing input
     * is an error.
     * @throws std::invalid_argument "bad <flag>: '<s>' (expected an
     *         integer)", or "<flag> must be >= <min_v> (got <s>)".
     */
    long long integer(long long min_v = LLONG_MIN);

    /**
     * Mark the current flag as a switch.
     * @throws std::invalid_argument when it was given "=value".
     */
    void noValue() const;

  private:
    const std::vector<std::string> &args_;
    std::size_t cur_ = 0;
    std::size_t next_ = 0;
    std::string name_;
    std::string inline_;
    bool hasInline_ = false;
};

/**
 * A finite number.
 * @throws std::invalid_argument "bad <what>: '<s>' (expected a
 *         finite number)" on trailing characters, nan or inf.
 */
double parseDouble(const std::string &s, const std::string &what);

/**
 * Scan one flag of the fleet workload shape that fleet and
 * experiment share (--lc --be --tenants --zipf) into `load`.
 * @return false when the current flag is not one of them.
 */
bool scanLoadShape(FlagScanner &s, trace::FleetLoadConfig &load);

/** Apply --jobs (0 keeps the AHQ_JOBS / hardware default). */
void applyJobs(const SimulateOptions &opt);

/** The row label of a scenario tag: "(untagged)" when empty. */
std::string scenarioLabel(const std::string &tag);

/**
 * Stream one trace file under the trace verbs' contract: every
 * event must carry `"v": obs::kSchemaVersion` (with `bench_rows`,
 * `bench` events are exempt: BENCH_*.json rows carry no "v"), and
 * any read, parse or schema error — or an exception from `fn` — is
 * printed as "error: <what>" on `err`.
 *
 * @return false after an error (the verb exits 1).
 */
bool foldTrace(const std::string &path, std::ostream &err,
               const obs::TraceEventFn &fn,
               obs::TraceReadStats *stats = nullptr,
               bool bench_rows = false);

/** Count-weighted summary of a `series` event's buckets. */
struct SeriesSummary
{
    double min = 0.0, max = 0.0, mean = 0.0;

    /**
     * Count-weighted 99th percentile of the per-bucket maxima: an
     * upper estimate that survives downsampling, since folding
     * preserves maxima exactly.
     */
    double p99 = 0.0;

    /** Samples over all non-empty buckets. */
    std::uint64_t count = 0;

    /** Non-empty buckets summarized; 0 = no data. */
    std::size_t buckets = 0;
};

/**
 * Summarize a series event's bucket arrays (n, min, max, sum) over
 * the buckets n, min and max all carry; empty buckets are skipped.
 */
SeriesSummary summarizeSeries(const std::vector<double> &n,
                              const std::vector<double> &min,
                              const std::vector<double> &max,
                              const std::vector<double> &sum);

/** Filters, output format and input of a trace-folding verb. */
struct TraceArgs
{
    std::string path;
    std::string scenario;        // empty = all
    std::string app;             // empty = all
    std::string format = "text"; // text | csv | json

    /** Whether an event passes the --scenario / --app filters. */
    bool matches(const obs::TraceEvent &ev) const;
};

/**
 * Parse `[--scenario TAG] [--app NAME] [--format text|csv|json]
 * <file.jsonl>` plus the verb's own flags: `extra` is offered every
 * flag outside that set and returns false for one it does not know
 * either. --app is accepted only `with_app`.
 *
 * On a usage error prints "error: <what>" and `usage` to `err` and
 * returns nullopt (the verb exits 2).
 */
std::optional<TraceArgs>
parseTraceArgs(const std::vector<std::string> &args, std::ostream &err,
               const char *usage, bool with_app,
               const std::function<bool(FlagScanner &)> &extra = {});

/**
 * The machine the options describe: the Xeon E5-2630 v4 with
 * --cores / --ways / --bw available.
 */
machine::MachineConfig machineFor(const SimulateOptions &opt);

/** The node the options describe: LC apps at their loads, then BE. */
cluster::Node nodeFor(const SimulateOptions &opt);

/**
 * The per-run simulation settings the options describe (duration,
 * warmup, seed, percentile, RI, check mode, trace sampling,
 * attribution, SLO). Faults, telemetry and keepEpochs are left to
 * the verb.
 */
cluster::SimulationConfig simulationConfigFor(const SimulateOptions &opt);

/**
 * The telemetry of one run verb (simulate, sweep, chaos, fleet,
 * experiment run), wired from --trace, --metrics and --profile:
 * `scope` carries the trace sink, the metrics registry (attached
 * with any of the three), the time-series registry (while tracing)
 * and the span profiler. Hand `scope` to the run, then call
 * finish().
 */
class RunTelemetry
{
  public:
    /** How a verb's telemetry differs from the common wiring. */
    struct Shape
    {
        /** Scenario tag of the run's events ("" = jobs tag). */
        std::string scenario;

        /** Attach the time-series registry while tracing. */
        bool series = true;

        /** Attach the metrics registry even without a flag. */
        bool metrics = false;

        /**
         * One run with no --jobs fan-out: spans carry wall-clock
         * fields, and finish() flushes the profile into the trace.
         * Fan-out runs keep it off so traces stay byte-identical at
         * any --jobs (ScenarioRunner jobs flush their own spans).
         */
        bool wallClock = false;
    };

    RunTelemetry(const SimulateOptions &opt, Shape shape);

    obs::Scope scope;
    obs::MetricsRegistry metrics;

    /**
     * The end of the run: print the span tree under
     * `profile_title`, flush the series and the sink ("trace
     * written to <path>"), then dump the metrics for --metrics.
     */
    void finish(std::ostream &out, const char *profile_title);

  private:
    bool dumpMetrics_;
    std::unique_ptr<obs::FileTraceSink> sink_;
    obs::TimeSeriesRegistry series_;
    obs::SpanProfiler prof_;
};

} // namespace ahq::cli

#endif // AHQ_TOOLS_FRONT_END_HH
