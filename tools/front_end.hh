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
 *  - OutputTable / printMachine, the one way an analysis verb's
 *    result becomes text, CSV, JSON or Markdown;
 *  - RunFold, the one per-run fold of a trace that `trace` and
 *    `report` share;
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
#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
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
     * value() when it is one of `choices`.
     * @throws std::invalid_argument "<flag> must be a, b or c (got
     *         <value>)" otherwise.
     */
    std::string oneOf(std::initializer_list<const char *> choices);

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

class OutputTable;
struct JsonDocument;

/**
 * One cell of an OutputTable: absent, a string, an integer, a
 * number or a list of numbers. A cell may carry a display string
 * that text and Markdown show in place of its value, such as
 * "(untagged)" for an empty scenario tag.
 */
class Cell
{
  public:
    /** Absent: "-" in text and Markdown, empty in CSV, no JSON key. */
    Cell() = default;
    Cell(std::string s) : value_(std::move(s)) {}
    Cell(const char *s) : value_(std::string(s)) {}
    template <std::integral I>
    Cell(I v) : value_(static_cast<long long>(v))
    {
    }
    Cell(double v) : value_(v) {}
    Cell(std::vector<double> v) : value_(std::move(v)) {}

    /** This cell, shown as `text` in text and Markdown. */
    Cell shown(std::string text) &&
    {
        shown_ = std::move(text);
        return std::move(*this);
    }

  private:
    friend class OutputTable;
    friend bool printMachine(std::ostream &, const std::string &,
                             const OutputTable *,
                             const JsonDocument &);

    /**
     * The text and Markdown spelling (`human`), or the CSV one
     * before escaping.
     */
    std::string spell(bool human) const;

    /** Append the JSON value (the cell must not be absent). */
    void appendJson(std::string &out) const;

    bool absent() const
    {
        return std::holds_alternative<std::monostate>(value_);
    }

    std::variant<std::monostate, std::string, long long, double,
                 std::vector<double>>
        value_;
    std::optional<std::string> shown_;
};

/** A scenario tag, shown as scenarioLabel(tag). */
Cell scenarioCell(const std::string &tag);

/** A string, shown as "-" when empty. */
Cell orDash(const std::string &s);

/**
 * A typed result table and its four renderings: the one place an
 * analysis verb's separators, quoting, escaping and absent-value
 * spellings live. Columns are declared once, each with a machine
 * key (CSV header, JSON member name) and a title (text and
 * Markdown header). Numbers print with 3 decimals in text and
 * Markdown and in the shortest round-trip form in CSV and JSON.
 */
class OutputTable
{
  public:
    struct Column
    {
        /** A column whose title is its key. */
        Column(const char *k) : key(k), title(k) {}
        Column(std::string k, std::string t)
            : key(std::move(k)), title(std::move(t))
        {
        }
        std::string key;
        std::string title;
    };

    explicit OutputTable(std::vector<Column> columns)
        : columns_(std::move(columns))
    {
    }

    /** Append a row; its cells line up with the columns. */
    void addRow(std::vector<Cell> row)
    {
        rows_.push_back(std::move(row));
    }

    bool empty() const { return rows_.empty(); }

    /** Aligned text through report::TextTable. */
    void printText(std::ostream &out) const;

    /**
     * The keys, then one line per row, each cell escaped by
     * report::CsvWriter::escape.
     */
    void printCsv(std::ostream &out) const;

    /**
     * A Markdown table: every '|' inside a cell is escaped as "\\|"
     * and every newline written as "<br>".
     */
    void printMarkdown(std::ostream &out) const;

    /** The rows as a JSON array of objects; absent cells add no key. */
    void appendJson(std::string &out) const;

  private:
    std::vector<Column> columns_;
    std::vector<std::vector<Cell>> rows_;
};

/**
 * A verb's JSON document, printed as one line: the header members
 * (such as "v" and "tool"), then one array member per table.
 */
struct JsonDocument
{
    std::vector<std::pair<std::string, Cell>> header;
    std::vector<std::pair<std::string, const OutputTable *>> tables;
};

/**
 * Print a verb's result in a machine format: the `csv` table for
 * "csv", the `json` document for "json". Any other format (text,
 * md) prints nothing and returns false, and the verb lays the
 * result out itself from the same tables.
 */
bool printMachine(std::ostream &out, const std::string &format,
                  const OutputTable *csv, const JsonDocument &json);

/**
 * What one trace file says about one run, i.e. one scenario tag:
 * the per-run fold `ahq trace` and `ahq report` share.
 */
struct RunSummary
{
    std::string scenario;
    std::string scheduler;
    long long epochs = 0;
    double sumEs = 0.0;
    double finalEs = 0.0;

    /** `*_decision` events of any scheduler. */
    long long decisions = 0;

    /**
     * ARQ moves and PARTIES / CLITE adjusting actions; ARQ
     * rollbacks and PARTIES / CLITE reverts; ARQ bans.
     */
    long long adjustments = 0;
    long long rollbacks = 0;
    long long bans = 0;

    long long faults = 0;
    long long recoveries = 0;
    long long violations = 0;

    /**
     * `span` events (what `trace` counts) and the sum of their
     * `count` fields (what `report` counts).
     */
    long long spanEvents = 0;
    long long spanCalls = 0;

    long long seriesEvents = 0;

    /** The run's folded `e_s` series; es.buckets == 0 when absent. */
    SeriesSummary es;

    long long alertRaises = 0;
    long long alertClears = 0;

    /** Worst fast-window burn rate seen at any alert transition. */
    double worstBurn = 0.0;

    /**
     * Events of the families above. A tag seen only on other
     * events (an experiment's own start/block/end events) keeps 0.
     */
    long long folded = 0;
};

/**
 * Folds one trace file's events into one RunSummary per scenario
 * tag, in the order the tags first appear.
 */
class RunFold
{
  public:
    /** Fold one event into its run; returns the run's index. */
    std::size_t add(const obs::TraceEvent &ev);

    const std::vector<RunSummary> &runs() const { return runs_; }

  private:
    std::map<std::string, std::size_t> index_;
    std::vector<RunSummary> runs_;
};

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

        /** Who writes the run's `span` events into the trace. */
        enum class Spans
        {
            /** ScenarioRunner jobs flush their own (sweep, chaos). */
            Jobs,
            /**
             * finish() flushes the merged per-node profile without
             * wall-clock fields, so the trace stays byte-identical
             * at any --jobs (fleet, experiment run).
             */
            Merged,
            /**
             * One run with no --jobs fan-out: spans carry
             * wall-clock fields, and finish() flushes them
             * (simulate).
             */
            WallClock,
        };
        Spans spans = Spans::Jobs;
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
    bool flushSpans_;
    std::unique_ptr<obs::FileTraceSink> sink_;
    obs::TimeSeriesRegistry series_;
    obs::SpanProfiler prof_;
};

} // namespace ahq::cli

#endif // AHQ_TOOLS_FRONT_END_HH
