/**
 * @file
 * Shared plumbing for the table/figure-reproducing bench binaries:
 * standard colocations, the one scenario-batch run path and CSV
 * output location.
 */

#ifndef AHQ_BENCH_COMMON_HH
#define AHQ_BENCH_COMMON_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "core/equivalence.hh"
#include "exec/scenario_runner.hh"
#include "obs/scope.hh"
#include "report/ascii_chart.hh"
#include "report/csv.hh"
#include "report/table.hh"
#include "sched/arq.hh"
#include "sched/clite.hh"
#include "sched/lc_first.hh"
#include "sched/parties.hh"
#include "sched/unmanaged.hh"

namespace ahq::bench
{

/**
 * Directory CSV series are written into (created on demand).
 * Overridable via the AHQ_BENCH_OUT environment variable;
 * thread-safe, so pool workers may race on the first call.
 */
std::string outputDir();

/** Open a CSV in the output directory ("fig08.csv" etc.). */
std::unique_ptr<report::CsvWriter>
openCsv(const std::string &filename,
        const std::vector<std::string> &header);

/**
 * The bench-wide telemetry scope, configured from the environment:
 * AHQ_TRACE=<path> opens a JSONL trace sink (parent directories
 * created on demand), AHQ_METRICS=1 routes counters into the global
 * registry and dumps it to stderr at exit. Both default to off, so
 * an unconfigured bench pays only null-pointer branches.
 */
obs::Scope benchScope();

/** The strategy names in the paper's presentation order. */
const std::vector<std::string> &allStrategies();

/**
 * The standard simulation configuration used by the Section VI
 * benches: 500 ms epochs, 120 s runs, the last 60 s aggregated.
 */
cluster::SimulationConfig standardConfig();

/**
 * The one way a figure simulates: fan the tagged jobs across the
 * global pool (AHQ_JOBS threads) under benchScope(), and return
 * results in job order, bitwise identical to running each job
 * serially (each job carries its own seed). With AHQ_TRACE set,
 * every job writes its scenario_start/run/scenario_end events,
 * flushed in job order, so the trace is byte-identical at any
 * AHQ_JOBS.
 */
std::vector<cluster::SimulationResult>
runScenarios(const std::vector<exec::ScenarioJob> &jobs);

/**
 * runScenarios() over each strategy once on one node, tagged
 * `<tag_prefix><strategy>`; results in strategy order.
 */
std::vector<cluster::SimulationResult>
runStrategies(const std::vector<std::string> &strategies,
              const cluster::Node &node,
              const cluster::SimulationConfig &cfg,
              const std::string &tag_prefix = "");

/** The paper's canonical 3-LC colocation plus a chosen BE app. */
cluster::Node
canonicalNode(double xapian_load, double moses_load,
              double imgdnn_load, const apps::AppProfile &be_app,
              const machine::MachineConfig &mc =
                  machine::MachineConfig::xeonE52630v4());

/**
 * Fig. 12's 6 LC + 2 BE colocation: Moses, Xapian, Img-dnn, Sphinx,
 * Masstree and Silo at 20% load with Fluidanimate and Streamcluster.
 */
cluster::Node
eightAppNode(const machine::MachineConfig &mc =
                 machine::MachineConfig::xeonE52630v4());

/**
 * The Fig. 2/3 and Table II scenario: the canonical node at 20% load
 * with Fluidanimate, given `cores` cores and `ways` LLC ways, tagged
 * `<strategy>@<cores>c<ways>w`.
 */
exec::ScenarioJob resourceJob(const std::string &strategy, int cores,
                              int ways);

/** Wall seconds of one call of fn. */
double secondsOnce(const std::function<void()> &fn);

/**
 * Best-of-N wall seconds of fn: the minimum keeps scheduler jitter
 * out of the trajectory.
 */
double secondsOfN(const std::function<void()> &fn, int reps = 3);

/**
 * Median over interleaved pairs of wall(on) / wall(off): each pair
 * times `off` and `on` back to back, alternating which goes first,
 * and pairs repeat until at least 3 s of wall time and 9 pairs
 * have passed. Host noise that lands on one sample moves one
 * ratio, not the median, so a percent-level overhead gate decided
 * on it does not fail on a single slow run the way a best-of-N
 * comparison of two blocks can. (At 1 s, 2 of 10 runs of an
 * identical off/on pair read above 2% on a shared 4-vCPU VM; at
 * 3 s, none of 10 did.)
 */
double medianPairedRatio(const std::function<void()> &off,
                         const std::function<void()> &on);

/** Format a double for tables (shortcut). */
std::string num(double v, int precision = 3);

/** Parsed perf-trajectory flags for a bench main(). */
struct BenchArgs
{
    /** --json[=FILE] seen: emit a BENCH_<name>.json trajectory. */
    bool json = false;

    /** Destination; default outputDir()/BENCH_<name>.json. */
    std::string jsonPath;
};

/**
 * Parse a bench binary's argv: `--json` (default path) or
 * `--json=FILE`. Unknown options abort with a usage message on
 * stderr and exit code 2 — bench binaries have no other flags.
 *
 * @param name The bench's short name ("parallel_scaling").
 */
BenchArgs parseBenchArgs(int argc, char **argv,
                         const std::string &name);

/**
 * Perf-trajectory emitter: collects one row per timed workload and
 * writes them as BENCH_<name>.json — JSONL, one flat object per
 * line: {"type":"bench","benchmark":...,"wall_ms":...,
 * "throughput":...,"unit":...,"config":...,"git_rev":...} — the
 * shape obs::parseTraceLine reads back and `ahq report` /
 * `ahq bench-diff` / tools/bench_diff consume. A writer built from
 * BenchArgs with json=false drops every row, so benches call add()
 * unconditionally.
 */
class BenchJsonWriter
{
  public:
    BenchJsonWriter(const std::string &name, const BenchArgs &args);

    /** Writes the collected rows (no-op when --json was absent). */
    ~BenchJsonWriter();

    /**
     * Record one timed workload.
     *
     * @param benchmark Row name, unique within the file.
     * @param wall_ms Wall time in milliseconds.
     * @param throughput Work per second (0 = not meaningful).
     * @param unit What throughput counts ("epochs/s").
     * @param config Free-form knob summary ("threads=4 jobs=15").
     */
    void add(const std::string &benchmark, double wall_ms,
             double throughput, const std::string &unit,
             const std::string &config);

  private:
    bool enabled_;
    std::string path_;
    std::vector<std::string> lines_;
};

/** The simulated grid of a loadSweepFigure(). */
struct LoadSweep
{
    /** Fixed secondary loads, in grid order. */
    std::vector<double> fixedLoads;

    /** Primary loads, in grid order. */
    std::vector<double> loads;

    /** One result per (fixed, load, allStrategies()) cell. */
    std::vector<cluster::SimulationResult> results;

    /** The cell of one grid point (values as listed above). */
    const cluster::SimulationResult &
    at(double fixed, double load, const std::string &strategy) const;
};

/**
 * The Section VI-A load-sweep figure shape shared by Figs. 8, 9 and
 * 11: one primary LC app sweeps 10-90% load while two secondary LC
 * apps sit at a fixed load (20%, then 40%), colocated with one BE
 * app; every strategy reports E_LC / E_BE / E_S plus tail latencies
 * and BE IPC. Returns the grid, so a figure's summary reads its
 * runs instead of simulating them again.
 *
 * @param fig_name Short name for headings and the CSV file.
 * @param primary The sweeping LC app.
 * @param secondary_a First fixed-load LC app.
 * @param secondary_b Second fixed-load LC app.
 * @param be_app The BE app.
 */
LoadSweep loadSweepFigure(const std::string &fig_name,
                          const apps::AppProfile &primary,
                          const apps::AppProfile &secondary_a,
                          const apps::AppProfile &secondary_b,
                          const apps::AppProfile &be_app);

} // namespace ahq::bench

#endif // AHQ_BENCH_COMMON_HH
