/**
 * @file
 * Shared plumbing for the table/figure-reproducing bench binaries:
 * standard colocations, strategy registry, scenario runner and CSV
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
#include "exec/thread_pool.hh"
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

/**
 * The bench-wide thread pool: AHQ_JOBS threads, defaulting to the
 * hardware concurrency. All batch helpers below fan out on it.
 */
exec::ThreadPool &pool();

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

/** Factory for a named strategy: one fresh instance per run. */
std::unique_ptr<sched::Scheduler>
makeScheduler(const std::string &name);

/** The strategy names in the paper's presentation order. */
const std::vector<std::string> &allStrategies();

/** The managed strategies (PARTIES, CLITE, ARQ). */
const std::vector<std::string> &managedStrategies();

/**
 * The standard simulation configuration used by the Section VI
 * benches: 500 ms epochs, 120 s runs, the last 60 s aggregated.
 */
cluster::SimulationConfig standardConfig();

/**
 * Run one strategy on one node and return the aggregates.
 *
 * @param strategy Strategy name (see allStrategies()).
 * @param node The colocation.
 * @param cfg Simulation configuration.
 */
cluster::SimulationResult
runScenario(const std::string &strategy, const cluster::Node &node,
            const cluster::SimulationConfig &cfg);

/**
 * Batch counterpart of runScenario(): fan the jobs across pool()
 * and return results in job order, bitwise identical to running
 * each job serially (each job carries its own seed).
 */
std::vector<cluster::SimulationResult>
runScenarios(const std::vector<exec::ScenarioJob> &jobs);

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
cluster::Node eightAppNode();

/** Sweep helper: E_S as a function of available cores. */
core::EntropyCurve
entropyVsCores(const std::string &strategy,
               const std::vector<int> &core_counts, int ways,
               const apps::AppProfile &be_app,
               double xapian_load = 0.2);

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

/**
 * The git revision the bench binary was configured from (the
 * AHQ_GIT_REV compile definition; "unknown" outside a checkout) —
 * stamped into BENCH_*.json so bench_diff can name what regressed.
 */
std::string gitRev();

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

/**
 * The Section VI-A load-sweep figure shape shared by Figs. 8, 9 and
 * 11: one primary LC app sweeps 10-90% load while two secondary LC
 * apps sit at a fixed load (20%, then 40%), colocated with one BE
 * app; every strategy reports E_LC / E_BE / E_S plus tail latencies
 * and BE IPC.
 *
 * @param fig_name Short name for headings and the CSV file.
 * @param primary The sweeping LC app.
 * @param secondary_a First fixed-load LC app.
 * @param secondary_b Second fixed-load LC app.
 * @param be_app The BE app.
 */
void loadSweepFigure(const std::string &fig_name,
                     const apps::AppProfile &primary,
                     const apps::AppProfile &secondary_a,
                     const apps::AppProfile &secondary_b,
                     const apps::AppProfile &be_app);

} // namespace ahq::bench

#endif // AHQ_BENCH_COMMON_HH
