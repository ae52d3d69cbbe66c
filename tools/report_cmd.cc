/**
 * @file
 * `ahq report` — fold decision traces and BENCH_*.json
 * perf-trajectory files from one or more runs into a single JSON
 * or Markdown summary — and `ahq bench-diff`, the regression gate
 * comparing two BENCH_*.json files (also built standalone as
 * tools/bench_diff).
 */

#include "cli.hh"
#include "front_end.hh"

#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/trace_reader.hh"
#include "report/table.hh"

namespace ahq::cli
{

namespace
{

/**
 * The report's tables, filled while the inputs are read. Runs and
 * experiments put their columns in another order in Markdown than
 * in JSON, so each has one table per shape; bench rows share one.
 */
struct Report
{
    OutputTable runs{{"file", "scenario", "scheduler", "epochs",
                      "mean_e_s", "final_e_s", "decisions", "es_min",
                      "es_max", "es_p99", "spans", "faults",
                      "alert_raises", "alert_clears", "worst_burn"}};
    OutputTable runsMd{{"file", "scenario", "scheduler", "epochs",
                        "mean E_S", "final E_S", "E_S min", "E_S max",
                        "E_S p99", "decisions", "spans", "faults",
                        "alerts", "worst burn"}};
    OutputTable experiments{{"file", "scenario", "verdict",
                             "blocks_a", "blocks_b", "policy_swaps",
                             "es_mixed_est", "es_mixed_lo",
                             "es_mixed_hi", "p95_mixed_est",
                             "viol_mixed_est"}};
    OutputTable experimentsMd{{"file", "scenario", "verdict",
                               "dE_S mixed [95% CI]", "dp95 (ms)",
                               "dviol rate", "blocks", "swaps"}};
    OutputTable bench{{"file", "benchmark",
                       {"wall_ms", "wall (ms)"}, "throughput", "unit",
                       "config", {"git_rev", "git rev"}}};

    void addRun(const std::string &file, const RunSummary &s);
    void addExperiment(const std::string &file,
                       const obs::TraceEvent &ev);
    void addBench(const std::string &file, const obs::TraceEvent &ev);
};

void
Report::addRun(const std::string &file, const RunSummary &s)
{
    const double mean = s.epochs > 0 ? s.sumEs / s.epochs : 0.0;
    // The e_s series summary, absent when the trace carries none.
    auto es = [&](double v) { return s.es.buckets > 0 ? Cell(v) : Cell(); };
    runs.addRow({file, s.scenario, s.scheduler, s.epochs, mean,
                 s.finalEs, s.decisions, es(s.es.min), es(s.es.max),
                 es(s.es.p99), s.spanCalls, s.faults, s.alertRaises,
                 s.alertClears, s.worstBurn});
    runsMd.addRow(
        {file, scenarioCell(s.scenario), orDash(s.scheduler),
         s.epochs, mean, s.finalEs, es(s.es.min), es(s.es.max),
         es(s.es.p99), s.decisions, s.spanCalls, s.faults,
         std::to_string(s.alertRaises) + "/" +
             std::to_string(s.alertClears),
         s.alertRaises > 0 ? Cell(s.worstBurn) : Cell()});
}

void
Report::addExperiment(const std::string &file,
                      const obs::TraceEvent &ev)
{
    const std::string tag = ev.str("scenario");
    const auto blocks_a = static_cast<long long>(ev.num("blocks_a"));
    const auto blocks_b = static_cast<long long>(ev.num("blocks_b"));
    const auto swaps = static_cast<long long>(ev.num("policy_swaps"));
    const double est = ev.num("es_mixed_est");
    const double lo = ev.num("es_mixed_lo");
    const double hi = ev.num("es_mixed_hi");
    const double p95 = ev.num("p95_mixed_est");
    const double viol = ev.num("viol_mixed_est");
    experiments.addRow({file, tag, ev.str("verdict"), blocks_a,
                        blocks_b, swaps, est, lo, hi, p95, viol});
    using report::TextTable;
    experimentsMd.addRow(
        {file, scenarioCell(tag), ev.str("verdict"),
         TextTable::num(est) + " [" + TextTable::num(lo) + ", " +
             TextTable::num(hi) + "]",
         p95, viol,
         std::to_string(blocks_a) + "+" + std::to_string(blocks_b),
         swaps});
}

void
Report::addBench(const std::string &file, const obs::TraceEvent &ev)
{
    bench.addRow({file, ev.str("benchmark"), ev.num("wall_ms"),
                  ev.num("throughput"), orDash(ev.str("unit")),
                  orDash(ev.str("config")), orDash(ev.str("git_rev"))});
}

/**
 * Scan one input file into the report.
 * @return false after a read error (printed on err).
 */
bool
scanInput(const std::string &path, std::ostream &err, Report &report)
{
    RunFold runs;
    const bool read = foldTrace(
        path, err,
        [&](const obs::TraceEvent &ev, int) {
            const std::string type = ev.type();
            if (type == "bench")
                report.addBench(path, ev);
            else if (type == "experiment_end")
                report.addExperiment(path, ev);
            else
                runs.add(ev);
        },
        nullptr, /*bench_rows=*/true);
    for (const auto &s : runs.runs())
        report.addRun(path, s);
    return read;
}

/** Markdown: one section per non-empty table. */
void
printMarkdown(std::ostream &out, const Report &r)
{
    out << "# ahq report\n";
    for (const auto &[title, table] :
         {std::pair{"Runs", &r.runsMd},
          std::pair{"Experiments", &r.experimentsMd},
          std::pair{"Benchmarks", &r.bench}}) {
        if (table->empty())
            continue;
        out << "\n## " << title << "\n\n";
        table->printMarkdown(out);
    }
    if (r.runsMd.empty() && r.experimentsMd.empty() && r.bench.empty())
        out << "\n(no runs or benchmarks in the inputs)\n";
}

/** name -> last (wall_ms, throughput) seen, for bench-diff. */
std::map<std::string, std::pair<double, double>>
loadBenchFile(const std::string &path)
{
    std::map<std::string, std::pair<double, double>> entries;
    obs::forEachTraceFile(
        path, [&](const obs::TraceEvent &ev, int) {
            if (ev.type() != "bench") {
                throw std::runtime_error(
                    "not a bench entry (type '" + ev.type() +
                    "'; expected BENCH_*.json from --json)");
            }
            entries[ev.str("benchmark")] = {
                ev.num("wall_ms"), ev.num("throughput")};
        });
    if (entries.empty())
        throw std::runtime_error(path + ": no bench entries");
    return entries;
}

} // namespace

int
runReport(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    std::string format = "json";
    std::string outPath;
    std::vector<std::string> inputs;
    try {
        FlagScanner s(args);
        while (s.next()) {
            const std::string &a = s.name();
            if (a == "--format") {
                format = s.oneOf({"json", "md"});
            } else if (a == "-o" || a == "--output") {
                outPath = s.value();
            } else if (s.isFlag()) {
                throw std::invalid_argument("unknown option: " + a);
            } else {
                inputs.push_back(a);
            }
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }
    if (inputs.empty()) {
        err << "usage: ahq report [--format=json|md] [-o FILE] "
               "<trace.jsonl|BENCH_*.json>...\n";
        return 2;
    }

    Report report;
    for (const auto &path : inputs) {
        if (!scanInput(path, err, report))
            return 1;
    }

    std::ofstream file;
    if (!outPath.empty()) {
        file.open(outPath);
        if (!file.is_open()) {
            err << "error: cannot write: " << outPath << "\n";
            return 1;
        }
    }
    std::ostream &dst = outPath.empty() ? out : file;
    if (!printMachine(dst, format, nullptr,
                      {{{"tool", "ahq report"}},
                       {{"runs", &report.runs},
                        {"experiments", &report.experiments},
                        {"bench", &report.bench}}}))
        printMarkdown(dst, report);
    if (!outPath.empty())
        out << "report written to " << outPath << "\n";
    return 0;
}

int
runBenchDiff(const std::vector<std::string> &args,
             std::ostream &out, std::ostream &err)
{
    double threshold = 0.10;
    std::string baseline;
    std::vector<std::string> files;
    try {
        FlagScanner s(args);
        while (s.next()) {
            const std::string &a = s.name();
            if (a == "--baseline") {
                baseline = s.value();
            } else if (a == "--threshold") {
                threshold = s.number();
                if (threshold <= 0.0 || threshold >= 1.0) {
                    throw std::invalid_argument(
                        "--threshold must be a fraction in (0, 1), "
                        "got " + std::to_string(threshold));
                }
            } else if (s.isFlag()) {
                throw std::invalid_argument("unknown option: " + a);
            } else {
                files.push_back(a);
            }
        }
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }
    // Either the classic two-positional form, or --baseline plus
    // one positional (the fresh run) — the CI shape, where the
    // baseline is a committed file.
    if (!baseline.empty()) {
        if (files.size() != 1) {
            err << "error: --baseline takes exactly one "
                   "positional file (the new run)\n";
            return 2;
        }
        files.insert(files.begin(), baseline);
    }
    if (files.size() != 2) {
        err << "usage: ahq bench-diff [--threshold=0.10] "
               "[--baseline <old.json>] <old.json> <new.json>\n"
               "       (with --baseline, pass only <new.json>)\n";
        return 2;
    }

    std::map<std::string, std::pair<double, double>> oldB, newB;
    try {
        oldB = loadBenchFile(files[0]);
        newB = loadBenchFile(files[1]);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    report::TextTable t({"benchmark", "wall old (ms)",
                         "wall new (ms)", "wall delta%",
                         "thru old", "thru new", "speedup",
                         "status"});
    int regressions = 0;
    int compared = 0;
    double speedupProduct = 1.0;
    int speedups = 0;
    for (const auto &[name, o] : oldB) {
        const auto it = newB.find(name);
        if (it == newB.end()) {
            t.addRow({name, report::TextTable::num(o.first), "-",
                      "-", report::TextTable::num(o.second), "-",
                      "-", "missing"});
            continue;
        }
        ++compared;
        const auto &n = it->second;
        const double wallPct =
            o.first > 0.0
                ? 100.0 * (n.first - o.first) / o.first
                : 0.0;
        // Per-benchmark speedup ratio: >1 means the new run is
        // faster. Throughput is primary (what baselines track);
        // wall-time inverse fills in for rows without one.
        double speedup = 0.0;
        if (o.second > 0.0 && n.second > 0.0)
            speedup = n.second / o.second;
        else if (o.first > 0.0 && n.first > 0.0)
            speedup = o.first / n.first;
        if (speedup > 0.0) {
            speedupProduct *= speedup;
            ++speedups;
        }
        // Slower wall OR lower throughput beyond the threshold
        // flags the row (each metric is only judged when both
        // files carry it).
        const bool wallBad = o.first > 0.0 && n.first > 0.0 &&
            n.first > o.first * (1.0 + threshold);
        const bool thruBad = o.second > 0.0 && n.second > 0.0 &&
            n.second < o.second * (1.0 - threshold);
        if (wallBad || thruBad)
            ++regressions;
        t.addRow({name, report::TextTable::num(o.first),
                  report::TextTable::num(n.first),
                  report::TextTable::num(wallPct, 1),
                  report::TextTable::num(o.second),
                  report::TextTable::num(n.second),
                  speedup > 0.0
                      ? report::TextTable::num(speedup, 2) + "x"
                      : "-",
                  wallBad || thruBad ? "REGRESSION" : "ok"});
    }
    for (const auto &[name, n] : newB) {
        if (oldB.find(name) == oldB.end()) {
            t.addRow({name, "-",
                      report::TextTable::num(n.first), "-", "-",
                      report::TextTable::num(n.second), "-",
                      "new"});
        }
    }
    t.print(out);
    out << compared << " benchmark(s) compared, " << regressions
        << " regression(s) beyond "
        << report::TextTable::num(threshold * 100.0, 0) << "%";
    if (speedups > 0) {
        // Geometric mean: the one mean that is symmetric under
        // which file is the baseline of a ratio.
        out << ", geomean speedup "
            << report::TextTable::num(
                   std::pow(speedupProduct,
                            1.0 / static_cast<double>(speedups)),
                   2)
            << "x";
    }
    out << "\n";
    return regressions > 0 ? 1 : 0;
}

} // namespace ahq::cli
