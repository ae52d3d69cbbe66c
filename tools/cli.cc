/**
 * @file
 * `ahq` CLI implementation.
 */

#include "cli.hh"
#include "front_end.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/catalog.hh"
#include "cluster/oracle.hh"
#include "fault/plan.hh"
#include "exec/scenario_runner.hh"
#include "report/csv.hh"
#include "report/table.hh"
#include "sched/registry.hh"

namespace ahq::cli
{

namespace
{

using sched::makeScheduler;

std::vector<std::string>
splitCsvRow(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    return cells;
}

} // namespace

std::vector<obs::AttributionRow>
blameRows(const obs::AttributionLedger &ledger, std::size_t top)
{
    auto rows = ledger.rows();
    std::stable_sort(rows.begin(), rows.end(),
                     [](const obs::AttributionRow &a,
                        const obs::AttributionRow &b) {
                         return a.share > b.share;
                     });
    if (top > 0 && rows.size() > top)
        rows.resize(top);
    return rows;
}

void
printBlameTable(std::ostream &out,
                const obs::AttributionLedger &ledger,
                std::size_t top)
{
    report::TextTable t({"victim", "culprit", "resource",
                         "sum R_i share", "epochs"});
    for (const auto &r : blameRows(ledger, top)) {
        t.addRow({r.victim, r.culprit, r.resource,
                  report::TextTable::num(r.share),
                  std::to_string(r.epochs)});
    }
    t.print(out);
}

/** One-line alert accounting for a run with --slo. */
void
printSloSummary(std::ostream &out, const obs::SloSummary &slo)
{
    out << "slo: raises = " << slo.raises
        << ", clears = " << slo.clears
        << ", active at end = " << slo.activeAtEnd
        << ", alert epochs = " << slo.alertEpochs
        << ", worst burn = "
        << report::TextTable::num(slo.worstBurn) << "\n";
}

SimulateOptions
parseSimulateArgs(const std::vector<std::string> &args,
                  bool require_apps)
{
    SimulateOptions opt;
    FlagScanner s(args);
    while (s.next()) {
        const std::string &a = s.name();
        if (a == "--strategy") {
            opt.strategy = s.value();
        } else if (a == "--duration") {
            opt.durationSeconds = s.number();
            if (opt.durationSeconds <= 0.0) {
                throw std::invalid_argument(
                    "--duration must be a positive number of "
                    "seconds (got " +
                    std::to_string(opt.durationSeconds) + ")");
            }
        } else if (a == "--warmup") {
            opt.warmupEpochs = static_cast<int>(s.integer(0));
        } else if (a == "--cores") {
            opt.cores = static_cast<int>(s.integer(1));
        } else if (a == "--ways") {
            opt.ways = static_cast<int>(s.integer(1));
        } else if (a == "--bw") {
            opt.bwUnits = static_cast<int>(s.integer(1));
        } else if (a == "--seed") {
            opt.seed = static_cast<std::uint64_t>(s.integer(0));
        } else if (a == "--percentile") {
            opt.percentile = s.number();
            if (opt.percentile <= 0.0 || opt.percentile >= 1.0) {
                throw std::invalid_argument(
                    "--percentile must be in (0, 1), got " +
                    std::to_string(opt.percentile));
            }
        } else if (a == "--ri") {
            opt.ri = s.number();
            if (opt.ri < 0.0 || opt.ri > 1.0) {
                throw std::invalid_argument(
                    "--ri must be within [0, 1] (Eq. 7 weights "
                    "E_LC by RI), got " +
                    std::to_string(opt.ri));
            }
        } else if (a == "--check") {
            opt.checkMode = check::modeFromString(s.value());
            opt.checkModeExplicit = true;
        } else if (a == "--faults") {
            opt.faultsPath = s.value();
        } else if (a == "--csv") {
            opt.csvPath = s.value();
        } else if (a == "--trace") {
            opt.tracePath = s.value();
        } else if (a == "--trace-sample") {
            opt.traceSampleRate = s.number();
            if (opt.traceSampleRate < 0.0 ||
                opt.traceSampleRate > 1.0) {
                throw std::invalid_argument(
                    "--trace-sample must be within [0, 1] (the "
                    "per-epoch keep probability), got " +
                    std::to_string(opt.traceSampleRate));
            }
        } else if (a == "--metrics") {
            s.noValue();
            opt.dumpMetrics = true;
        } else if (a == "--attribute") {
            s.noValue();
            opt.attribute = true;
        } else if (a == "--slo") {
            s.noValue();
            opt.slo = true;
        } else if (a == "--profile") {
            s.noValue();
            opt.profile = true;
        } else if (a == "--jobs") {
            opt.jobs = static_cast<int>(s.integer(1));
        } else if (s.isFlag()) {
            throw std::invalid_argument("unknown option: " + a);
        } else {
            const auto eq = a.find('=');
            if (eq == std::string::npos) {
                opt.beApps.push_back(a);
            } else {
                opt.lcApps.emplace_back(
                    a.substr(0, eq),
                    parseDouble(a.substr(eq + 1), "load"));
            }
        }
    }
    if (require_apps && opt.lcApps.empty() && opt.beApps.empty()) {
        throw std::invalid_argument(
            "no applications given (expected app=load or be_app)");
    }
    if (opt.tracePath.empty()) {
        if (const char *env = std::getenv("AHQ_TRACE"))
            opt.tracePath = env;
    }
    if (opt.faultsPath.empty()) {
        if (const char *env = std::getenv("AHQ_FAULTS"))
            opt.faultsPath = env;
    }
    if (!opt.profile) {
        if (const char *env = std::getenv("AHQ_PROF"))
            opt.profile = env[0] != '\0' &&
                std::string(env) != "0";
    }
    return opt;
}

void
requireSteadyEpochs(const SimulateOptions &opt)
{
    const double epoch_s = cluster::SimulationConfig{}.epochSeconds;
    const auto epochs = static_cast<long long>(
        std::round(opt.durationSeconds / epoch_s));
    if (opt.warmupEpochs < epochs)
        return;
    std::ostringstream msg;
    msg << "--warmup " << opt.warmupEpochs
        << " leaves no steady-state epoch: --duration "
        << opt.durationSeconds << " runs " << epochs << " epochs of "
        << epoch_s << " s (--warmup must be below " << epochs << ")";
    throw std::invalid_argument(msg.str());
}

void
parseObservationsCsv(const std::string &path,
                     std::vector<core::LcObservation> &lc,
                     std::vector<core::BeObservation> &be)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open: " + path);
    std::string line;
    int row = 0;
    while (std::getline(in, line)) {
        ++row;
        if (line.empty() || line[0] == '#')
            continue;
        const auto cells = splitCsvRow(line);
        if (cells.empty())
            continue;
        if (cells[0] == "kind")
            continue; // header
        const std::string where =
            path + ":" + std::to_string(row);
        if (cells[0] == "lc") {
            if (cells.size() < 5) {
                throw std::invalid_argument(
                    where + ": lc rows need 5 columns");
            }
            lc.push_back({parseDouble(cells[2], "ideal_ms"),
                          parseDouble(cells[3], "actual_ms"),
                          parseDouble(cells[4], "threshold_ms")});
        } else if (cells[0] == "be") {
            if (cells.size() < 4) {
                throw std::invalid_argument(
                    where + ": be rows need 4 columns");
            }
            be.push_back({parseDouble(cells[2], "ipc_solo"),
                          parseDouble(cells[3], "ipc_real")});
        } else {
            throw std::invalid_argument(
                where + ": kind must be 'lc' or 'be'");
        }
    }
    if (lc.empty() && be.empty())
        throw std::invalid_argument(path + ": no observations");
}

int
runEntropy(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    if (args.size() != 1) {
        err << "usage: ahq entropy <observations.csv>\n";
        return 2;
    }
    std::vector<core::LcObservation> lc;
    std::vector<core::BeObservation> be;
    try {
        parseObservationsCsv(args[0], lc, be);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
    const auto rep = core::computeEntropy(lc, be);
    report::TextTable t({"app", "A_i", "R_i", "ReT_i", "Q_i"});
    for (std::size_t i = 0; i < rep.lcDetail.size(); ++i) {
        const auto &b = rep.lcDetail[i];
        t.addRow({"lc" + std::to_string(i),
                  report::TextTable::num(b.tolerance),
                  report::TextTable::num(b.interference),
                  report::TextTable::num(b.remainingTolerance),
                  report::TextTable::num(b.intolerable)});
    }
    t.print(out);
    out << "E_LC = " << rep.eLc << "\nE_BE = " << rep.eBe
        << "\nE_S  = " << rep.eS << "  (RI = 0.8)\nyield = "
        << rep.yieldValue << "\n";
    return 0;
}

int
runSimulate(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    SimulateOptions opt;
    try {
        opt = parseSimulateArgs(args);
        requireSteadyEpochs(opt);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        applyJobs(opt);
        const cluster::Node node = nodeFor(opt);
        cluster::SimulationConfig cfg = simulationConfigFor(opt);

        // The plan must outlive the run: cfg holds a pointer.
        fault::FaultPlan plan;
        if (!opt.faultsPath.empty()) {
            plan = fault::FaultPlan::fromFile(opt.faultsPath);
            cfg.faults = &plan;
        }

        // A single run owns its trace, so its span events may carry
        // wall-clock fields (they differ run to run, but there is no
        // --jobs fan-out here to stay identical across).
        RunTelemetry tel(opt, {.scenario = opt.strategy, .wallClock = true});
        cfg.obs = tel.scope;
        const auto sched = makeScheduler(opt.strategy);
        const auto res = cluster::EpochSimulator(node, cfg).run(*sched);

        report::TextTable t({"app", "kind", "tail (ms)",
                             "threshold", "IPC", "IPC solo"});
        for (int i = 0; i < node.numApps(); ++i) {
            const auto &p = node.profile(i);
            const auto ui = static_cast<std::size_t>(i);
            t.addRow({p.name, p.latencyCritical ? "LC" : "BE",
                      p.latencyCritical ?
                          report::TextTable::num(res.meanP95Ms[ui],
                                                 2) : "-",
                      p.latencyCritical ?
                          report::TextTable::num(
                              p.tailThresholdMs, 2) : "-",
                      p.latencyCritical ? "-" :
                          report::TextTable::num(res.meanIpc[ui],
                                                 2),
                      p.latencyCritical ? "-" :
                          report::TextTable::num(p.ipcSolo, 2)});
        }
        t.print(out);
        out << "strategy = " << opt.strategy
            << ", E_LC = " << res.meanELc
            << ", E_BE = " << res.meanEBe
            << ", E_S = " << res.meanES
            << ", yield = " << res.yieldValue
            << ", violations = " << res.violations << "\n";

        if (opt.attribute && !res.attribution.empty()) {
            out << "interference attribution (post-warmup sum of "
                   "per-epoch R_i shares):\n";
            printBlameTable(out, res.attribution, 12);
        } else if (opt.attribute) {
            out << "interference attribution: no LC app suffered "
                   "interference after warmup\n";
        }
        if (opt.slo)
            printSloSummary(out, res.slo);

        if (!opt.csvPath.empty()) {
            report::CsvWriter csv(
                opt.csvPath,
                {"time_s", "e_lc", "e_be", "e_s"});
            for (const auto &rec : res.epochs) {
                csv.addRow({report::TextTable::num(rec.time, 2),
                            report::TextTable::num(rec.entropy.eLc),
                            report::TextTable::num(rec.entropy.eBe),
                            report::TextTable::num(rec.entropy.eS)});
            }
            out << "timeline written to " << opt.csvPath << "\n";
        }
        tel.finish(out, "profile (span tree):");
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runOracle(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    // Reuse the simulate grammar; --waystep rides on top.
    int way_step = 2;
    SimulateOptions opt;
    try {
        std::vector<std::string> passthrough;
        FlagScanner s(args);
        while (s.next()) {
            if (s.name() == "--waystep")
                way_step = static_cast<int>(s.integer(1));
            else
                passthrough.push_back(s.raw());
        }
        opt = parseSimulateArgs(passthrough);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        applyJobs(opt);
        const cluster::Node node = nodeFor(opt);

        cluster::OracleConfig ocfg;
        ocfg.wayStep = way_step;
        ocfg.tailPercentile = opt.percentile;

        const auto iso = cluster::bestIsolatedPartition(node, ocfg);
        const auto hyb = cluster::bestHybridPartition(node, ocfg);

        out << "best fully-isolated partition (E_S = "
            << iso.report.eS << ", " << iso.evaluated
            << " layouts searched):\n"
            << iso.layout.toString();
        out << "best hybrid partition (E_S = " << hyb.report.eS
            << ", " << hyb.evaluated << " layouts searched):\n"
            << hyb.layout.toString();
        out << "sharing value (iso - hybrid E_S): "
            << iso.report.eS - hyb.report.eS << "\n";
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runSweep(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    SimulateOptions opt;
    try {
        opt = parseSimulateArgs(args);
        if (opt.lcApps.empty()) {
            throw std::invalid_argument(
                "sweep needs at least one LC app (app=load)");
        }
        requireSteadyEpochs(opt);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        applyJobs(opt);
        const std::vector<std::string> strategies{
            "Unmanaged", "LC-first", "PARTIES", "CLITE", "ARQ"};
        const std::vector<double> loads{0.1, 0.3, 0.5, 0.7, 0.9};

        // Shared by every job below; must outlive runner.run().
        fault::FaultPlan plan;
        cluster::SimulationConfig cfg = simulationConfigFor(opt);
        if (!opt.faultsPath.empty()) {
            plan = fault::FaultPlan::fromFile(opt.faultsPath);
            cfg.faults = &plan;
        }

        // Jobs tag themselves; wallClock stays off, so span-bearing
        // traces are byte-identical at any --jobs.
        RunTelemetry tel(opt, {});

        // One tagged job per (load, strategy), fanned across the
        // pool; results and (while tracing) trace buffers come back
        // in job order, so the output is identical at any --jobs.
        std::vector<exec::ScenarioJob> jobs;
        SimulateOptions at = opt;
        for (double load : loads) {
            at.lcApps[0].second = load;
            const cluster::Node node = nodeFor(at);
            const std::string load_tag =
                report::TextTable::num(load * 100, 0) + "%";
            for (const auto &name : strategies) {
                jobs.push_back({name, node, cfg,
                                name + "@" + load_tag});
            }
        }

        exec::ScenarioRunner runner;
        runner.setObsScope(tel.scope);
        const auto results = runner.run(jobs);

        std::vector<std::string> header{opt.lcApps[0].first +
                                        " load"};
        header.insert(header.end(), strategies.begin(),
                      strategies.end());
        report::TextTable t(header);
        std::size_t job = 0;
        for (double load : loads) {
            std::vector<std::string> row{
                report::TextTable::num(load * 100, 0) + "%"};
            for (std::size_t s = 0; s < strategies.size(); ++s) {
                row.push_back(report::TextTable::num(
                    results[job++].meanES));
            }
            t.addRow(row);
        }
        out << "E_S by strategy ("
            << opt.lcApps[0].first << " sweeping):\n";
        t.print(out);
        tel.finish(out, "profile (span tree, all scenarios merged):");
        return 0;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runChaos(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    SimulateOptions opt;
    try {
        opt = parseSimulateArgs(args, /*require_apps=*/false);
        requireSteadyEpochs(opt);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        applyJobs(opt);
        // Canonical chaos colocation when no apps were given.
        if (opt.lcApps.empty() && opt.beApps.empty()) {
            opt.lcApps = {{"xapian", 0.5},
                          {"moses", 0.2},
                          {"img-dnn", 0.2}};
            opt.beApps = {"stream"};
        }
        const cluster::Node node = nodeFor(opt);

        const fault::FaultPlan plan =
            opt.faultsPath.empty()
                ? fault::FaultPlan::builtinChaos()
                : fault::FaultPlan::fromFile(opt.faultsPath);

        cluster::SimulationConfig cfg = simulationConfigFor(opt);
        // Chaos exists to prove the invariants hold under faults,
        // so the auditor is strict unless --check says otherwise.
        cfg.checkMode = opt.checkModeExplicit ? opt.checkMode
                                              : check::Mode::Strict;
        cfg.faults = &plan;

        // As in sweep, plus metrics always on: the summary below
        // reads them.
        RunTelemetry tel(opt, {.scenario = "", .metrics = true});

        std::vector<exec::ScenarioJob> jobs;
        for (const auto &name : sched::allStrategyNames())
            jobs.push_back({name, node, cfg, name});

        exec::ScenarioRunner runner;
        runner.setObsScope(tel.scope);
        const auto results = runner.run(jobs);

        out << "chaos over " << node.describe() << " ("
            << (opt.faultsPath.empty() ? "built-in plan"
                                       : opt.faultsPath)
            << ", check=" << check::toString(cfg.checkMode)
            << "):\n";
        report::TextTable t(
            {"strategy", "E_S", "yield", "violations"});
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            t.addRow({jobs[i].strategy,
                      report::TextTable::num(results[i].meanES),
                      report::TextTable::num(
                          results[i].yieldValue),
                      std::to_string(results[i].violations)});
        }
        t.print(out);

        auto line = [&](const char *label, const char *name) {
            out << "  " << label << " = "
                << static_cast<long long>(tel.metrics.counter(name))
                << "\n";
        };
        out << "fault injection:\n";
        line("measurement drops", "fault.measurement_drop");
        line("actuation failures", "fault.actuation_fail");
        line("decisions skipped", "fault.decision_skipped");
        out << "recovery:\n";
        line("measurement recoveries", "recovery.measurement");
        line("actuation retries won", "recovery.actuation_retry");

        tel.finish(out, "profile (span tree, all strategies merged):");
        return 0;
    } catch (const check::InvariantViolation &e) {
        err << "invariant violation under faults: " << e.what()
            << "\n";
        return 1;
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

int
runApps(std::ostream &out)
{
    report::TextTable t({"name", "kind", "threshold (ms)",
                         "max load (QPS)", "threads"});
    for (const auto &name : apps::allNames()) {
        const auto p = apps::byName(name);
        t.addRow({p.name, p.latencyCritical ? "LC" : "BE",
                  p.latencyCritical ?
                      report::TextTable::num(p.tailThresholdMs, 2) :
                      "-",
                  p.latencyCritical ?
                      report::TextTable::num(p.maxLoadQps, 1) : "-",
                  std::to_string(p.threads)});
    }
    t.print(out);
    return 0;
}

int
runStrategies(std::ostream &out)
{
    for (const auto &s : sched::allStrategyNames())
        out << s << "\n";
    return 0;
}

int
runChecks(std::ostream &out)
{
    report::TextTable t({"check", "reference", "summary"});
    for (const auto &c : check::registeredChecks())
        t.addRow({c.name, c.reference, c.summary});
    t.print(out);
    out << "enable with AHQ_CHECK=log|strict or --check "
           "(simulate/sweep)\n";
    return 0;
}

int
dispatch(const std::vector<std::string> &argv, std::ostream &out,
         std::ostream &err)
{
    auto usage = [](std::ostream &os) {
        os << "usage: ahq <subcommand> [args]\n"
              "  entropy <obs.csv>          E_S from measurements\n"
              "  simulate [opts] app=load.. one colocation run\n"
              "  sweep [opts] app=load..    Fig.8-style E_S table\n"
              "  chaos [opts] [app=load..]  all strategies under "
              "an injected fault plan\n"
              "  fleet [opts]               datacenter-scale fleet "
              "under the global load generator (--nodes N --lc N "
              "--be N --tenants M --zipf S --rebalance-every E "
              "--spread T --keep-epochs)\n"
              "  experiment <verb> [opts]   online A/B policy "
              "experiment on the fleet: design | run | analyze | "
              "verdict (--design switchback|interleaved --arm-a S "
              "--arm-b S --nodes N --blocks N --block-epochs N "
              "--resamples N --confidence C)\n"
              "  oracle [opts] app=load..   best static partitions\n"
              "  trace <file.jsonl>         summarise a --trace "
              "run\n"
              "  why [opts] <file.jsonl>    blame table from a "
              "--trace --attribute run: who hurts each LC app, "
              "through which resource (--scenario TAG --app NAME "
              "--top N --format text|csv|json)\n"
              "  alerts [opts] <file.jsonl> SLO alert timeline of "
              "a --trace --slo run (--scenario TAG --app NAME "
              "--format text|csv|json)\n"
              "  timeline [opts] <file.jsonl>  per-series "
              "sparkline / csv / json timelines of a --trace run\n"
              "  profile <file.jsonl>       span tree of a "
              "--profile run\n"
              "  report [opts] <input>...   fold traces + "
              "BENCH_*.json into one summary\n"
              "  bench-diff <old> <new>     per-benchmark "
              "speedups + regression gate between two "
              "BENCH_*.json (or --baseline <old> <new>)\n"
              "  apps                       workload catalogue\n"
              "  strategies                 scheduler registry\n"
              "  checks                     invariant-audit "
              "registry\n"
              "options (simulate/sweep/oracle): --strategy S "
              "--duration S --warmup N\n"
              "  --cores N --ways N --bw N --seed N "
              "--percentile P --ri R --csv FILE --waystep N\n"
              "  --jobs N (worker threads; default AHQ_JOBS or "
              "all cores)\n"
              "  --trace FILE (JSONL decision trace; env "
              "AHQ_TRACE) --metrics (dump counters)\n"
              "  --trace-sample R (keep each epoch's trace events "
              "with probability R in [0,1]; seeded, so sampled "
              "traces stay byte-identical at any --jobs)\n"
              "  --profile (span profiler + tree; env AHQ_PROF; "
              "sweep/chaos keep traces byte-identical)\n"
              "  --attribute (counterfactual interference "
              "attribution: blame ledger + attribution trace "
              "events) --slo (burn-rate SLO alerts)\n"
              "  --check off|log|strict (invariant audit; env "
              "AHQ_CHECK)\n"
              "  --faults FILE (JSONL fault plan; env AHQ_FAULTS; "
              "chaos defaults to a built-in plan)\n"
              "  (flags also accept --flag=value)\n"
              "strategies (--strategy):";
        for (const auto &s : sched::allStrategyNames())
            os << " " << s;
        os << "\n";
    };
    if (argv.empty()) {
        usage(err);
        return 2;
    }
    if (argv[0] == "help" || argv[0] == "--help" ||
        argv[0] == "-h") {
        usage(out);
        return 0;
    }
    const std::string cmd = argv[0];
    const std::vector<std::string> rest(argv.begin() + 1,
                                        argv.end());
    if (cmd == "entropy")
        return runEntropy(rest, out, err);
    if (cmd == "simulate")
        return runSimulate(rest, out, err);
    if (cmd == "oracle")
        return runOracle(rest, out, err);
    if (cmd == "sweep")
        return runSweep(rest, out, err);
    if (cmd == "fleet")
        return runFleet(rest, out, err);
    if (cmd == "chaos")
        return runChaos(rest, out, err);
    if (cmd == "experiment")
        return runExperiment(rest, out, err);
    if (cmd == "trace")
        return runTrace(rest, out, err);
    if (cmd == "why")
        return runWhy(rest, out, err);
    if (cmd == "alerts")
        return runAlerts(rest, out, err);
    if (cmd == "timeline")
        return runTimeline(rest, out, err);
    if (cmd == "profile")
        return runProfile(rest, out, err);
    if (cmd == "report")
        return runReport(rest, out, err);
    if (cmd == "bench-diff")
        return runBenchDiff(rest, out, err);
    if (cmd == "apps")
        return runApps(out);
    if (cmd == "strategies")
        return runStrategies(out);
    if (cmd == "checks")
        return runChecks(out);
    err << "unknown subcommand: " << cmd << "\n";
    return 2;
}

} // namespace ahq::cli
