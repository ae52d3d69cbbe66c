/**
 * @file
 * `ahq experiment`: online two-arm policy experiments on a live
 * fleet — design the assignment, run it through the policy-swap
 * seam, and estimate the scheduler contrast with naive /
 * Differences-in-Q / mixed estimators and bootstrap CIs.
 *
 * Verbs:
 *   design   print the randomized (node x block) arm assignment
 *   run      run the experiment and print blocks + estimates
 *   analyze  re-estimate from a run's trace (experiment_block
 *            events), e.g. at a different confidence level
 *   verdict  one-line verdict from a run's trace
 */

#include "cli.hh"
#include "front_end.hh"

#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/harness.hh"
#include "fault/plan.hh"
#include "obs/trace_reader.hh"
#include "report/table.hh"
#include "sched/registry.hh"

namespace ahq::cli
{

namespace
{

/** Experiment-only flags, peeled off before parseSimulateArgs. */
struct ExpFlags
{
    experiment::ExperimentDesign design;
    experiment::EstimatorConfig estimator;

    /** Workload shape (--lc --be --tenants --zipf). */
    trace::FleetLoadConfig load;
};

/**
 * Peel experiment flags; everything else lands in `rest` for
 * parseSimulateArgs (seed, jobs, trace, machine, faults, ...).
 */
ExpFlags
peelFlags(const std::vector<std::string> &args,
          std::vector<std::string> &rest)
{
    ExpFlags f;
    FlagScanner s(args);
    while (s.next()) {
        const std::string &a = s.name();
        if (scanLoadShape(s, f.load))
            continue;
        if (a == "--design") {
            f.design.kind = experiment::designKindFromName(s.value());
        } else if (a == "--arm-a") {
            f.design.armA = s.value();
        } else if (a == "--arm-b") {
            f.design.armB = s.value();
        } else if (a == "--nodes") {
            f.design.numNodes = static_cast<int>(s.integer(1));
        } else if (a == "--blocks") {
            f.design.blocksPerNode = static_cast<int>(s.integer(2));
        } else if (a == "--block-epochs") {
            f.design.blockEpochs = static_cast<int>(s.integer(1));
        } else if (a == "--resamples") {
            f.estimator.resamples = static_cast<int>(s.integer(1));
        } else if (a == "--confidence") {
            f.estimator.confidence = s.number();
            if (f.estimator.confidence <= 0.0 ||
                f.estimator.confidence >= 1.0) {
                throw std::invalid_argument(
                    "--confidence must be in (0, 1)");
            }
        } else {
            rest.push_back(s.raw());
        }
    }
    return f;
}

std::string
ciCell(const stats::ConfidenceInterval &ci)
{
    return report::TextTable::num(ci.estimate) + " [" +
        report::TextTable::num(ci.lo) + ", " +
        report::TextTable::num(ci.hi) + "]";
}

void
printEstimates(std::ostream &out,
               const experiment::ExperimentEstimates &est,
               experiment::Verdict verdict)
{
    report::TextTable t({"metric", "naive", "dq", "mixed",
                         "alpha"});
    const auto row = [&](const char *name,
                         const experiment::MetricEstimate &m) {
        t.addRow({name, ciCell(m.naive), ciCell(m.dq),
                  ciCell(m.mixed),
                  report::TextTable::num(m.alpha, 2)});
    };
    row("dE_S", est.es);
    row("dp95_ms", est.p95Ms);
    row("dviol_rate", est.violations);
    t.print(out);
    out << "blocks: " << est.blocksA << " A / " << est.blocksB
        << " B\n";
    out << "verdict: " << experiment::verdictName(verdict)
        << " (mixed dE_S CI "
        << (verdict == experiment::Verdict::Inconclusive
                ? "straddles zero"
                : "excludes zero")
        << ")\n";
}

/**
 * Rebuild BlockStats from a trace's experiment_block events.
 * @return false after a read error (printed on err).
 */
bool
blocksFromTrace(const std::string &path, std::ostream &err,
                std::vector<experiment::BlockStat> &blocks)
{
    return foldTrace(path, err, [&](const obs::TraceEvent &ev, int) {
        if (ev.type() != "experiment_block")
            return;
        experiment::BlockStat s;
        s.node = static_cast<int>(ev.num("node"));
        s.block = static_cast<int>(ev.num("block"));
        s.arm = static_cast<int>(ev.num("arm"));
        s.epochs = static_cast<int>(ev.num("epochs"));
        s.meanES = ev.num("mean_es");
        s.meanP95Ms = ev.num("mean_p95_ms");
        s.meanQueue = ev.num("mean_queue");
        s.meanArrivalRate = ev.num("mean_arrival");
        s.startQueue = ev.num("start_queue");
        s.violRate = ev.num("viol_rate");
        blocks.push_back(s);
    });
}

int
runDesignVerb(const ExpFlags &f, std::ostream &out)
{
    experiment::validateDesign(f.design);
    const auto &d = f.design;
    out << "design: " << experiment::designKindName(d.kind)
        << ", A=" << d.armA << " B=" << d.armB << ", "
        << d.numNodes << " nodes x " << d.blocksPerNode
        << " blocks x " << d.blockEpochs << " epochs, seed "
        << d.seed << "\n";
    report::TextTable t({"node", "blocks (A=0 B=1)"});
    for (int n = 0; n < d.numNodes; ++n) {
        const auto arms = experiment::nodeBlockArms(d, n);
        std::string cells;
        for (const auto a : arms) {
            if (!cells.empty())
                cells += ' ';
            cells += a == 0 ? 'A' : 'B';
        }
        t.addRow({std::to_string(n), cells});
    }
    t.print(out);
    return 0;
}

int
runRunVerb(const ExpFlags &flags, const SimulateOptions &opt,
           std::ostream &out)
{
    experiment::ExperimentRunConfig cfg;
    cfg.design = flags.design;
    cfg.design.seed = opt.seed;
    cfg.estimator = flags.estimator;
    cfg.estimator.seed = opt.seed;
    cfg.load = flags.load;
    cfg.load.seed = opt.seed;
    cfg.machine = machineFor(opt);
    cfg.base.seed = opt.seed;
    cfg.base.tailPercentile = opt.percentile;
    cfg.base.ri = opt.ri;
    cfg.base.checkMode = opt.checkMode;
    cfg.base.traceSampleRate = opt.traceSampleRate;

    // Chaos-composed experiments: the same JSONL fault plans chaos
    // runs accept are injected into every node of the experiment
    // fleet (the plan outlives the run; it lives on this frame).
    fault::FaultPlan plan;
    if (!opt.faultsPath.empty()) {
        plan = fault::FaultPlan::fromFile(opt.faultsPath);
        cfg.base.faults = &plan;
    }

    RunTelemetry tel(opt, {.scenario = "exp", .series = false});
    cfg.base.obs = tel.scope;

    const auto res = experiment::runExperiment(cfg);

    out << "experiment: "
        << experiment::designKindName(res.design.kind) << ", A="
        << res.design.armA << " B=" << res.design.armB << ", "
        << res.design.numNodes << " nodes x "
        << res.design.blocksPerNode << " blocks x "
        << res.design.blockEpochs << " epochs, "
        << res.policySwaps << " policy swaps\n";
    printEstimates(out, res.estimates, res.verdict);

    tel.finish(out, "profile (span tree, all nodes merged):");
    return 0;
}

} // namespace

int
runExperiment(const std::vector<std::string> &args,
              std::ostream &out, std::ostream &err)
{
    if (args.empty()) {
        err << "usage: ahq experiment "
               "design|run|analyze|verdict [options]\n";
        return 2;
    }
    const std::string verb = args[0];
    const std::vector<std::string> tail(args.begin() + 1,
                                        args.end());

    if (verb == "analyze" || verb == "verdict") {
        // Trace-driven verbs: flags + one positional trace path.
        ExpFlags flags;
        std::string path;
        try {
            std::vector<std::string> rest;
            flags = peelFlags(tail, rest);
            for (const auto &a : rest) {
                if (a.rfind("--", 0) == 0) {
                    throw std::invalid_argument(
                        "unknown flag for " + verb + ": " + a);
                }
                if (!path.empty()) {
                    throw std::invalid_argument(
                        "exactly one trace file expected");
                }
                path = a;
            }
            if (path.empty())
                throw std::invalid_argument(
                    "trace file required");
        } catch (const std::exception &e) {
            err << "error: " << e.what() << "\n";
            return 2;
        }
        std::vector<experiment::BlockStat> blocks;
        if (!blocksFromTrace(path, err, blocks))
            return 1;
        if (blocks.empty()) {
            err << "error: no experiment_block events in " << path
                << "\n";
            return 1;
        }
        try {
            const auto est =
                experiment::estimate(blocks, flags.estimator);
            const auto verdict = experiment::verdictOf(est);
            if (verb == "verdict")
                out << experiment::verdictName(verdict) << "\n";
            else
                printEstimates(out, est, verdict);
            return 0;
        } catch (const std::exception &e) {
            err << "error: " << e.what() << "\n";
            return 1;
        }
    }

    if (verb != "design" && verb != "run") {
        err << "unknown experiment verb: " << verb << "\n";
        return 2;
    }

    std::vector<std::string> rest;
    ExpFlags flags;
    SimulateOptions opt;
    try {
        flags = peelFlags(tail, rest);
        opt = parseSimulateArgs(rest, /*require_apps=*/false);
        if (!opt.lcApps.empty() || !opt.beApps.empty()) {
            throw std::invalid_argument(
                "experiment synthesizes its workload from the "
                "global load generator; app specs are not "
                "accepted (shape it with --lc/--be/--tenants)");
        }
        // The arms must exist before any simulation starts.
        sched::makeScheduler(flags.design.armA);
        sched::makeScheduler(flags.design.armB);
        flags.design.seed = opt.seed;
        experiment::validateDesign(flags.design);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }

    try {
        applyJobs(opt);
        if (verb == "design")
            return runDesignVerb(flags, out);
        return runRunVerb(flags, opt, out);
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace ahq::cli
