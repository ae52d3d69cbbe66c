/**
 * @file
 * Experiment-seam overhead anchor: the policy-swap seam threaded
 * through EpochSimulator must cost nothing measurable when no
 * experiment is running. Times the faults-off epoch hot path three
 * ways — the plain single-scheduler run, the same run through
 * runSwitched with a dormant schedule (the seam engaged but never
 * swapping), and a full switchback runExperiment — and fails if the
 * dormant seam costs more than 2% over plain in the median of
 * interleaved plain/seam pairs. With --json it writes
 * BENCH_experiment_overhead.json, committed as the perf baseline
 * for the `ctest -L perf` gate.
 */

#include <iostream>

#include "common.hh"
#include "experiment/harness.hh"
#include "sched/registry.hh"
#include "trace/fleet_load.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

/** The hot-path shape: faults off, no retained epochs. */
cluster::SimulationConfig
hotConfig()
{
    cluster::SimulationConfig cfg;
    cfg.durationSeconds = 1800.0; // 3600 epochs of 500 ms
    cfg.warmupEpochs = 5;
    cfg.keepEpochs = false;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseBenchArgs(argc, argv, "experiment_overhead");
    BenchJsonWriter json("experiment_overhead", args);

    report::heading(std::cout,
                    "Experiment overhead: the policy-swap seam on "
                    "the faults-off epoch hot path (ARQ, 3600 "
                    "epochs)");

    const cluster::SimulationConfig cfg = hotConfig();
    const double epochs =
        cfg.durationSeconds / cfg.epochSeconds;
    const int reps = 9;

    trace::FleetLoadConfig lc;
    lc.numNodes = 4;
    const trace::FleetLoadGenerator gen(lc);
    const auto mc = machine::MachineConfig::xeonE52630v4();
    const cluster::EpochSimulator sim(
        cluster::Node(mc, cluster::fleetNodeApps(gen, 0)), cfg);

    report::TextTable t(
        {"workload", "wall (ms)", "epochs/s", "E_S"});

    // ---- plain run: the pre-seam contract -----------------------
    const auto arq = sched::makeScheduler("ARQ");
    double es_plain = 0.0;
    const double s_plain = secondsOfN(
        [&] { es_plain = sim.run(*arq).meanES; }, reps);
    t.addRow({"epoch_plain", num(s_plain * 1e3),
              num(epochs / s_plain, 0), num(es_plain)});
    json.add("epoch_plain", s_plain * 1e3, epochs / s_plain,
             "epochs/s", "epochs=3600 ARQ faults=off");

    // ---- dormant seam: runSwitched, one arm, empty schedule -----
    // The contract says this is identical to run(); the timing
    // proves the seam's per-epoch branch is identical too.
    double es_seam = 0.0;
    const double s_seam = secondsOfN(
        [&] {
            es_seam = sim.runSwitched({arq.get()},
                                      cluster::PolicySchedule{})
                          .meanES;
        },
        reps);
    t.addRow({"epoch_seam_idle", num(s_seam * 1e3),
              num(epochs / s_seam, 0), num(es_seam)});
    json.add("epoch_seam_idle", s_seam * 1e3, epochs / s_seam,
             "epochs/s", "epochs=3600 ARQ faults=off seam=idle");

    // ---- a real switchback through the full harness -------------
    {
        experiment::ExperimentRunConfig ec;
        ec.design.kind = experiment::DesignKind::Switchback;
        ec.design.armA = "ARQ";
        ec.design.armB = "Unmanaged";
        ec.design.numNodes = 4;
        ec.design.blocksPerNode = 4;
        ec.design.blockEpochs = 8;
        ec.design.seed = 42;
        ec.estimator.resamples = 200;
        ec.base.seed = 42;
        const int total_epochs = ec.design.numNodes *
                                 ec.design.blocksPerNode *
                                 ec.design.blockEpochs;
        const double s_exp = secondsOfN(
            [&] { (void)experiment::runExperiment(ec); }, 3);
        t.addRow({"experiment_switchback", num(s_exp * 1e3),
                  num(total_epochs / s_exp, 0), "-"});
        json.add("experiment_switchback", s_exp * 1e3,
                 total_epochs / s_exp, "epochs/s",
                 "nodes=4 blocks=4 block_epochs=8 resamples=200");
    }

    t.print(std::cout);

    // Correctness first: the dormant seam must not perturb a single
    // bit of the result, or the timing comparison is meaningless.
    if (es_plain != es_seam) {
        std::cerr << "FAIL: dormant seam changed E_S (" << es_plain
                  << " vs " << es_seam << ")\n";
        return 1;
    }

    // The gate: the median of interleaved plain/seam pairs over at
    // least 3 s, not the two best-of-N rows above, which share no
    // machine conditions and would decide on one sample each.
    const double overhead =
        medianPairedRatio(
            [&] { (void)sim.run(*arq); },
            [&] {
                (void)sim.runSwitched({arq.get()},
                                      cluster::PolicySchedule{});
            }) -
        1.0;
    std::cout << "seam overhead on the hot path: "
              << num(overhead * 100.0, 2)
              << "% (median of interleaved pairs; gate: < 2%)\n";
    if (overhead > 0.02) {
        std::cerr << "FAIL: dormant-seam overhead "
                  << num(overhead * 100.0, 2) << "% exceeds 2%\n";
        return 1;
    }
    return 0;
}
