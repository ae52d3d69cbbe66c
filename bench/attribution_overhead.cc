/**
 * @file
 * Attribution/SLO-seam overhead anchor: the per-epoch attribution
 * and burn-rate hooks threaded through EpochSimulator must cost
 * nothing measurable when --attribute/--slo are off. Times the
 * faults-off epoch hot path four ways — plain, SLO monitoring on,
 * attribution on, and both — asserts every variant produces the
 * bitwise-identical E_S (the observer effect is zero by contract),
 * and fails if always-on SLO monitoring costs more than 2% over
 * plain in the median of interleaved plain/SLO pairs.
 * Attribution's counterfactual model evaluations are real work
 * (one ContentionModel call per co-runner per suffering LC app per
 * epoch), so that row is reported and baselined rather
 * than gated against plain; the off-path regression itself is
 * caught by the pre-seam BENCH_epoch_throughput baseline in
 * `ctest -L perf`. With --json it writes
 * BENCH_attribution_overhead.json, committed as the perf baseline
 * for the gate.
 */

#include <iostream>
#include <vector>

#include "cluster/cluster_sched.hh"
#include "common.hh"
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
        parseBenchArgs(argc, argv, "attribution_overhead");
    BenchJsonWriter json("attribution_overhead", args);

    report::heading(std::cout,
                    "Attribution overhead: the blame/SLO seams on "
                    "the faults-off epoch hot path (ARQ, 3600 "
                    "epochs)");

    const cluster::SimulationConfig base = hotConfig();
    const double epochs = base.durationSeconds / base.epochSeconds;
    const int reps = 15;

    trace::FleetLoadConfig lc;
    lc.numNodes = 4;
    const trace::FleetLoadGenerator gen(lc);
    const auto mc = machine::MachineConfig::xeonE52630v4();
    const cluster::Node node(mc, cluster::fleetNodeApps(gen, 0));
    const auto arq = sched::makeScheduler("ARQ");

    struct Variant
    {
        const char *name;
        bool attribute;
        bool slo;
        const char *note;
        double seconds = 1e300;
        double es = 0.0;
    };
    Variant variants[] = {
        {"epoch_plain", false, false,
         "epochs=3600 ARQ attribute=off slo=off"},
        {"epoch_slo_on", false, true,
         "epochs=3600 ARQ slo=on (burn-rate monitor)"},
        {"epoch_attr_on", true, false,
         "epochs=3600 ARQ attribute=on (counterfactual evals)"},
        {"epoch_attr_slo", true, true,
         "epochs=3600 ARQ attribute=on slo=on"},
    };

    // A percent-level comparison at ~20 ms per run drowns in
    // scheduling noise if each variant is timed in its own block;
    // interleave the reps so every variant samples the same
    // machine conditions, then take each variant's minimum.
    std::vector<cluster::EpochSimulator> sims;
    sims.reserve(std::size(variants));
    for (const auto &v : variants) {
        cluster::SimulationConfig cfg = base;
        cfg.attribute = v.attribute;
        cfg.slo = v.slo;
        sims.emplace_back(node, cfg);
    }
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < sims.size(); ++i) {
            variants[i].seconds = std::min(
                variants[i].seconds, secondsOnce([&] {
                    variants[i].es = sims[i].run(*arq).meanES;
                }));
        }
    }

    report::TextTable t(
        {"workload", "wall (ms)", "epochs/s", "E_S"});
    for (const auto &v : variants) {
        t.addRow({v.name, num(v.seconds * 1e3),
                  num(epochs / v.seconds, 0), num(v.es)});
        json.add(v.name, v.seconds * 1e3, epochs / v.seconds,
                 "epochs/s", v.note);
    }
    t.print(std::cout);

    // Correctness first: neither seam may perturb a single bit of
    // the result, or the timing comparison is meaningless.
    for (const auto &v : variants) {
        if (v.es != variants[0].es) {
            std::cerr << "FAIL: " << v.name << " changed E_S ("
                      << variants[0].es << " vs " << v.es << ")\n";
            return 1;
        }
    }

    // The gate: the median of interleaved plain/SLO pairs over at
    // least 3 s, not the two minima above, which would decide on
    // one sample each.
    const double slo_over =
        medianPairedRatio([&] { (void)sims[0].run(*arq); },
                          [&] { (void)sims[1].run(*arq); }) -
        1.0;
    const double attr_over =
        variants[2].seconds / variants[0].seconds - 1.0;
    std::cout << "slo monitoring overhead on the hot path: "
              << num(slo_over * 100.0, 2)
              << "% (median of interleaved pairs; gate: < 2%)\n"
              << "attribution overhead on the hot path: "
              << num(attr_over * 100.0, 2)
              << "% (reported; baselined, not gated vs plain)\n";
    if (slo_over > 0.02) {
        std::cerr << "FAIL: slo-monitor overhead "
                  << num(slo_over * 100.0, 2) << "% exceeds 2%\n";
        return 1;
    }
    return 0;
}
