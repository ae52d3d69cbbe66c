/**
 * @file
 * Ablations of ARQ's design choices (Section IV):
 *  - the shared region (disabled -> PARTIES-style full isolation);
 *  - the rollback-with-penalty-ban step (Algorithm 1, lines 9-11);
 *  - the relative importance RI in E_S (the paper uses 0.8);
 *  - the monitoring interval (the paper justifies 500 ms against
 *    250 ms-2 s alternatives).
 * All on the contentious scenario: Xapian 70%, Moses/Img-dnn 20%,
 * Stream as BE.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

/**
 * One ablation run. A ScenarioJob names its scheduler, not an
 * ArqConfig, so the variant runs directly, traced under its name.
 */
cluster::SimulationResult
runArq(const std::string &variant, const sched::ArqConfig &arq_cfg,
       cluster::SimulationConfig sim_cfg)
{
    const auto node = canonicalNode(0.7, 0.2, 0.2, apps::stream());
    sim_cfg.obs = benchScope().tagged(variant);
    sched::Arq sched(arq_cfg);
    cluster::EpochSimulator sim(node, sim_cfg);
    return sim.run(sched);
}

} // namespace

int
main()
{
    report::heading(std::cout,
                    "ARQ ablations (Xapian 70%, Moses/Img-dnn 20%, "
                    "Stream)");

    auto csv = openCsv("ablation_arq.csv",
                       {"variant", "e_lc", "e_be", "e_s", "yield",
                        "violations"});
    report::TextTable t({"variant", "E_LC", "E_BE", "E_S", "yield",
                         "violations"});

    auto report_row = [&](const std::string &name,
                          const sched::ArqConfig &arq_cfg,
                          const cluster::SimulationConfig &sim_cfg) {
        const auto r = runArq(name, arq_cfg, sim_cfg);
        t.addRow({name, num(r.meanELc), num(r.meanEBe),
                  num(r.meanES), num(r.yieldValue, 2),
                  std::to_string(r.violations)});
        csv->addRow({name, num(r.meanELc), num(r.meanEBe),
                     num(r.meanES), num(r.yieldValue, 3),
                     std::to_string(r.violations)});
    };

    // Baseline.
    report_row("ARQ (paper defaults)", sched::ArqConfig{},
               standardConfig());

    // No shared region: degenerate full isolation.
    {
        sched::ArqConfig c;
        c.sharedRegionEnabled = false;
        report_row("no shared region", c, standardConfig());
    }

    // No rollback / penalty ban.
    {
        sched::ArqConfig c;
        c.rollbackEnabled = false;
        report_row("no E_S rollback", c, standardConfig());
    }

    // RI sweep.
    for (double ri : {0.5, 0.65, 0.8, 0.95}) {
        sched::ArqConfig c;
        c.relativeImportance = ri;
        auto sim_cfg = standardConfig();
        sim_cfg.ri = ri; // measured E_S uses the same weighting
        report_row("RI = " + num(ri, 2), c, sim_cfg);
    }

    // Monitoring interval sweep (the epoch is the interval).
    for (double interval : {0.25, 0.5, 1.0, 2.0}) {
        auto sim_cfg = standardConfig();
        sim_cfg.epochSeconds = interval;
        sim_cfg.warmupEpochs =
            static_cast<int>(60.0 / interval);
        report_row("interval = " + num(interval, 2) + " s",
                   sched::ArqConfig{}, sim_cfg);
    }

    t.print(std::cout);
    std::cout << "\nReading: the shared region is the main source "
                 "of ARQ's E_BE advantage; the\nrollback tames "
                 "entropy-increasing moves; RI shifts the LC/BE "
                 "balance as designed;\n500 ms is a reasonable "
                 "sweet spot for the monitoring interval.\n";
    return 0;
}
