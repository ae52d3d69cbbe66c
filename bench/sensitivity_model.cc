/**
 * @file
 * Model sensitivity (not a paper figure): the paper's qualitative
 * conclusions should not hinge on our substrate's tunables. This
 * bench sweeps the most influential modelling constants — the
 * shared-core service penalty, the bandwidth contention curvature,
 * the measurement-noise level and the repartition overhead — and
 * checks that the headline ordering (ARQ <= PARTIES on E_S, and ARQ
 * >= PARTIES on BE IPC) holds at every point.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    report::heading(std::cout,
                    "Model sensitivity — does ARQ <= PARTIES "
                    "survive the tunables? (Xapian 70% + Stream)");

    report::TextTable t({"knob", "value", "ARQ E_S", "PARTIES E_S",
                         "ARQ wins E_S", "ARQ BE IPC",
                         "PARTIES BE IPC"});
    auto csv = openCsv("sensitivity.csv",
                       {"knob", "value", "arq_es", "parties_es",
                        "arq_ipc", "parties_ipc"});
    int violations_of_ordering = 0;

    auto record = [&](const std::string &knob,
                      const std::string &value,
                      const cluster::SimulationConfig &cfg) {
        const auto r =
            runStrategies({"ARQ", "PARTIES"},
                          canonicalNode(0.7, 0.2, 0.2, apps::stream()),
                          cfg, knob + "=" + value + "/");
        const double arq_es = r[0].meanES, parties_es = r[1].meanES;
        const double arq_ipc = r[0].meanIpc[3],
                     parties_ipc = r[1].meanIpc[3];
        const bool wins = arq_es <= parties_es + 0.02;
        if (!wins)
            ++violations_of_ordering;
        t.addRow({knob, value, num(arq_es), num(parties_es),
                  wins ? "yes" : "NO", num(arq_ipc, 2),
                  num(parties_ipc, 2)});
        csv->addRow({knob, value, num(arq_es), num(parties_es),
                     num(arq_ipc), num(parties_ipc)});
    };

    // Shared-core pollution penalty.
    for (double penalty : {1.0, 1.1, 1.15, 1.25, 1.4}) {
        auto cfg = standardConfig();
        cfg.contention.sharedServicePenalty = penalty;
        record("shared penalty", num(penalty, 2), cfg);
    }

    // Bandwidth contention curvature.
    for (double k : {0.2, 0.8, 2.0}) {
        auto cfg = standardConfig();
        cfg.contention.bandwidth.contentionK = k;
        record("bw curvature k", num(k, 1), cfg);
    }

    // Measurement noise.
    for (double sigma : {0.0, 0.05, 0.10, 0.20}) {
        auto cfg = standardConfig();
        cfg.noiseSigma = sigma;
        record("noise sigma", num(sigma, 2), cfg);
    }

    // Repartition overhead scale.
    for (double scale : {0.0, 1.0, 2.0}) {
        auto cfg = standardConfig();
        cfg.overheadEnabled = scale > 0.0;
        cfg.overheadWaysFactor *= scale;
        cfg.overheadCoresFactor *= scale;
        record("overhead x", num(scale, 1), cfg);
    }

    t.print(std::cout);
    std::cout << "\nOrdering violations: " << violations_of_ordering
              << " of " << t.numRows()
              << " sweep points (expected: 0).\n";
    return violations_of_ordering == 0 ? 0 : 1;
}
