/**
 * @file
 * Fig. 11: the second application combination — Img-dnn sweeping
 * with Moses and Sphinx as fixed-load LC apps and Stream as the BE
 * app — plus the paper's summary delta: at high load ARQ reduces
 * E_S versus PARTIES by ~40% on average.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    const LoadSweep grid =
        loadSweepFigure("fig11", apps::imgDnn(), apps::moses(),
                        apps::sphinx(), apps::stream());

    report::heading(std::cout,
                    "High-load E_S delta, ARQ vs PARTIES");
    double delta = 0.0;
    int n = 0;
    for (double load : {0.7, 0.9}) {
        for (double fixed : grid.fixedLoads) {
            const auto &rp = grid.at(fixed, load, "PARTIES");
            const auto &ra = grid.at(fixed, load, "ARQ");
            if (rp.meanES > 1e-9) {
                delta += 1.0 - ra.meanES / rp.meanES;
                ++n;
            }
        }
    }
    std::cout << "mean E_S reduction of ARQ vs PARTIES at high "
                 "load: "
              << num(100.0 * delta / n, 1)
              << "%  (paper: 40.93%)\n";
    return 0;
}
