/**
 * @file
 * Fig. 8: Xapian, Moses, Img-dnn colocated with Fluidanimate. The
 * load of Moses and Img-dnn is 20% (left column) then 40% (right
 * column) of max load, Xapian sweeps 10-90%, all five strategies.
 * Also reports the paper's headline deltas for this colocation:
 * tail-latency reduction vs Unmanaged and the low-load BE IPC
 * uplift of ARQ over PARTIES/CLITE.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    const LoadSweep grid =
        loadSweepFigure("fig08", apps::xapian(), apps::moses(),
                        apps::imgDnn(), apps::fluidanimate());

    // Headline numbers for the 40%-secondary case (Fig. 8(b)).
    report::heading(std::cout,
                    "Fig. 8(b) headline deltas (Moses/Img-dnn at "
                    "40%)");
    double tail_red_arq = 0.0, tail_red_parties = 0.0,
        tail_red_clite = 0.0;
    double ipc_arq = 0.0, ipc_parties = 0.0, ipc_clite = 0.0;
    int n_loads = 0, n_low = 0;

    for (double load : grid.loads) {
        const auto &ru = grid.at(0.4, load, "Unmanaged");
        const auto &rp = grid.at(0.4, load, "PARTIES");
        const auto &rc = grid.at(0.4, load, "CLITE");
        const auto &ra = grid.at(0.4, load, "ARQ");

        auto mean_tail = [](const cluster::SimulationResult &r) {
            return (r.meanP95Ms[0] + r.meanP95Ms[1] +
                    r.meanP95Ms[2]) / 3.0;
        };
        tail_red_arq += 1.0 - mean_tail(ra) / mean_tail(ru);
        tail_red_parties += 1.0 - mean_tail(rp) / mean_tail(ru);
        tail_red_clite += 1.0 - mean_tail(rc) / mean_tail(ru);
        ++n_loads;
        if (load <= 0.5) {
            ipc_arq += ra.meanIpc[3];
            ipc_parties += rp.meanIpc[3];
            ipc_clite += rc.meanIpc[3];
            ++n_low;
        }
    }

    std::cout << "mean tail-latency reduction vs Unmanaged: ARQ "
              << num(100.0 * tail_red_arq / n_loads, 1)
              << "%, CLITE "
              << num(100.0 * tail_red_clite / n_loads, 1)
              << "%, PARTIES "
              << num(100.0 * tail_red_parties / n_loads, 1)
              << "%  (paper: 66.5 / 43.6 / 37.2)\n";
    std::cout << "low-load BE IPC uplift of ARQ: vs PARTIES +"
              << num(100.0 * (ipc_arq / ipc_parties - 1.0), 1)
              << "%, vs CLITE +"
              << num(100.0 * (ipc_arq / ipc_clite - 1.0), 1)
              << "%  (paper: +63.8 / +37.1)\n";
    std::cout << "\nExpected shape (paper): Unmanaged lowest E_S at "
                 "low load, collapsing at high load;\nARQ lowest "
                 "E_S overall; PARTIES/CLITE protect QoS but keep "
                 "E_BE high.\n";
    return 0;
}
