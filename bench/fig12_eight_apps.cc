/**
 * @file
 * Fig. 12: robustness with double the colocation size — six LC apps
 * (Moses, Xapian, Img-dnn, Sphinx, Masstree, Silo at 20% load) and
 * two BE apps (Fluidanimate, Streamcluster) — comparing PARTIES and
 * ARQ per-app tails, BE IPC and E_S.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    report::heading(std::cout,
                    "Fig. 12 — 6 LC + 2 BE colocation at 20% load");

    const cluster::Node node = eightAppNode();

    auto csv = openCsv("fig12.csv",
                       {"strategy", "app", "p95_ms", "threshold_ms",
                        "ipc", "ipc_solo"});

    const std::vector<std::string> strategies{"PARTIES", "ARQ"};
    const auto results =
        runStrategies(strategies, node, standardConfig());

    report::TextTable t({"app", "QoS target",
                         "PARTIES p95/IPC", "ARQ p95/IPC"});
    for (int i = 0; i < node.numApps(); ++i) {
        const auto &p = node.profile(i);
        std::vector<std::string> row{
            p.name, p.latencyCritical ?
                num(p.tailThresholdMs, 2) + " ms" : "-"};
        for (std::size_t s = 0; s < strategies.size(); ++s) {
            const auto &r = results[s];
            if (p.latencyCritical) {
                row.push_back(
                    num(r.meanP95Ms[static_cast<std::size_t>(i)],
                        2) + " ms");
            } else {
                row.push_back(
                    num(r.meanIpc[static_cast<std::size_t>(i)], 2) +
                    " IPC");
            }
            csv->addRow({strategies[s], p.name,
                         num(r.meanP95Ms[
                                 static_cast<std::size_t>(i)], 3),
                         num(p.tailThresholdMs, 3),
                         num(r.meanIpc[
                                 static_cast<std::size_t>(i)], 3),
                         num(p.ipcSolo, 3)});
        }
        t.addRow(row);
    }
    t.print(std::cout);

    report::TextTable e({"strategy", "E_LC", "E_BE", "E_S",
                         "yield"});
    for (std::size_t s = 0; s < strategies.size(); ++s) {
        e.addRow({strategies[s], num(results[s].meanELc),
                  num(results[s].meanEBe), num(results[s].meanES),
                  num(results[s].yieldValue, 2)});
    }
    e.print(std::cout);

    const double red =
        100.0 * (1.0 - results[1].meanES / results[0].meanES);
    std::cout << "ARQ reduces E_S vs PARTIES by " << num(red, 1)
              << "%  (paper: 36.4%, from 0.33 to 0.21)\n";
    return 0;
}
