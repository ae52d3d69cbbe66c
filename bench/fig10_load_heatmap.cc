/**
 * @file
 * Fig. 10: entropy heatmaps of PARTIES vs ARQ while both Xapian and
 * Img-dnn sweep 10-90% load (Moses fixed at 20%, Stream as BE):
 * E_LC, E_BE and E_S over the load plane.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    report::heading(std::cout,
                    "Fig. 10 — entropy heatmaps over "
                    "(Xapian x Img-dnn) load, Moses 20% + Stream");

    const std::vector<double> loads{0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9};
    auto csv = openCsv("fig10.csv",
                       {"strategy", "xapian_load", "imgdnn_load",
                        "e_lc", "e_be", "e_s"});

    const std::vector<std::string> strategies{"PARTIES", "ARQ"};
    std::vector<exec::ScenarioJob> jobs;
    for (const auto &strategy : strategies) {
        for (double xl : loads) {
            for (double il : loads) {
                cluster::Node node(
                    machine::MachineConfig::xeonE52630v4(),
                    {cluster::lcAt(apps::xapian(), xl),
                     cluster::lcAt(apps::moses(), 0.2),
                     cluster::lcAt(apps::imgDnn(), il),
                     cluster::be(apps::stream())});
                jobs.push_back({strategy, node, standardConfig(),
                                strategy + "@x" + num(xl, 1) + "i" +
                                    num(il, 1)});
            }
        }
    }
    const auto results = runScenarios(jobs);

    auto next = results.begin();
    for (const auto &strategy : strategies) {
        std::vector<std::vector<double>> g_lc, g_be, g_s;
        std::vector<std::string> labels;
        for (double xl : loads) {
            std::vector<double> r_lc, r_be, r_s;
            for (double il : loads) {
                const auto &res = *next++;
                r_lc.push_back(res.meanELc);
                r_be.push_back(res.meanEBe);
                r_s.push_back(res.meanES);
                csv->addRow({strategy, num(xl, 1), num(il, 1),
                             num(res.meanELc), num(res.meanEBe),
                             num(res.meanES)});
            }
            g_lc.push_back(r_lc);
            g_be.push_back(r_be);
            g_s.push_back(r_s);
            labels.push_back("x" + num(xl * 100, 0) + "%");
        }
        report::heading(std::cout, strategy);
        report::heatmap(std::cout, g_lc, labels,
                        "E_LC (rows: Xapian load, cols: Img-dnn "
                        "load 10..90%)");
        report::heatmap(std::cout, g_be, labels, "E_BE");
        report::heatmap(std::cout, g_s, labels, "E_S");
    }

    std::cout << "\nExpected shape (paper): in the low-load corner "
                 "ARQ's E_BE is visibly lower than\nPARTIES' (the "
                 "shared region feeds the BE app); in the high-load "
                 "corner ARQ trades\nE_BE for lower E_LC.\n";
    return 0;
}
