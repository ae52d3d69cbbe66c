/**
 * @file
 * Fig. 2: E_S as a function of available processing units (4-10) and
 * LLC ways (4-20) for the Unmanaged and ARQ strategies, on the
 * Xapian(20%)/Moses(20%)/Img-dnn(20%)/Fluidanimate colocation.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    report::heading(std::cout,
                    "Fig. 2 — E_S over (cores x LLC ways)");

    const std::vector<int> cores{4, 5, 6, 7, 8, 9, 10};
    const std::vector<int> ways{4, 8, 12, 16, 20};

    auto csv = openCsv("fig02.csv",
                       {"strategy", "cores", "ways", "e_s"});

    const std::vector<std::string> strategies{"Unmanaged", "ARQ"};
    std::vector<exec::ScenarioJob> jobs;
    for (const auto &strategy : strategies) {
        for (int c : cores) {
            for (int w : ways)
                jobs.push_back(resourceJob(strategy, c, w));
        }
    }
    const auto results = runScenarios(jobs);

    auto next = results.begin();
    for (const auto &strategy : strategies) {
        report::TextTable t({"cores \\ ways", "4", "8", "12", "16",
                             "20"});
        std::vector<std::vector<double>> grid;
        std::vector<std::string> labels;
        for (int c : cores) {
            std::vector<std::string> row{std::to_string(c)};
            std::vector<double> grow;
            for (int w : ways) {
                const auto &res = *next++;
                row.push_back(num(res.meanES));
                grow.push_back(res.meanES);
                csv->addRow({strategy, std::to_string(c),
                             std::to_string(w), num(res.meanES)});
            }
            t.addRow(row);
            grid.push_back(grow);
            labels.push_back(std::to_string(c) + "c");
        }
        report::heading(std::cout, strategy);
        t.print(std::cout);
        report::heatmap(std::cout, grid, labels,
                        strategy + " E_S (rows: cores, cols: ways "
                                   "4..20)");
    }

    std::cout << "\nExpected shape (paper): E_S decreases towards "
                 "the resource-rich corner;\nUnmanaged ~0.006 at "
                 "(10c, 20w) but ~0.53 at (6c, 20w); ARQ stays "
                 "low far longer (0.15 at 6c).\n";
    return 0;
}
