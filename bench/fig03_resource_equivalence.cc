/**
 * @file
 * Fig. 3: resource equivalence.
 *
 * (a) E_S vs available cores for Unmanaged and ARQ, and the core
 *     savings ("resource equivalence") at E_S targets 0.25 / 0.40.
 * (b) Isentropic lines at E_S = 0.3: the cores needed as a function
 *     of available LLC ways, for all four managed/unmanaged
 *     strategies the paper plots.
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    const std::vector<int> cores{4, 5, 6, 7, 8, 9, 10};
    const std::vector<int> ways{4, 6, 8, 10, 12, 16, 20};
    const std::vector<std::string> strategies{
        "Unmanaged", "PARTIES", "CLITE", "ARQ"};

    // One batch: E_S vs cores for every (ways, strategy) pair of
    // (b); (a) reads the 20-way Unmanaged and ARQ curves from it.
    std::vector<exec::ScenarioJob> jobs;
    for (int w : ways) {
        for (const auto &s : strategies) {
            for (int c : cores)
                jobs.push_back(resourceJob(s, c, w));
        }
    }
    const auto results = runScenarios(jobs);
    auto curve = [&](std::size_t wi, std::size_t si) {
        core::EntropyCurve out;
        auto r = results.begin() +
            static_cast<std::ptrdiff_t>(
                (wi * strategies.size() + si) * cores.size());
        for (int c : cores)
            out.push_back({static_cast<double>(c), (r++)->meanES});
        return out;
    };

    // ---- (a) ------------------------------------------------------
    report::heading(std::cout,
                    "Fig. 3(a) — E_S vs cores, Unmanaged vs ARQ");

    const auto cu = curve(ways.size() - 1, 0);
    const auto ca = curve(ways.size() - 1, 3);

    report::TextTable ta({"cores", "Unmanaged E_S", "ARQ E_S"});
    auto csv_a = openCsv("fig03a.csv",
                         {"cores", "unmanaged_es", "arq_es"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
        ta.addRow({std::to_string(cores[i]), num(cu[i].second),
                   num(ca[i].second)});
        csv_a->addRow({std::to_string(cores[i]), num(cu[i].second),
                       num(ca[i].second)});
    }
    ta.print(std::cout);

    report::Series su{"Unmanaged", {}, {}};
    report::Series sa{"ARQ", {}, {}};
    for (std::size_t i = 0; i < cores.size(); ++i) {
        su.xs.push_back(cu[i].first);
        su.ys.push_back(cu[i].second);
        sa.xs.push_back(ca[i].first);
        sa.ys.push_back(ca[i].second);
    }
    report::lineChart(std::cout, {su, sa}, 64, 14,
                      "E_S vs available cores");

    for (double target : {0.25, 0.40}) {
        const auto ru = core::resourceForEntropy(cu, target);
        const auto ra = core::resourceForEntropy(ca, target);
        std::cout << "target E_S = " << target << ": Unmanaged "
                  << (ru ? num(*ru, 2) : "unreachable")
                  << " cores, ARQ "
                  << (ra ? num(*ra, 2) : "unreachable") << " cores";
        if (ru && ra) {
            std::cout << "  -> resource equivalence "
                      << num(*ru - *ra, 2) << " cores";
        }
        std::cout << "\n";
    }

    // ---- (b) ------------------------------------------------------
    report::heading(std::cout,
                    "Fig. 3(b) — isentropic lines at E_S = 0.3");

    report::TextTable tb({"ways", "Unmanaged", "PARTIES", "CLITE",
                          "ARQ"});
    auto csv_b = openCsv("fig03b.csv",
                         {"ways", "unmanaged_cores",
                          "parties_cores", "clite_cores",
                          "arq_cores"});
    for (std::size_t wi = 0; wi < ways.size(); ++wi) {
        std::vector<std::string> row{std::to_string(ways[wi])};
        for (std::size_t si = 0; si < strategies.size(); ++si) {
            const auto needed =
                core::resourceForEntropy(curve(wi, si), 0.3);
            row.push_back(needed ? num(*needed, 2) : "-");
        }
        tb.addRow(row);
        csv_b->addRow(row);
    }
    tb.print(std::cout);

    std::cout << "\nExpected shape (paper): with plentiful ways the "
                 "lines converge; below ~10 ways ARQ\nneeds "
                 "~1 fewer core than PARTIES/CLITE and ~2 fewer "
                 "than Unmanaged for the same E_S.\n";
    return 0;
}
