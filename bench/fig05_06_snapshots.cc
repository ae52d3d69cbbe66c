/**
 * @file
 * Figs. 5 and 6: steady-state resource allocation snapshots of
 * PARTIES and ARQ on Xapian/Moses/Img-dnn + Stream, at Xapian loads
 * of 30% (Fig. 5: ARQ should leave the BE app a large shared pool)
 * and 90% (Fig. 6: ARQ should hand Xapian a large isolated region
 * by satisfying the other LC apps out of the shared region).
 */

#include <iostream>

#include "common.hh"
#include "machine/pqos.hh"

using namespace ahq;
using namespace ahq::bench;

namespace
{

void
snapshot(const std::string &strategy, const cluster::Node &node,
         const cluster::SimulationResult &res)
{
    const double xapian_load = node.loadAt(0, 0.0);
    const auto &rec = res.epochs.back();
    const auto &layout = rec.layout;
    const auto masks = layout.concreteMasks();

    const auto avail =
        machine::MachineConfig::xeonE52630v4().availableResources();

    report::heading(std::cout,
                    strategy + " @ Xapian " +
                        num(xapian_load * 100, 0) + "% load");
    report::TextTable t({"region", "members", "cores", "cores%",
                         "ways", "ways%", "bw", "core mask",
                         "CAT mask"});
    for (int r = 0; r < layout.numRegions(); ++r) {
        const auto &reg = layout.region(r);
        std::string members;
        for (std::size_t m = 0; m < reg.members.size(); ++m) {
            if (m)
                members += ",";
            members += node.profile(reg.members[m]).name;
        }
        t.addRow({reg.name, members,
                  std::to_string(reg.res.cores),
                  num(100.0 * reg.res.cores / avail.cores, 0) + "%",
                  std::to_string(reg.res.llcWays),
                  num(100.0 * reg.res.llcWays / avail.llcWays, 0) +
                      "%",
                  std::to_string(reg.res.memBw),
                  masks.coreMasks[static_cast<std::size_t>(r)]
                      .toString(),
                  masks.wayMasks[static_cast<std::size_t>(r)]
                      .toString()});
    }
    t.print(std::cout);
    std::cout << "  E_LC=" << num(res.meanELc)
              << " E_BE=" << num(res.meanEBe)
              << " E_S=" << num(res.meanES)
              << " stream IPC=" << num(res.meanIpc[3], 2) << "\n";

    static auto csv = openCsv("fig05_06.csv",
                              {"strategy", "xapian_load", "region",
                               "cores", "ways", "bw"});
    for (int r = 0; r < layout.numRegions(); ++r) {
        const auto &reg = layout.region(r);
        csv->addRow({strategy, num(xapian_load, 2), reg.name,
                     std::to_string(reg.res.cores),
                     std::to_string(reg.res.llcWays),
                     std::to_string(reg.res.memBw)});
    }
}

} // namespace

int
main()
{
    report::heading(std::cout,
                    "Figs. 5/6 — allocation snapshots "
                    "(Xapian, Moses, Img-dnn + Stream)");
    std::vector<exec::ScenarioJob> jobs;
    for (double load : {0.3, 0.9}) {
        for (const std::string s : {"PARTIES", "ARQ"}) {
            jobs.push_back({s, canonicalNode(load, 0.2, 0.2,
                                             apps::stream()),
                            standardConfig(),
                            s + "@" + num(load * 100, 0)});
        }
    }
    const auto results = runScenarios(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        snapshot(jobs[i].strategy, jobs[i].node, results[i]);

    // What a real deployment would execute for the final ARQ layout
    // at 90% load (Intel CAT/MBA via pqos, affinities via taskset).
    report::heading(std::cout,
                    "pqos/taskset program for ARQ @ 90%");
    machine::PqosProgrammer prog(
        machine::MachineConfig::xeonE52630v4());
    for (const auto &line : machine::PqosProgrammer::toShell(
             prog.program(results.back().epochs.back().layout)))
        std::cout << "  " << line << "\n";
    std::cout << "\nExpected shape (paper): at 30% load ARQ keeps a "
                 "large shared region (BE thrives);\nat 90% load "
                 "ARQ grows Xapian's isolated region (~70% cores in "
                 "the paper) while PARTIES\nmust also provision "
                 "Moses/Img-dnn separately and leaves Xapian "
                 "short.\n";
    return 0;
}
