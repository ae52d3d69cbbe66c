/**
 * @file
 * Fig. 9: Xapian, Moses, Img-dnn colocated with a 10-thread STREAM
 * instance — the severe-interference companion of Fig. 8 — plus the
 * paper's highlighted extreme point (Xapian 90%, Moses/Img-dnn 40%)
 * where only ARQ keeps E_LC near zero, and the Section VI-A summary
 * (yield and E_S across the managed strategies).
 */

#include <iostream>

#include "common.hh"

using namespace ahq;
using namespace ahq::bench;

int
main()
{
    const LoadSweep grid =
        loadSweepFigure("fig09", apps::xapian(), apps::moses(),
                        apps::imgDnn(), apps::stream());

    report::heading(std::cout,
                    "Extreme point: Xapian 90%, Moses/Img-dnn 40% "
                    "+ Stream");
    report::TextTable t({"strategy", "E_LC", "E_BE", "E_S", "yield",
                         "dE_S vs Unmanaged"});
    const auto &ru = grid.at(0.4, 0.9, "Unmanaged");
    for (const auto &s : allStrategies()) {
        const auto &r = grid.at(0.4, 0.9, s);
        t.addRow({s, num(r.meanELc), num(r.meanEBe), num(r.meanES),
                  num(r.yieldValue, 2),
                  s == "Unmanaged" ? "-" :
                      num(100.0 * (1.0 - r.meanES / ru.meanES), 1) +
                          "%"});
    }
    t.print(std::cout);
    std::cout << "(paper: ARQ reduces E_S by 73.4% vs Unmanaged "
                 "here, CLITE 53.2%, PARTIES 22.3%,\nand only ARQ "
                 "pushes E_LC to ~0.06)\n";
    return 0;
}
