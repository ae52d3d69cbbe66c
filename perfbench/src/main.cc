/**
 * @file
 * ahq_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   ahq_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--size full|tiny] [--corrupt]
 *                 [--git-rev <rev>] [--src-digest <hex>]
 *
 * The last line is `RESULT {json}`; run.py turns it into the
 * benchmark's result line. Bad arguments exit 2 without a result.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hh"
#include "workloads.hh"

using namespace ahq::perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ahq_perfbench: " << why << "\n"
              << "usage: ahq_perfbench --workload <node_sweep|fleet_10k|"
                 "observe_fold|ab_switchback> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size full|tiny] [--corrupt]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    Manifest man;
    man.size = "full";
    man.gitRev = "unknown";
    man.srcDigest = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            const auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") {
                man.workload = next();
            } else if (a == "--seed") {
                opt.seed = std::stoull(next());
                have_seed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stod(next());
                have_seconds = opt.seconds > 0.0;
            } else if (a == "--trace") {
                const std::string v = next();
                if (v != "0" && v != "1")
                    usage("--trace must be 0 or 1");
                opt.traced = v == "1";
                have_trace = true;
            } else if (a == "--size") {
                man.size = next();
                if (man.size != "full" && man.size != "tiny")
                    usage("--size must be full or tiny");
                opt.tiny = man.size == "tiny";
            } else if (a == "--corrupt") {
                opt.corrupt = true;
            } else if (a == "--git-rev") {
                man.gitRev = next();
            } else if (a == "--src-digest") {
                man.srcDigest = next();
            } else {
                usage("unknown argument " + a);
            }
        }
    } catch (const std::exception &) {
        usage("malformed number");
    }
    const WorkloadFn run = findWorkload(man.workload);
    if (run == nullptr)
        usage("unknown workload '" + man.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (> 0) and --trace are required");
    man.seed = opt.seed;
    man.seconds = opt.seconds;
    man.traced = opt.traced;

    try {
        Report rep;
        Checks checks;
        run(opt, rep, checks);
        rep.print(man, checks);
        return checks.failed() == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "ahq_perfbench: " << man.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
}
