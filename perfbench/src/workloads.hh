/**
 * @file
 * The four benchmark workloads. Each builds its inputs from the
 * seed, times whole rounds of ops for the requested seconds, checks
 * every op's outputs, and reports its metrics. Untraced runs report
 * the end-to-end metrics; traced runs alternate plain and
 * instrumented rounds and report the per-layer metrics.
 */

#ifndef AHQ_PERFBENCH_WORKLOADS_HH
#define AHQ_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "harness.hh"

namespace ahq::perfbench
{

struct Options
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;

    /** Small inputs, for the benchmark's own self-check. */
    bool tiny = false;

    /**
     * Perturb one op's output by one ulp, to show that the checks
     * catch it (self-check only).
     */
    bool corrupt = false;
};

using WorkloadFn = void (*)(const Options &, Report &, Checks &);

/** The workload of that name, or null. */
WorkloadFn findWorkload(const std::string &name);

} // namespace ahq::perfbench

#endif // AHQ_PERFBENCH_WORKLOADS_HH
