/**
 * @file
 * ScenarioRunner implementation.
 */

#include "exec/scenario_runner.hh"

#include <chrono>

#include "cluster/fan_out.hh"
#include "exec/jobs.hh"
#include "obs/span.hh"
#include "sched/registry.hh"

namespace ahq::exec
{

ScenarioRunner::ScenarioRunner(ThreadPool *pool) : pool_(pool) {}

std::vector<cluster::SimulationResult>
ScenarioRunner::run(const std::vector<ScenarioJob> &jobs) const
{
    // One path with telemetry on or off. Jobs fan out through the
    // per-node fan-out (cluster/fan_out.hh): while tracing, each job
    // writes into its own buffer, flushed to the real sink in job
    // order below (span events included), so the trace is
    // byte-identical at any thread count. Each job profiles into its
    // own SpanProfiler. Metrics go straight to the shared registry —
    // counter and histogram updates commute, so those totals are
    // order-independent too, and so are the per-job profiler merges
    // into the runner-level profiler (integer aggregates). The
    // time-series registry (obs_.series) likewise rides along on
    // the per-job scopes: each job records under its own scenario
    // tag, so concurrent jobs touch disjoint series and the folded
    // buckets are order-independent by construction.
    const bool tracing = obs_.tracing();
    const bool profiling = obs_.profiling();
    std::vector<obs::SpanProfiler> profs(
        profiling ? jobs.size() : 0);
    std::vector<cluster::SimulationResult> results(jobs.size());
    const auto buffers = cluster::tracedParallelFor(
        pool_ ? *pool_ : globalPool(), jobs.size(), obs_,
        [&](std::size_t i) {
            return jobs[i].tag.empty() ? jobs[i].strategy
                                       : jobs[i].tag;
        },
        [&](std::size_t i, const obs::Scope &job_scope) {
            const ScenarioJob &job = jobs[i];
            cluster::SimulationConfig cfg = job.config;
            cfg.obs = job_scope;
            if (profiling)
                cfg.obs.prof = &profs[i];
            const obs::Scope &scope = cfg.obs;

            const auto start = std::chrono::steady_clock::now();
            if (tracing) {
                obs::Event ev("scenario_start");
                ev.str("scheduler", job.strategy)
                    .str("node", job.node.describe())
                    .integer("job", static_cast<long long>(i));
                scope.emit(ev);
            }

            const auto sched = sched::makeScheduler(job.strategy);
            {
                obs::Span span(scope, "exec.scenario");
                cluster::EpochSimulator sim(job.node, cfg);
                results[i] = sim.run(*sched);
            }

            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (tracing) {
                obs::Event ev("scenario_end");
                ev.str("scheduler", job.strategy)
                    .num("mean_e_s", results[i].meanES)
                    .num("yield", results[i].yieldValue);
                // Wall time is opt-in: it varies run to run and
                // would break trace reproducibility.
                if (obs_.wallClock)
                    ev.num("wall_ms", wall_ms);
                scope.emit(ev);
            }
            scope.count("exec.scenarios");
            scope.observe("exec.scenario_wall_ms", wall_ms);
            if (profiling) {
                // Span events land in this job's buffer
                // (deterministic content, deterministic flush order
                // below); the fold into the runner-level profiler
                // commutes.
                profs[i].flush(scope);
                obs_.prof->merge(profs[i]);
            }
        });

    for (const auto &buf : buffers)
        buf.flushTo(*obs_.sink);
    return results;
}

} // namespace ahq::exec
