/**
 * @file
 * Batch scenario execution: fan a vector of (strategy, node,
 * config) jobs across the thread pool and collect the simulation
 * results in job order.
 *
 * Determinism contract: each job owns its SimulationConfig::seed
 * and gets a fresh scheduler instance, so the result vector is
 * bitwise identical whether the batch runs on 1 or N threads (the
 * tests/exec determinism suite asserts this field by field).
 */

#ifndef AHQ_EXEC_SCENARIO_RUNNER_HH
#define AHQ_EXEC_SCENARIO_RUNNER_HH

#include <string>
#include <vector>

#include "cluster/epoch_sim.hh"
#include "obs/scope.hh"

namespace ahq::exec
{

class ThreadPool;

/** One unit of batch work. */
struct ScenarioJob
{
    /** Strategy name (resolved through the sched registry). */
    std::string strategy;

    /** The colocation to simulate. */
    cluster::Node node;

    /**
     * Simulation settings, including the job's own seed; the
     * runner's scope replaces config.obs.
     */
    cluster::SimulationConfig config;

    /**
     * Scenario id stamped into trace events (defaults to the
     * strategy name when empty). Tag jobs when a batch runs the
     * same strategy more than once.
     */
    std::string tag;
};

/**
 * Runs batches of independent scenario simulations in parallel.
 */
class ScenarioRunner
{
  public:
    /** @param pool Pool to fan out on; nullptr = globalPool(). */
    explicit ScenarioRunner(ThreadPool *pool = nullptr);

    /**
     * Attach telemetry for subsequent batches; this scope replaces
     * every job's own config.obs. Each job runs under the child tag
     * of its ScenarioJob::tag and, while tracing, writes into a
     * private buffer that is flushed to the real sink in job order
     * after the batch, so the trace bytes are identical at any
     * thread count.
     */
    void setObsScope(obs::Scope scope) { obs_ = std::move(scope); }

    /** Run every job; results are in job order. */
    std::vector<cluster::SimulationResult>
    run(const std::vector<ScenarioJob> &jobs) const;

  private:
    ThreadPool *pool_;
    obs::Scope obs_;
};

} // namespace ahq::exec

#endif // AHQ_EXEC_SCENARIO_RUNNER_HH
