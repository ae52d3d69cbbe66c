/**
 * @file
 * The per-node fan-out every multi-node run shares (DESIGN.md §7).
 * Fleet's phases, the ClusterScheduler's measurement rounds, the
 * experiment harness and ScenarioRunner each run one simulation per
 * node (or job) on the pool under the same three rules:
 *
 *  - one seed rule, nodeSeed: node `id` of a run seeded `base` runs
 *    on base + 0x9e37·(id+1) + salt, so nodes see independent noise
 *    and a salt decorrelates the phases or rounds of one run;
 *  - one tag rule, childTag: node events and series are keyed
 *    "<scenario>/<child>", or just "<child>" under an empty
 *    scenario;
 *  - one traced parallel run, tracedParallelFor: every node traces
 *    into a private buffer, and the buffers come back in node order
 *    for the caller to flush between its own events.
 *
 * Together they keep results, series and trace bytes identical at
 * any thread count.
 */

#ifndef AHQ_CLUSTER_FAN_OUT_HH
#define AHQ_CLUSTER_FAN_OUT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/scope.hh"

namespace ahq::exec
{
class ThreadPool;
}

namespace ahq::cluster
{

/** The seed of node `id` in a run seeded `base`. */
std::uint64_t nodeSeed(std::uint64_t base, std::size_t id,
                       std::uint64_t salt = 0);

/** "<scenario>/<child>", or `child` when the scenario is empty. */
std::string childTag(const std::string &scenario,
                     const std::string &child);

/** Names node i's child tag. */
using ChildTagFn = std::function<std::string(std::size_t)>;

/** Runs node i under its scope. */
using NodeRunFn = std::function<void(std::size_t, const obs::Scope &)>;

/**
 * Run fn(i, scope_i) for i in [0, n) on the pool. With neither a
 * sink nor a series registry on `scope`, scope_i is `scope` itself
 * and no tag string or buffer is built. Otherwise scope_i is tagged
 * childTag(scope.scenario, child(i)) — per-node tags are what keep
 * concurrent nodes' series disjoint — and, while tracing, writes
 * into the i-th private buffer.
 *
 * @return The buffers in node order (empty unless tracing); the
 *         caller flushes them into scope.sink.
 */
std::vector<obs::BufferTraceSink>
tracedParallelFor(exec::ThreadPool &pool, std::size_t n,
                  const obs::Scope &scope, const ChildTagFn &child,
                  const NodeRunFn &fn);

} // namespace ahq::cluster

#endif // AHQ_CLUSTER_FAN_OUT_HH
