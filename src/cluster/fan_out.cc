/**
 * @file
 * Per-node fan-out implementation.
 */

#include "cluster/fan_out.hh"

#include "exec/parallel.hh"

namespace ahq::cluster
{

std::uint64_t
nodeSeed(std::uint64_t base, std::size_t id, std::uint64_t salt)
{
    return base + 0x9e37 * (id + 1) + salt;
}

std::string
childTag(const std::string &scenario, const std::string &child)
{
    return scenario.empty() ? child : scenario + "/" + child;
}

std::vector<obs::BufferTraceSink>
tracedParallelFor(exec::ThreadPool &pool, std::size_t n,
                  const obs::Scope &scope, const ChildTagFn &child,
                  const NodeRunFn &fn)
{
    const bool tracing = scope.tracing();
    const bool tagging = tracing || scope.series != nullptr;
    std::vector<obs::BufferTraceSink> buffers(tracing ? n : 0);
    // Each task touches only its own node's state and buffer.
    exec::parallelFor(pool, n, [&](std::size_t i) {
        if (!tagging)
            return fn(i, scope);
        obs::Scope node = scope.tagged(childTag(scope.scenario,
                                                child(i)));
        if (tracing)
            node.sink = &buffers[i];
        fn(i, node);
    });
    return buffers;
}

} // namespace ahq::cluster
