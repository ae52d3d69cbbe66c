/**
 * @file
 * Oracle search implementation.
 */

#include "cluster/oracle.hh"

#include <cassert>
#include <functional>
#include <limits>

#include "exec/jobs.hh"
#include "exec/parallel.hh"

namespace ahq::cluster
{

using machine::AppId;
using machine::Region;
using machine::RegionLayout;

namespace
{

/**
 * Enumerate compositions: parts[i] = mins[i] + step * k_i with the
 * total exactly `total` when reachable; the remainder that cannot
 * be expressed in whole steps is added to part 0.
 */
void
forEachComposition(int total, const std::vector<int> &mins, int step,
                   const std::function<void(
                       const std::vector<int> &)> &visit)
{
    const int parts = static_cast<int>(mins.size());
    int base = 0;
    for (int m : mins)
        base += m;
    if (base > total)
        return;
    const int extra_units = (total - base) / step;
    const int leftover = (total - base) % step;

    std::vector<int> units(static_cast<std::size_t>(parts), 0);
    std::function<void(int, int)> rec = [&](int idx,
                                            int remaining) {
        if (idx == parts - 1) {
            units[static_cast<std::size_t>(idx)] = remaining;
            std::vector<int> out(static_cast<std::size_t>(parts));
            for (int i = 0; i < parts; ++i) {
                out[static_cast<std::size_t>(i)] =
                    mins[static_cast<std::size_t>(i)] +
                    step * units[static_cast<std::size_t>(i)];
            }
            out[0] += leftover;
            visit(out);
            return;
        }
        for (int k = 0; k <= remaining; ++k) {
            units[static_cast<std::size_t>(idx)] = k;
            rec(idx + 1, remaining - k);
        }
    };
    rec(0, extra_units);
}

/** Materialize an enumeration so it can be fanned across a pool. */
std::vector<std::vector<int>>
allCompositions(int total, const std::vector<int> &mins, int step)
{
    std::vector<std::vector<int>> out;
    forEachComposition(total, mins, step,
                       [&](const std::vector<int> &c) {
                           out.push_back(c);
                       });
    return out;
}

/**
 * Best layout within one core split. The sentinel es (infinity
 * when the split admitted no way composition) keeps empty splits
 * out of the merge.
 */
struct SplitBest
{
    OracleResult result;
    double es = std::numeric_limits<double>::infinity();
};

/**
 * Merge per-split bests in enumeration order with the same
 * strict-< rule the serial scan applied, so the first global
 * minimum in (core split, way split) order wins either way.
 */
OracleResult
mergeSplitBests(const std::vector<SplitBest> &locals)
{
    OracleResult best;
    double best_es = std::numeric_limits<double>::infinity();
    for (const auto &l : locals) {
        best.evaluated += l.result.evaluated;
        if (l.es < best_es) {
            best_es = l.es;
            best.layout = l.result.layout;
            best.report = l.result.report;
        }
    }
    return best;
}

/** Distribute bandwidth units proportionally to cores. */
std::vector<int>
bwProportionalToCores(const std::vector<int> &cores, int total_bw)
{
    int total_cores = 0;
    for (int c : cores)
        total_cores += c;
    std::vector<int> bw(cores.size(), 0);
    int assigned = 0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        bw[i] = total_cores > 0 ?
            total_bw * cores[i] / total_cores : 0;
        assigned += bw[i];
    }
    bw[0] += total_bw - assigned;
    return bw;
}

/**
 * One layout family: per-group minimum cores and ways, the builder
 * that turns a (cores, ways, bw) split into a layout, and the
 * core-share policy of its shared regions.
 */
struct Family
{
    std::vector<int> mins;
    perf::CoreSharePolicy policy;
    std::function<RegionLayout(const std::vector<int> &cores,
                               const std::vector<int> &ways,
                               const std::vector<int> &bw)>
        build;
};

/**
 * The one search: enumerate every core split (fanned across the
 * pool) and, within it, every way split; score each layout with
 * steadyStateEntropy and keep the first minimum in enumeration
 * order.
 */
OracleResult
bestOf(const Node &node, const Family &family,
       const SimulationConfig &sim, const OracleConfig &cfg)
{
    const auto avail = node.config().availableResources();
    const auto splits =
        allCompositions(avail.cores, family.mins, cfg.coreStep);
    auto eval_split = [&](const std::vector<int> &cores) {
        SplitBest local;
        const auto bw = bwProportionalToCores(cores, avail.memBw);
        forEachComposition(avail.llcWays, family.mins, cfg.wayStep,
                           [&](const std::vector<int> &ways) {
            auto layout = family.build(cores, ways, bw);
            const auto rep =
                steadyStateEntropy(node, layout, family.policy, sim);
            ++local.result.evaluated;
            if (rep.eS < local.es) {
                local.es = rep.eS;
                local.result.layout = std::move(layout);
                local.result.report = rep;
            }
        });
        return local;
    };
    exec::ThreadPool &pool =
        cfg.pool ? *cfg.pool : exec::globalPool();
    return mergeSplitBests(
        exec::parallelMap(pool, splits, eval_split));
}

/** An exclusive region holding LC app `app`. */
Region
isolated(AppId app, int cores, int ways, int bw)
{
    return {"iso" + std::to_string(app), false, {cores, ways, bw},
            {app}};
}

} // namespace

core::EntropyReport
steadyStateEntropy(const Node &node, const RegionLayout &layout,
                   perf::CoreSharePolicy policy,
                   const SimulationConfig &sim)
{
    perf::ContentionModel model(node.config(), sim.contention);
    const auto out = model.evaluate(layout, node.demandsAt(0.0), policy);

    std::vector<core::LcObservation> lc;
    std::vector<core::BeObservation> be;
    for (AppId i = 0; i < node.numApps(); ++i) {
        const auto &p = node.profile(i);
        const auto &o = out[static_cast<std::size_t>(i)];
        if (!p.latencyCritical) {
            be.push_back({p.ipcSolo, o.ipc});
            continue;
        }
        const double load = node.loadAt(i, 0.0);
        const double lambda = p.arrivalRate(load);
        // The kernel's backlog fixed point: empty, or filled to the
        // generator's cap while arrivals outrun capacity.
        const double backlog =
            lambda > o.serviceRate ? sim.queueCap(lambda) : 0.0;
        lc.push_back(
            {p.soloTailPercentileMs(load, sim.tailPercentile),
             p.measuredTailMs(o, lambda, backlog, sim.tailPercentile),
             p.tailThresholdMs});
    }
    return core::computeEntropy(lc, be, sim.ri);
}

OracleResult
bestIsolatedPartition(const Node &node, const SimulationConfig &sim,
                      const OracleConfig &cfg)
{
    const auto avail = node.config().availableResources();
    const auto &lc = node.lcApps();
    const bool has_be = !node.beApps().empty();
    const auto groups = lc.size() + (has_be ? 1 : 0);
    assert(groups >= 1);

    const Family family{
        std::vector<int>(groups, 1), perf::CoreSharePolicy::FairShare,
        [&](const std::vector<int> &cores, const std::vector<int> &ways,
            const std::vector<int> &bw) {
            RegionLayout layout(avail);
            for (std::size_t g = 0; g < lc.size(); ++g)
                layout.addRegion(
                    isolated(lc[g], cores[g], ways[g], bw[g]));
            if (has_be) {
                const auto g = lc.size();
                layout.addRegion({"bepool", true,
                                  {cores[g], ways[g], bw[g]},
                                  node.beApps()});
            }
            return layout;
        }};
    return bestOf(node, family, sim, cfg);
}

OracleResult
bestHybridPartition(const Node &node, const SimulationConfig &sim,
                    const OracleConfig &cfg)
{
    const auto avail = node.config().availableResources();
    const auto &lc = node.lcApps();
    std::vector<AppId> everyone = lc;
    everyone.insert(everyone.end(), node.beApps().begin(),
                    node.beApps().end());

    // Group 0 is the shared region (min 1 core / 1 way so that BE
    // members stay viable); iso regions may be empty.
    std::vector<int> mins(lc.size() + 1, 0);
    mins[0] = 1;
    const Family family{
        std::move(mins), perf::CoreSharePolicy::LcPriority,
        [&](const std::vector<int> &cores, const std::vector<int> &ways,
            const std::vector<int> &bw) {
            RegionLayout layout(avail);
            layout.addRegion({"shared", true,
                              {cores[0], ways[0], bw[0]}, everyone});
            for (std::size_t g = 0; g < lc.size(); ++g)
                layout.addRegion(isolated(lc[g], cores[g + 1],
                                          ways[g + 1], bw[g + 1]));
            return layout;
        }};
    return bestOf(node, family, sim, cfg);
}

} // namespace ahq::cluster
