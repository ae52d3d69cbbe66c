/**
 * @file
 * Tests for the static-partition oracle search.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/catalog.hh"
#include "cluster/oracle.hh"
#include "sched/unmanaged.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

Node
smallNode(double xapian_load = 0.5)
{
    return Node(machine::MachineConfig::xeonE52630v4(),
                {lcAt(apps::xapian(), xapian_load),
                 lcAt(apps::moses(), 0.2), be(apps::stream())});
}

OracleConfig
coarse()
{
    OracleConfig cfg;
    cfg.wayStep = 4; // keep tests fast
    cfg.coreStep = 1;
    return cfg;
}

TEST(Oracle, SteadyStateEntropyIsDeterministicAndBounded)
{
    const auto node = smallNode();
    auto layout = machine::RegionLayout::fullyShared(
        node.config().availableResources(), {0, 1, 2});
    const auto a = steadyStateEntropy(
        node, layout, perf::CoreSharePolicy::LcPriority);
    const auto b = steadyStateEntropy(
        node, layout, perf::CoreSharePolicy::LcPriority);
    EXPECT_DOUBLE_EQ(a.eS, b.eS);
    EXPECT_GE(a.eS, 0.0);
    EXPECT_LE(a.eS, 1.0);
}

/**
 * The epoch kernel and the oracle are one model: with noise and
 * repartition overhead off, Unmanaged holds one layout, and the
 * last epoch's tails and E_S equal the oracle's steady state on
 * that layout bit for bit — the saturated case through the backlog
 * the kernel fills up to the queue cap.
 */
void
expectKernelSettlesAtOracle(const Node &node, double want_es)
{
    SimulationConfig cfg;
    cfg.durationSeconds = 30.0;
    cfg.warmupEpochs = 4;
    cfg.noiseSigma = 0.0;
    cfg.overheadEnabled = false;
    cfg.checkMode = check::Mode::Off;
    sched::Unmanaged unmanaged;
    const auto res = EpochSimulator(node, cfg).run(unmanaged);
    const auto &last = res.epochs.back();
    const auto rep = steadyStateEntropy(node, last.layout,
                                        unmanaged.corePolicy(), cfg);
    EXPECT_EQ(last.entropy.eS, rep.eS);
    EXPECT_EQ(last.entropy.eS, want_es);
    ASSERT_EQ(rep.lcDetail.size(), last.entropy.lcDetail.size());
    for (std::size_t k = 0; k < rep.lcDetail.size(); ++k) {
        EXPECT_EQ(last.entropy.lcDetail[k].interference,
                  rep.lcDetail[k].interference);
        EXPECT_EQ(last.entropy.lcDetail[k].intolerable,
                  rep.lcDetail[k].intolerable);
    }
    // Each LC tail is the one tail function at the backlog's fixed
    // point: empty, or the queue cap while arrivals outrun capacity.
    for (const auto i : node.lcApps()) {
        const auto ui = static_cast<std::size_t>(i);
        const auto &p = node.profile(i);
        const auto &out = last.outcomes[ui];
        const double lambda = p.arrivalRate(node.loadAt(i, 0.0));
        const double backlog =
            lambda > out.serviceRate ? cfg.queueCap(lambda) : 0.0;
        EXPECT_EQ(last.queueBacklog[ui], backlog);
        EXPECT_EQ(last.obs[ui].p95Ms,
                  p.measuredTailMs(out, lambda, backlog,
                                   cfg.tailPercentile));
    }
}

TEST(Oracle, KernelSettlesAtTheOracleSteadyState)
{
    expectKernelSettlesAtOracle(smallNode(0.5), 0.42674636602932536);
}

TEST(Oracle, SaturatedKernelSettlesAtTheOracleSteadyState)
{
    const Node node(machine::MachineConfig::xeonE52630v4(),
                    {lcAt(apps::xapian(), 1.5),
                     lcAt(apps::moses(), 0.9), be(apps::stream())});
    expectKernelSettlesAtOracle(node, 0.49258639101448926);
}

TEST(Oracle, BestLayoutsAreValidAndFullyAllocated)
{
    const auto node = smallNode();
    const auto iso = bestIsolatedPartition(node, {}, coarse());
    const auto hyb = bestHybridPartition(node, {}, coarse());
    EXPECT_TRUE(iso.layout.valid());
    EXPECT_TRUE(hyb.layout.valid());
    EXPECT_GT(iso.evaluated, 10);
    EXPECT_GT(hyb.evaluated, 10);
    // The search assigns every core and way.
    EXPECT_EQ(iso.layout.allocated().cores, 10);
    EXPECT_EQ(hyb.layout.allocated().cores, 10);
}

TEST(Oracle, HybridFamilyAtLeastMatchesIsolation)
{
    // The paper's key insight, quantified: the best hybrid layout
    // can never lose to the best fully-isolated layout by more than
    // model noise, and with a bandwidth-hog BE app it should win.
    const auto node = smallNode(0.5);
    const auto iso = bestIsolatedPartition(node, {}, coarse());
    const auto hyb = bestHybridPartition(node, {}, coarse());
    EXPECT_LE(hyb.report.eS, iso.report.eS + 0.01);
}

TEST(Oracle, IsolatedOracleBeatsEvenSplit)
{
    const auto node = smallNode(0.7);
    const auto iso = bestIsolatedPartition(node, {}, coarse());

    // The PARTIES starting layout (even split) evaluated under the
    // same steady-state objective.
    auto even = machine::RegionLayout::evenlyIsolated(
        {10, 20, 10}, {0, 1});
    machine::Region pool;
    pool.name = "bepool";
    pool.shared = true;
    pool.members = {2};
    // Carve the pool from the second region's share.
    even.region(1).res = {2, 4, 3};
    pool.res = {3, 6, 4};
    even.region(0).res = {5, 10, 3};
    even.addRegion(std::move(pool));
    ASSERT_TRUE(even.valid());
    const auto even_rep = steadyStateEntropy(
        node, even, perf::CoreSharePolicy::FairShare);

    EXPECT_LE(iso.report.eS, even_rep.eS + 1e-9);
}


TEST(Oracle, SaturatedScenarioStaysFiniteAndBad)
{
    // A hopeless node: heavy load on 4 cores. The steady-state
    // objective must stay finite with Q near its ceiling, not blow
    // up (the oracle search relies on comparable values).
    Node node(machine::MachineConfig::xeonE52630v4()
                  .withAvailable(4, 8, 4),
              {lcAt(apps::xapian(), 0.95),
               lcAt(apps::moses(), 0.9), be(apps::stream())});
    auto layout = machine::RegionLayout::fullyShared(
        {4, 8, 4}, {0, 1, 2});
    const auto rep = steadyStateEntropy(
        node, layout, perf::CoreSharePolicy::LcPriority);
    EXPECT_TRUE(std::isfinite(rep.eS));
    EXPECT_GT(rep.eLc, 0.3);
    EXPECT_LE(rep.eS, 1.0);
}

TEST(Oracle, HighLoadShiftsResourcesToLoadedApp)
{
    const auto cfg = coarse();
    const auto hot = bestHybridPartition(smallNode(0.9), {}, cfg);
    const auto cold = bestHybridPartition(smallNode(0.1), {}, cfg);
    // Xapian's reachable cores at 90% load >= at 10% load.
    EXPECT_GE(hot.layout.reachable(0, machine::ResourceKind::Cores),
              cold.layout.reachable(
                  0, machine::ResourceKind::Cores) - 1);
}

} // namespace
