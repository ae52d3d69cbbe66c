/**
 * @file
 * Tests for the workload catalogue against the paper's published
 * parameters (Tables II and IV, Section V).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/catalog.hh"

namespace
{

using namespace ahq::apps;

TEST(Catalog, TableIvThresholds)
{
    EXPECT_DOUBLE_EQ(xapian().tailThresholdMs, 4.22);
    EXPECT_DOUBLE_EQ(moses().tailThresholdMs, 10.53);
    EXPECT_DOUBLE_EQ(imgDnn().tailThresholdMs, 3.98);
    EXPECT_DOUBLE_EQ(masstree().tailThresholdMs, 1.05);
    EXPECT_DOUBLE_EQ(sphinx().tailThresholdMs, 2682.0);
    EXPECT_DOUBLE_EQ(silo().tailThresholdMs, 1.27);
}

TEST(Catalog, TableIvMaxLoads)
{
    EXPECT_DOUBLE_EQ(xapian().maxLoadQps, 3400.0);
    EXPECT_DOUBLE_EQ(moses().maxLoadQps, 1800.0);
    EXPECT_DOUBLE_EQ(imgDnn().maxLoadQps, 5300.0);
    EXPECT_DOUBLE_EQ(masstree().maxLoadQps, 4420.0);
    EXPECT_DOUBLE_EQ(sphinx().maxLoadQps, 4.8);
    EXPECT_DOUBLE_EQ(silo().maxLoadQps, 220.0);
}

TEST(Catalog, TableIiIdealTails)
{
    // Table II's TL_i0 column at 20% load.
    EXPECT_NEAR(xapian().soloTailPercentileMs(0.2, 0.95), 2.77, 0.02);
    EXPECT_NEAR(moses().soloTailPercentileMs(0.2, 0.95), 2.80, 0.02);
    EXPECT_NEAR(imgDnn().soloTailPercentileMs(0.2, 0.95), 1.41, 0.02);
}

TEST(Catalog, LcAppsHaveFourThreads)
{
    // "These LC applications are from Tailbench and are instantiated
    // with 4 threads" (Section V).
    for (const char *name :
         {"xapian", "moses", "img-dnn", "masstree", "sphinx",
          "silo"}) {
        EXPECT_EQ(byName(name).threads, 4) << name;
        EXPECT_TRUE(byName(name).latencyCritical) << name;
    }
}

TEST(Catalog, StreamHasTenThreads)
{
    // "we instantiate Stream with 10 threads" (Section V).
    const AppProfile s = stream();
    EXPECT_EQ(s.threads, 10);
    EXPECT_FALSE(s.latencyCritical);
}

TEST(Catalog, BeAppsAreBestEffort)
{
    for (const char *name :
         {"fluidanimate", "streamcluster", "stream"}) {
        const AppProfile p = byName(name);
        EXPECT_FALSE(p.latencyCritical) << name;
        EXPECT_GT(p.ipcSolo, 0.0) << name;
    }
}

TEST(Catalog, StreamIsBandwidthBound)
{
    // Flat MRC, high demand: the defining traits of STREAM.
    const AppProfile s = stream();
    const double reducible =
        s.cpi.mrc().mpkiMax() - s.cpi.mrc().mpkiMin();
    EXPECT_LT(reducible, 10.0);
    EXPECT_GT(s.cpi.mrc().mpkiMin(), 40.0);
    EXPECT_GE(s.cpi.traits().mlp, 4.0);
}

TEST(Catalog, StreamclusterIsCacheSensitive)
{
    const AppProfile s = streamcluster();
    const double reducible =
        s.cpi.mrc().mpkiMax() - s.cpi.mrc().mpkiMin();
    EXPECT_GT(reducible, 15.0);
}

TEST(Catalog, AllNamesResolve)
{
    for (const auto &name : allNames())
        EXPECT_NO_THROW((void)byName(name)) << name;
    EXPECT_EQ(allNames().size(), 9u);
}

TEST(Catalog, UnknownNameThrows)
{
    EXPECT_THROW((void)byName("redis"), std::invalid_argument);
    EXPECT_THROW((void)byName(""), std::invalid_argument);
    EXPECT_THROW((void)byName("Xapian"), std::invalid_argument);
}

} // namespace
