/**
 * @file
 * Tests for the system entropy theory (Eqs. 1-7), including direct
 * reproduction of Table II's derived columns from its raw latency
 * columns and property-based checks of the three required properties
 * of Section II-A.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/entropy.hh"
#include "stats/rng.hh"

namespace
{

using namespace ahq::core;

TEST(LcBreakdown, ToleranceEquation)
{
    // A_i = 1 - TL_i0 / M_i (Eq. 1).
    const auto b = lcBreakdown({2.0, 2.0, 8.0});
    EXPECT_NEAR(b.tolerance, 0.75, 1e-12);
}

TEST(LcBreakdown, InterferenceEquation)
{
    // R_i = 1 - TL_i0 / TL_i1 (Eq. 2).
    const auto b = lcBreakdown({2.0, 4.0, 8.0});
    EXPECT_NEAR(b.interference, 0.5, 1e-12);
}

TEST(LcBreakdown, NoInterferenceWhenAtIdeal)
{
    const auto b = lcBreakdown({2.0, 2.0, 8.0});
    EXPECT_EQ(b.interference, 0.0);
    EXPECT_EQ(b.intolerable, 0.0);
    // ReT = 1 - TL1/M when A > R (Eq. 3).
    EXPECT_NEAR(b.remainingTolerance, 0.75, 1e-12);
}

TEST(LcBreakdown, NoiseBelowIdealClamped)
{
    const auto b = lcBreakdown({2.0, 1.8, 8.0});
    EXPECT_EQ(b.interference, 0.0);
    EXPECT_EQ(b.intolerable, 0.0);
    EXPECT_GE(b.remainingTolerance, 0.0);
}

TEST(LcBreakdown, ViolationActivatesQ)
{
    // TL1 beyond M: Q = 1 - M / TL1 (Eq. 4), ReT = 0 (Eq. 3).
    const auto b = lcBreakdown({2.0, 16.0, 8.0});
    EXPECT_EQ(b.remainingTolerance, 0.0);
    EXPECT_NEAR(b.intolerable, 0.5, 1e-12);
}

TEST(LcBreakdown, InfiniteLatencySaturates)
{
    const auto b = lcBreakdown(
        {2.0, std::numeric_limits<double>::infinity(), 8.0});
    EXPECT_EQ(b.interference, 1.0);
    EXPECT_EQ(b.intolerable, 1.0);
    EXPECT_EQ(b.remainingTolerance, 0.0);
}

TEST(LcBreakdown, BoundaryBetweenToleranceAndViolation)
{
    // TL1 == M: R == A exactly, so neither ReT nor Q activates.
    const auto b = lcBreakdown({2.0, 8.0, 8.0});
    EXPECT_EQ(b.remainingTolerance, 0.0);
    EXPECT_EQ(b.intolerable, 0.0);
}

// ----- Table II reproduction ------------------------------------

struct TableIiRow
{
    const char *app;
    double tl0, tl1, m;
    double a, r, ret, q;
};

class TableIi : public ::testing::TestWithParam<TableIiRow>
{
};

TEST_P(TableIi, DerivedColumnsMatchPaper)
{
    const TableIiRow row = GetParam();
    const auto b = lcBreakdown({row.tl0, row.tl1, row.m});
    EXPECT_NEAR(b.tolerance, row.a, 0.005) << row.app;
    EXPECT_NEAR(b.interference, row.r, 0.005) << row.app;
    EXPECT_NEAR(b.remainingTolerance, row.ret, 0.005) << row.app;
    EXPECT_NEAR(b.intolerable, row.q, 0.005) << row.app;
}

// Rows of Table II (Unmanaged, 6 and 8 cores; the 7-core row's Q
// column). TL_i0 / TL_i1 / M_i are the paper's raw measurements.
INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableIi,
    ::testing::Values(
        TableIiRow{"xapian-6c", 2.77, 23.99, 4.22, 0.343, 0.885, 0.0,
                   0.824},
        TableIiRow{"moses-6c", 2.80, 16.54, 10.53, 0.734, 0.831, 0.0,
                   0.363},
        TableIiRow{"imgdnn-6c", 1.41, 14.35, 3.98, 0.646, 0.902, 0.0,
                   0.723},
        TableIiRow{"xapian-7c", 2.77, 7.13, 4.22, 0.343, 0.612, 0.0,
                   0.408},
        TableIiRow{"xapian-8c", 2.77, 4.18, 4.22, 0.343, 0.337,
                   0.009, 0.0},
        TableIiRow{"moses-8c", 2.80, 4.43, 10.53, 0.734, 0.368,
                   0.579, 0.0},
        TableIiRow{"imgdnn-8c", 1.41, 3.53, 3.98, 0.646, 0.601,
                   0.113, 0.0}));

TEST(LcEntropy, TableIiSixCoreRow)
{
    // E_LC = mean Q = 0.64 for the 6-core row (Eq. 5).
    const std::vector<LcObservation> lc{{2.77, 23.99, 4.22},
                                        {2.80, 16.54, 10.53},
                                        {1.41, 14.35, 3.98}};
    EXPECT_NEAR(lcEntropy(lc), 0.64, 0.01);
}

TEST(LcEntropy, TableIiEightCoreRowIsZero)
{
    const std::vector<LcObservation> lc{{2.77, 4.18, 4.22},
                                        {2.80, 4.43, 10.53},
                                        {1.41, 3.53, 3.98}};
    EXPECT_EQ(lcEntropy(lc), 0.0);
}

TEST(LcEntropy, EmptyIsZero)
{
    EXPECT_EQ(lcEntropy({}), 0.0);
}

// ----- E_BE (Eq. 6) ----------------------------------------------

TEST(BeEntropy, ZeroWithoutSlowdown)
{
    EXPECT_EQ(beEntropy({{2.0, 2.0}, {1.0, 1.0}}), 0.0);
    EXPECT_EQ(beEntropy({}), 0.0);
}

TEST(BeEntropy, HalfSlowdownSingleApp)
{
    // One app at half speed: E_BE = 1 - 1/2 = 0.5.
    EXPECT_NEAR(beEntropy({{2.0, 1.0}}), 0.5, 1e-12);
}

TEST(BeEntropy, HarmonicCombination)
{
    // Slowdowns 1 and 2: E_BE = 1 - 2/(1+2) = 1/3.
    EXPECT_NEAR(beEntropy({{1.0, 1.0}, {2.0, 1.0}}), 1.0 / 3.0,
                1e-12);
}

TEST(BeEntropy, SpeedupClampedToZeroContribution)
{
    // Measurement noise can make ipcReal > ipcSolo; that must not
    // produce negative entropy.
    EXPECT_EQ(beEntropy({{2.0, 2.5}}), 0.0);
}

TEST(BeEntropy, ApproachesOneUnderStarvation)
{
    EXPECT_GT(beEntropy({{2.0, 0.01}}), 0.99);
}

// ----- E_S (Eq. 7) ------------------------------------------------

TEST(SystemEntropy, LinearCombination)
{
    EXPECT_NEAR(systemEntropy(0.5, 0.25, 0.8, true, true),
                0.8 * 0.5 + 0.2 * 0.25, 1e-12);
}

TEST(SystemEntropy, DegeneratesWithOneClass)
{
    // Scenario 1: only LC apps -> E_S = E_LC regardless of RI.
    EXPECT_EQ(systemEntropy(0.4, 0.9, 0.8, true, false), 0.4);
    // Scenario 2: only BE apps -> E_S = E_BE.
    EXPECT_EQ(systemEntropy(0.9, 0.3, 0.8, false, true), 0.3);
    EXPECT_EQ(systemEntropy(0.9, 0.3, 0.8, false, false), 0.0);
}

TEST(SystemEntropy, TableIiSystemRows)
{
    // 6 cores: E_LC 0.64, E_BE 0.20 -> E_S 0.55 at RI = 0.8.
    EXPECT_NEAR(systemEntropy(0.636, 0.20, 0.8, true, true), 0.55,
                0.01);
    // 7 cores: E_LC 0.23, E_BE 0.03 -> E_S 0.19.
    EXPECT_NEAR(systemEntropy(0.23, 0.03, 0.8, true, true), 0.19,
                0.01);
}

// ----- yield -------------------------------------------------------

TEST(Yield, CountsElasticallySatisfiedApps)
{
    const std::vector<LcObservation> lc{
        {1.0, 3.0, 4.0},  // satisfied
        {1.0, 4.1, 4.0},  // within the 5% elasticity
        {1.0, 8.0, 4.0},  // violated
    };
    EXPECT_NEAR(yield(lc), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(yield({}), 1.0);
}

// ----- full report -------------------------------------------------

TEST(ComputeEntropy, FullReportFields)
{
    const std::vector<LcObservation> lc{{2.77, 23.99, 4.22},
                                        {2.80, 16.54, 10.53},
                                        {1.41, 14.35, 3.98}};
    const std::vector<BeObservation> be{{2.63, 2.0}};
    const auto rep = computeEntropy(lc, be, 0.8);
    EXPECT_EQ(rep.lcDetail.size(), 3u);
    EXPECT_NEAR(rep.eLc, 0.64, 0.01);
    EXPECT_NEAR(rep.eBe, 1.0 - 1.0 / (2.63 / 2.0), 1e-9);
    EXPECT_NEAR(rep.eS, 0.8 * rep.eLc + 0.2 * rep.eBe, 1e-12);
    EXPECT_EQ(rep.yieldValue, 0.0);
    // System means mirror Table II's "System" row.
    EXPECT_NEAR(rep.meanTolerance, 0.57, 0.01);
    EXPECT_NEAR(rep.meanInterference, 0.87, 0.01);
    EXPECT_EQ(rep.meanRemainingTolerance, 0.0);
}

TEST(ComputeEntropy, ZeroBeAppsDegeneratesToLc)
{
    // A node running only LC apps: E_S must equal E_LC exactly,
    // not the RI-weighted value (which would shrink it by 20%).
    const std::vector<LcObservation> lc{{2.77, 23.99, 4.22},
                                        {2.80, 3.0, 10.53}};
    const auto rep = computeEntropy(lc, {}, 0.8);
    EXPECT_EQ(rep.eBe, 0.0);
    EXPECT_EQ(rep.eS, rep.eLc);
    EXPECT_GT(rep.eS, 0.0);
    // And the fully empty interval is all zeros with perfect yield.
    const auto empty = computeEntropy({}, {}, 0.8);
    EXPECT_EQ(empty.eLc, 0.0);
    EXPECT_EQ(empty.eBe, 0.0);
    EXPECT_EQ(empty.eS, 0.0);
    EXPECT_EQ(empty.yieldValue, 1.0);
}

TEST(ComputeEntropy, ZeroToleranceLcAppIsWellDefined)
{
    // A_i = 0: the ideal latency already sits at the threshold
    // (Eq. 1 numerator vanishes). Every derived term must stay
    // finite and in range, at ideal latency and under violation.
    const auto at_ideal = lcBreakdown({4.0, 4.0, 4.0});
    EXPECT_EQ(at_ideal.tolerance, 0.0);
    EXPECT_EQ(at_ideal.interference, 0.0);
    EXPECT_EQ(at_ideal.remainingTolerance, 0.0);
    EXPECT_EQ(at_ideal.intolerable, 0.0);

    const auto violated = lcBreakdown({4.0, 8.0, 4.0});
    EXPECT_EQ(violated.tolerance, 0.0);
    EXPECT_GT(violated.interference, 0.0);
    EXPECT_EQ(violated.remainingTolerance, 0.0);
    EXPECT_GT(violated.intolerable, 0.0);
    EXPECT_LE(violated.intolerable, 1.0);

    // A whole report over zero-tolerance apps stays in range.
    const auto rep = computeEntropy(
        {{4.0, 4.0, 4.0}, {4.0, 8.0, 4.0}}, {}, 0.8);
    EXPECT_GE(rep.eLc, 0.0);
    EXPECT_LE(rep.eLc, 1.0);
    EXPECT_EQ(rep.eS, rep.eLc);
}

// ----- required property 1: dimensionless, in [0, 1] ---------------

TEST(Properties, EntropyAlwaysInUnitInterval)
{
    ahq::stats::Rng rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<LcObservation> lc;
        std::vector<BeObservation> be;
        const int n = 1 + static_cast<int>(rng.uniformInt(5));
        const int m = static_cast<int>(rng.uniformInt(4));
        for (int i = 0; i < n; ++i) {
            const double m_i = rng.uniform(0.5, 100.0);
            const double tl0 = rng.uniform(0.01, m_i);
            const double tl1 = tl0 * rng.uniform(0.9, 50.0);
            lc.push_back({tl0, tl1, m_i});
        }
        for (int j = 0; j < m; ++j) {
            const double solo = rng.uniform(0.5, 4.0);
            be.push_back({solo, solo * rng.uniform(0.01, 1.2)});
        }
        const auto rep = computeEntropy(lc, be,
                                        rng.uniform(0.5, 1.0));
        EXPECT_GE(rep.eS, 0.0);
        EXPECT_LE(rep.eS, 1.0);
        EXPECT_GE(rep.eLc, 0.0);
        EXPECT_LE(rep.eLc, 1.0);
        EXPECT_GE(rep.eBe, 0.0);
        EXPECT_LE(rep.eBe, 1.0);
        for (const auto &b : rep.lcDetail) {
            EXPECT_GE(b.tolerance, 0.0);
            EXPECT_LE(b.tolerance, 1.0);
            EXPECT_GE(b.interference, 0.0);
            EXPECT_LE(b.interference, 1.0);
            // ReT and Q never both active (Eqs. 3-4 are exclusive).
            EXPECT_TRUE(b.remainingTolerance == 0.0 ||
                        b.intolerable == 0.0);
        }
    }
}

// ----- monotonicity properties of the per-app quantities -----------

TEST(Properties, QMonotoneInObservedLatency)
{
    // Worse observed latency never decreases Q (the analytic core of
    // required property 2: more resources -> lower TL1 -> lower Q).
    ahq::stats::Rng rng(7);
    for (int trial = 0; trial < 500; ++trial) {
        const double m = rng.uniform(1.0, 50.0);
        const double tl0 = rng.uniform(0.01, m);
        double prev_q = -1.0;
        double prev_ret = 2.0;
        for (double tl1 = tl0; tl1 < 20.0 * m; tl1 *= 1.3) {
            const auto b = lcBreakdown({tl0, tl1, m});
            EXPECT_GE(b.intolerable, prev_q);
            EXPECT_LE(b.remainingTolerance, prev_ret);
            prev_q = b.intolerable;
            prev_ret = b.remainingTolerance;
        }
    }
}

TEST(Properties, ELcMonotoneUnderUniformDegradation)
{
    ahq::stats::Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<LcObservation> base;
        for (int i = 0; i < 4; ++i) {
            const double m = rng.uniform(1.0, 20.0);
            const double tl0 = rng.uniform(0.01, m);
            base.push_back({tl0, tl0 * rng.uniform(1.0, 3.0), m});
        }
        double prev = -1.0;
        for (double scale = 1.0; scale < 10.0; scale *= 1.5) {
            auto scaled = base;
            for (auto &o : scaled)
                o.actualTailMs *= scale;
            const double e = lcEntropy(scaled);
            EXPECT_GE(e, prev - 1e-12);
            prev = e;
        }
    }
}

TEST(Properties, EBeMonotoneInSlowdown)
{
    double prev = -1.0;
    for (double slow = 1.0; slow < 50.0; slow *= 1.4) {
        const double e = beEntropy({{2.0, 2.0 / slow}, {1.0, 0.9}});
        EXPECT_GE(e, prev);
        prev = e;
    }
}

TEST(Properties, RiWeightsLcMore)
{
    // With E_LC > E_BE, raising RI raises E_S.
    double prev = -1.0;
    for (double ri = 0.5; ri <= 1.0; ri += 0.1) {
        const double es = systemEntropy(0.8, 0.2, ri, true, true);
        EXPECT_GT(es, prev);
        prev = es;
    }
}

} // namespace
