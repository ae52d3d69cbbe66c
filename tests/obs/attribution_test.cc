/**
 * @file
 * Interference attribution: ledger algebra, the conservation
 * property (per-epoch shares sum to the victim's measured R_i),
 * the headline "who is hurting my LC app" scenario, and the trace
 * byte-identity of attribution events at any thread count —
 * including under chaos fault injection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <sstream>

#include "apps/catalog.hh"
#include "check/check.hh"
#include "cluster/epoch_sim.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "fault/plan.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "obs/scope.hh"
#include "obs/trace_reader.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;

cluster::SimulationConfig
shortConfig(std::uint64_t seed)
{
    cluster::SimulationConfig c;
    c.durationSeconds = 20.0;
    c.warmupEpochs = 10;
    c.seed = seed;
    c.attribute = true;
    return c;
}

// ---- ledger algebra -------------------------------------------------

TEST(AttributionLedger, AccumulatesAndSortsRows)
{
    obs::AttributionLedger l;
    EXPECT_TRUE(l.empty());
    l.add("xapian", "stream", "bandwidth", 0.10);
    l.add("xapian", "stream", "bandwidth", 0.05);
    l.add("xapian", "moses", "ways", 0.02);
    l.add("moses", "stream", "cores", 0.30);
    EXPECT_EQ(l.size(), 3u);

    const auto rows = l.rows();
    ASSERT_EQ(rows.size(), 3u);
    // Key-sorted: (victim, culprit, resource).
    EXPECT_EQ(rows[0].victim, "moses");
    EXPECT_EQ(rows[1].victim, "xapian");
    EXPECT_EQ(rows[1].culprit, "moses");
    EXPECT_EQ(rows[2].culprit, "stream");
    EXPECT_DOUBLE_EQ(rows[2].share, 0.15);
    EXPECT_EQ(rows[2].epochs, 2);

    EXPECT_DOUBLE_EQ(l.victimTotal("xapian"), 0.17);
    EXPECT_DOUBLE_EQ(l.victimTotal("moses"), 0.30);
    EXPECT_DOUBLE_EQ(l.victimTotal("nobody"), 0.0);
    EXPECT_EQ(l.topBlame("xapian"), "stream:bandwidth");
    EXPECT_EQ(l.topBlame("moses"), "stream:cores");
    EXPECT_EQ(l.topBlame("nobody"), "");
}

TEST(AttributionLedger, MergeIsCommutative)
{
    obs::AttributionLedger a, b;
    a.add("x", "s", "bandwidth", 0.1);
    a.add("x", "m", "ways", 0.2);
    b.add("x", "s", "bandwidth", 0.3);
    b.add("y", "s", "cores", 0.4);

    obs::AttributionLedger ab, ba;
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);

    const auto ra = ab.rows(), rb = ba.rows();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].victim, rb[i].victim);
        EXPECT_EQ(ra[i].culprit, rb[i].culprit);
        EXPECT_EQ(ra[i].resource, rb[i].resource);
        EXPECT_DOUBLE_EQ(ra[i].share, rb[i].share);
        EXPECT_EQ(ra[i].epochs, rb[i].epochs);
    }
}

TEST(AttributionLedger, RealCulpritOutranksNoiseResidual)
{
    obs::AttributionLedger l;
    l.add("x", obs::kNoiseCulpritName, "other", 0.9);
    l.add("x", "stream", "bandwidth", 0.01);
    // The residual row has 90x the share but never wins over a
    // real co-runner.
    EXPECT_EQ(l.topBlame("x"), "stream:bandwidth");

    obs::AttributionLedger only_noise;
    only_noise.add("y", obs::kNoiseCulpritName, "other", 0.5);
    EXPECT_EQ(only_noise.topBlame("y"),
              std::string(obs::kNoiseCulpritName) + ":other");
}

// ---- conservation: shares sum to R_i --------------------------------

/**
 * Every attribution event's shares must sum to its r_i within 1e-9,
 * and the run's ledger totals must equal the summed per-epoch R_i.
 * Randomized colocations (seeded, so reproducible) under every
 * registered strategy, with strict invariant audits riding along.
 */
TEST(AttributionConservation, SharesSumToRiAcrossAllStrategies)
{
    const std::vector<apps::AppProfile> lc_pool = {
        apps::xapian(), apps::moses(), apps::imgDnn(),
        apps::masstree(), apps::sphinx(), apps::silo()};
    const std::vector<apps::AppProfile> be_pool = {
        apps::stream(), apps::fluidanimate(),
        apps::streamcluster()};

    std::uint64_t seed = 1000;
    for (const std::string &strategy : sched::allStrategyNames()) {
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> load(0.2, 0.8);
        const auto pick = [&](const auto &pool) {
            return pool[rng() % pool.size()];
        };
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(pick(lc_pool), load(rng)),
             cluster::lcAt(pick(lc_pool), load(rng)),
             cluster::be(pick(be_pool))});

        obs::BufferTraceSink sink;
        cluster::SimulationConfig cfg = shortConfig(seed++);
        cfg.obs.sink = &sink;
        cfg.checkMode = check::Mode::Strict;
        const auto sched = sched::makeScheduler(strategy);
        cluster::EpochSimulator sim(node, cfg);
        const auto res = sim.run(*sched);

        std::istringstream in(sink.str());
        const auto events = obs::readTrace(in);
        std::map<std::string, double> summed_ri;
        std::size_t attributed = 0;
        for (const auto &ev : events) {
            if (ev.type() != "attribution")
                continue;
            ++attributed;
            const double ri = ev.num("r_i");
            const auto shares = ev.nums("shares");
            const auto culprits = ev.strs("culprits");
            const auto resources = ev.strs("resources");
            ASSERT_EQ(shares.size(), culprits.size());
            ASSERT_EQ(shares.size(), resources.size());
            ASSERT_FALSE(shares.empty());
            double sum = 0.0;
            for (const double s : shares) {
                EXPECT_GE(s, 0.0);
                sum += s;
            }
            EXPECT_NEAR(sum, ri, 1e-9)
                << strategy << " epoch "
                << static_cast<int>(ev.num("epoch"));
            summed_ri[ev.str("app")] += ri;
        }
        // The colocations are overloaded enough that at least one
        // post-warmup epoch attributes something under every
        // strategy; if not, the test lost its teeth.
        EXPECT_GT(attributed, 0u) << strategy;

        // Ledger totals == summed per-epoch R_i per victim.
        for (const auto &[victim, total] : summed_ri) {
            EXPECT_NEAR(res.attribution.victimTotal(victim), total,
                        1e-9 * static_cast<double>(attributed + 1))
                << strategy << " " << victim;
        }
    }
}

// ---- the headline scenario ------------------------------------------

/**
 * The paper's motivating question: a cache/bandwidth-hungry
 * STREAM-like BE co-runner next to a cache-sensitive LC app. The
 * ledger must name the hog as the top culprit, with a bandwidth
 * share present in the decomposition.
 */
TEST(Attribution, StreamBeBlamedForXapianInterference)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.5),
                        cluster::be(apps::stream())});
    cluster::SimulationConfig cfg = shortConfig(42);
    const auto unmanaged = sched::makeScheduler("Unmanaged");
    cluster::EpochSimulator sim(node, cfg);
    const auto res = sim.run(*unmanaged);

    ASSERT_FALSE(res.attribution.empty());
    EXPECT_GT(res.attribution.victimTotal("xapian"), 0.0);
    EXPECT_EQ(res.attribution.topBlame("xapian").rfind("stream:", 0),
              0u)
        << res.attribution.topBlame("xapian");

    bool bandwidth_row = false;
    for (const auto &row : res.attribution.rows()) {
        if (row.victim == "xapian" && row.culprit == "stream" &&
            row.resource == "bandwidth" && row.share > 0.0)
            bandwidth_row = true;
    }
    EXPECT_TRUE(bandwidth_row);
}

/** Attribution must observe, never perturb the simulation. */
TEST(Attribution, ResultsBitwiseEqualWithAttributionOff)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.6),
                        cluster::lcAt(apps::moses(), 0.3),
                        cluster::be(apps::stream())});
    const auto run_with = [&](bool attribute, bool slo) {
        cluster::SimulationConfig cfg = shortConfig(7);
        cfg.attribute = attribute;
        cfg.slo = slo;
        const auto arq = sched::makeScheduler("ARQ");
        cluster::EpochSimulator sim(node, cfg);
        return sim.run(*arq);
    };
    const auto plain = run_with(false, false);
    const auto attributed = run_with(true, true);
    EXPECT_EQ(plain.meanES, attributed.meanES);
    EXPECT_EQ(plain.meanELc, attributed.meanELc);
    EXPECT_EQ(plain.meanEBe, attributed.meanEBe);
    EXPECT_EQ(plain.violations, attributed.violations);
    EXPECT_TRUE(plain.attribution.empty());
    EXPECT_FALSE(attributed.attribution.empty());
}

// ---- the batch counterfactual memo ---------------------------------

bool
sameBits(const perf::PerfOutcome &a, const perf::PerfOutcome &b)
{
    return std::memcmp(&a, &b, sizeof(perf::PerfOutcome)) == 0;
}

/** The canonical, Fig. 8 and Fig. 12 nodes. */
std::vector<cluster::Node>
paperNodes()
{
    const auto mc = machine::MachineConfig::xeonE52630v4();
    return {
        cluster::Node(mc, {cluster::lcAt(apps::xapian(), 0.5),
                           cluster::lcAt(apps::moses(), 0.2),
                           cluster::lcAt(apps::imgDnn(), 0.2),
                           cluster::be(apps::stream())}),
        cluster::Node(mc, {cluster::lcAt(apps::xapian(), 0.6),
                           cluster::lcAt(apps::moses(), 0.4),
                           cluster::lcAt(apps::imgDnn(), 0.4),
                           cluster::be(apps::fluidanimate())}),
        cluster::Node(mc, {cluster::lcAt(apps::moses(), 0.2),
                           cluster::lcAt(apps::xapian(), 0.2),
                           cluster::lcAt(apps::imgDnn(), 0.2),
                           cluster::lcAt(apps::sphinx(), 0.2),
                           cluster::lcAt(apps::masstree(), 0.2),
                           cluster::lcAt(apps::silo(), 0.2),
                           cluster::be(apps::fluidanimate()),
                           cluster::be(apps::streamcluster())})};
}

/**
 * Layouts every strategy produces on a node: its initial layout
 * and the layout of its last epoch after a short run.
 */
std::vector<machine::RegionLayout>
strategyLayouts(const cluster::Node &node)
{
    std::vector<machine::RegionLayout> out;
    for (const std::string &strategy : sched::allStrategyNames()) {
        const auto sched = sched::makeScheduler(strategy);
        out.push_back(sched->initialLayout(node.config(),
                                           node.staticObservations()));
        cluster::SimulationConfig cfg = shortConfig(5);
        cfg.attribute = false;
        const auto res =
            cluster::EpochSimulator(node, cfg).run(*sched);
        out.push_back(res.epochs.back().layout);
    }
    return out;
}

/**
 * Every cached drop-one outcome is bitwise what a fresh, memo-less
 * evaluation with app j's threads and arrival rate zeroed returns,
 * on the first (miss) and the repeated (hit) lookup alike.
 */
TEST(AttributionMemo, BatchOutcomesEqualFreshEvaluations)
{
    for (const cluster::Node &node : paperNodes()) {
        const auto demands = node.demandsAt(0.0);
        const std::size_t n = demands.size();
        const auto layouts = strategyLayouts(node);
        perf::ContentionTraits no_memo;
        no_memo.memoCapacity = 0;
        const perf::ContentionModel fresh(node.config(), no_memo);
        for (const auto policy : {perf::CoreSharePolicy::FairShare,
                                  perf::CoreSharePolicy::LcPriority}) {
            obs::InterferenceAttributor attributor(node.config());
            for (const auto &layout : layouts) {
                std::vector<std::vector<perf::PerfOutcome>> want(n);
                for (std::size_t j = 0; j < n; ++j) {
                    auto cf = demands;
                    cf[j].threads = 0;
                    cf[j].arrivalRate = 0.0;
                    fresh.evaluateInto(layout, cf, policy, want[j]);
                }
                for (const bool hit : {false, true}) {
                    const long long before = attributor.evaluations();
                    const auto &got = attributor.counterfactuals(
                        layout, demands, policy);
                    ASSERT_EQ(got.size(), n * n);
                    for (std::size_t j = 0; j < n; ++j)
                        for (std::size_t i = 0; i < n; ++i)
                            EXPECT_TRUE(
                                sameBits(got[j * n + i], want[j][i]))
                                << node.describe() << " drop " << j
                                << " app " << i
                                << (hit ? " hit" : " miss");
                    // A repeated lookup runs no fixed point.
                    if (hit) {
                        EXPECT_EQ(attributor.evaluations(), before);
                    }
                }
            }
        }
    }
}

cluster::SimulationResult
attributedArqRun(int epochs, int memo_capacity,
                 obs::MetricsRegistry *metrics = nullptr)
{
    cluster::SimulationConfig cfg = shortConfig(9);
    cfg.durationSeconds = epochs * cfg.epochSeconds;
    cfg.keepEpochs = false;
    cfg.contention.memoCapacity = memo_capacity;
    cfg.obs.metrics = metrics;
    const auto arq = sched::makeScheduler("ARQ");
    return cluster::EpochSimulator(paperNodes()[0], cfg).run(*arq);
}

void
expectSameLedger(const obs::AttributionLedger &a,
                 const obs::AttributionLedger &b)
{
    const auto ra = a.rows();
    const auto rb = b.rows();
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_FALSE(ra.empty());
    for (std::size_t k = 0; k < ra.size(); ++k) {
        EXPECT_EQ(ra[k].victim, rb[k].victim);
        EXPECT_EQ(ra[k].culprit, rb[k].culprit);
        EXPECT_EQ(ra[k].resource, rb[k].resource);
        EXPECT_EQ(ra[k].epochs, rb[k].epochs);
        EXPECT_EQ(std::memcmp(&ra[k].share, &rb[k].share,
                              sizeof(double)),
                  0)
            << ra[k].victim << " " << ra[k].culprit;
    }
}

/** Turning every memo off changes no ledger row or share bit. */
TEST(AttributionMemo, LedgerBitwiseEqualWithMemoOff)
{
    const auto memo =
        attributedArqRun(600, perf::ContentionTraits{}.memoCapacity);
    const auto no_memo = attributedArqRun(600, 0);
    expectSameLedger(memo.attribution, no_memo.attribution);
    EXPECT_EQ(memo.meanES, no_memo.meanES);
}

/**
 * attr.evals counts fixed points actually run: a steady run
 * repeats its inputs, so it runs far fewer than n per attributed
 * epoch, while the memo-less run pays all n and agrees bit for
 * bit.
 */
TEST(AttributionMemo, EvalsCountOnlyRealWork)
{
    obs::MetricsRegistry memo_metrics, plain_metrics;
    const auto memo = attributedArqRun(
        3600, perf::ContentionTraits{}.memoCapacity, &memo_metrics);
    const auto plain = attributedArqRun(3600, 0, &plain_metrics);
    expectSameLedger(memo.attribution, plain.attribution);

    // Memo off, every epoch with interference runs all n.
    const double n = static_cast<double>(paperNodes()[0].numApps());
    const double epochs = memo_metrics.counter("attr.epochs");
    const double all_n = plain_metrics.counter("attr.evals");
    ASSERT_GT(epochs, 3000.0);
    EXPECT_GT(all_n, 0.0);
    EXPECT_LE(all_n, n * epochs);
    EXPECT_LT(memo_metrics.counter("attr.evals") * 10.0, all_n);
}

/**
 * The run's ledger (accumulated per run, folded once) equals the
 * per-epoch fold of its own `attribution` events bit for bit, also
 * when two apps share a name and so share ledger cells.
 */
TEST(AttributionLedger, RunLedgerEqualsTheFoldOfItsEvents)
{
    cluster::Node node(machine::MachineConfig::xeonE52630v4(),
                       {cluster::lcAt(apps::xapian(), 0.6),
                        cluster::lcAt(apps::xapian(), 0.3),
                        cluster::lcAt(apps::moses(), 0.3),
                        cluster::be(apps::stream()),
                        cluster::be(apps::stream())});
    for (const char *strategy : {"ARQ", "Unmanaged"}) {
        obs::BufferTraceSink sink;
        cluster::SimulationConfig cfg = shortConfig(13);
        cfg.durationSeconds = 60.0;
        cfg.obs.sink = &sink;
        const auto sched = sched::makeScheduler(strategy);
        const auto res = cluster::EpochSimulator(node, cfg).run(*sched);

        obs::AttributionLedger folded;
        std::istringstream in(sink.str());
        obs::forEachTrace(in, [&](const obs::TraceEvent &ev, int) {
            if (ev.type() != "attribution")
                return;
            const auto culprits = ev.strs("culprits");
            const auto resources = ev.strs("resources");
            const auto shares = ev.nums("shares");
            for (std::size_t k = 0; k < shares.size(); ++k)
                folded.add(ev.str("app"), culprits[k], resources[k],
                           shares[k]);
        });
        expectSameLedger(res.attribution, folded);
    }
}

// ---- byte identity at any thread count ------------------------------

std::vector<exec::ScenarioJob>
attributedBatch(const fault::FaultPlan *faults)
{
    std::vector<exec::ScenarioJob> jobs;
    std::uint64_t seed = 21;
    for (const auto &strategy : {"ARQ", "Unmanaged", "PARTIES"}) {
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(apps::xapian(), 0.7),
             cluster::lcAt(apps::moses(), 0.3),
             cluster::be(apps::stream())});
        cluster::SimulationConfig cfg = shortConfig(seed++);
        cfg.slo = true;
        cfg.sloTraits.targetAvailability = 0.9;
        cfg.sloTraits.fastWindowEpochs = 4;
        cfg.sloTraits.slowWindowEpochs = 12;
        cfg.sloTraits.burnThreshold = 1.0;
        cfg.faults = faults;
        jobs.push_back({strategy, node, cfg,
                        std::string("attr-") + strategy});
    }
    return jobs;
}

std::string
runBatch(int threads, const std::vector<exec::ScenarioJob> &jobs)
{
    exec::ThreadPool pool(threads);
    obs::BufferTraceSink sink;
    obs::Scope scope;
    scope.sink = &sink;
    exec::ScenarioRunner runner(&pool);
    runner.setObsScope(scope);
    runner.run(jobs);
    return sink.str();
}

TEST(AttributionDeterminism, TraceBytesIdenticalAt1_4_16Threads)
{
    const auto jobs = attributedBatch(nullptr);
    const std::string t1 = runBatch(1, jobs);
    const std::string t4 = runBatch(4, jobs);
    const std::string t16 = runBatch(16, jobs);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t4);
    EXPECT_EQ(t1, t16);

    // The trace actually exercises the new event families.
    std::istringstream in(t1);
    std::size_t attributions = 0, alerts = 0;
    for (const auto &ev : obs::readTrace(in)) {
        if (ev.type() == "attribution")
            ++attributions;
        if (ev.type() == "alert_raise" ||
            ev.type() == "alert_clear")
            ++alerts;
    }
    EXPECT_GT(attributions, 0u);
    EXPECT_GT(alerts, 0u);
}

TEST(AttributionDeterminism, ChaosTraceBytesIdenticalAcrossThreads)
{
    const fault::FaultPlan plan = fault::FaultPlan::builtinChaos();
    const auto jobs = attributedBatch(&plan);
    const std::string t1 = runBatch(1, jobs);
    const std::string t16 = runBatch(16, jobs);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t16);
}

} // namespace
