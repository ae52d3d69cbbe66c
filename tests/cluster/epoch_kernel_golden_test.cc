/**
 * @file
 * Golden test pinning the epoch kernel across commits: every opt-in
 * seam (faults + strict audit, attribution + SLO + series + full
 * tracing, trace sampling, policy switchback) is run on the
 * canonical node for 240 epochs and every simulated output is
 * folded into one FNV-1a hash per case. The expected hashes were
 * recorded from the kernel before it was split into named steps; a
 * change to any E_S bit, ledger row, alert tally, series point or
 * trace byte shows up here. The three Observed hashes were
 * re-recorded when `attr.evals` became the count of counterfactual
 * fixed points actually run (memo hits no longer count): that
 * counter line is the only output that moved.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>

#include "apps/catalog.hh"
#include "cluster/epoch_sim.hh"
#include "fault/plan.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace_sink.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;
using namespace ahq::cluster;

/** FNV-1a over every byte folded in. */
class Hash
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void num(double v) { bytes(&v, sizeof v); }
    void integer(long long v) { bytes(&v, sizeof v); }
    void str(std::string_view s)
    {
        integer(static_cast<long long>(s.size()));
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The paper's canonical 3-LC + stream colocation. */
Node
canonicalNode()
{
    return Node(machine::MachineConfig::xeonE52630v4(),
                {lcAt(apps::xapian(), 0.5), lcAt(apps::moses(), 0.2),
                 lcAt(apps::imgDnn(), 0.2), be(apps::stream())});
}

SimulationConfig
baseConfig()
{
    SimulationConfig c;
    // 240 epochs: ARQ's 60 s ban expires inside the run.
    c.durationSeconds = 120.0;
    c.warmupEpochs = 20;
    c.seed = 11;
    c.checkMode = check::Mode::Off;
    return c;
}

/** The observability sinks of one run, hashed after it. */
struct Sinks
{
    obs::BufferTraceSink trace;
    obs::TimeSeriesRegistry series;
    obs::MetricsRegistry metrics;

    void attach(SimulationConfig &c, bool with_series)
    {
        c.obs.sink = &trace;
        c.obs.metrics = &metrics;
        c.obs.scenario = "golden";
        if (with_series)
            c.obs.series = &series;
    }
};

std::uint64_t
hashRun(const SimulationResult &r, const Sinks &s)
{
    Hash h;
    h.integer(static_cast<long long>(r.epochs.size()));
    for (const auto &rec : r.epochs) {
        h.num(rec.entropy.eS);
        h.num(rec.entropy.eLc);
        h.num(rec.entropy.eBe);
        h.integer(rec.policyArm);
        for (const auto &o : rec.obs) {
            h.num(o.p95Ms);
            h.num(o.ipc);
        }
        for (double b : rec.queueBacklog)
            h.num(b);
    }
    h.integer(r.warmupEpochs);
    h.num(r.meanES);
    h.num(r.meanELc);
    h.num(r.meanEBe);
    h.num(r.yieldValue);
    h.integer(r.violations);
    for (double v : r.meanP95Ms)
        h.num(v);
    for (double v : r.meanIpc)
        h.num(v);
    for (double v : r.steadyMeanLoad)
        h.num(v);
    for (const auto &row : r.attribution.rows()) {
        h.str(row.victim);
        h.str(row.culprit);
        h.str(row.resource);
        h.num(row.share);
        h.integer(row.epochs);
    }
    h.integer(r.slo.raises);
    h.integer(r.slo.clears);
    h.integer(r.slo.activeAtEnd);
    h.integer(r.slo.alertEpochs);
    h.num(r.slo.worstBurn);

    obs::BufferTraceSink series_out;
    obs::Scope flush_scope;
    flush_scope.sink = &series_out;
    s.series.flush(flush_scope);
    h.str(series_out.str());
    h.str(s.trace.str());
    std::ostringstream metrics;
    s.metrics.print(metrics);
    h.str(metrics.str());
    return h.value();
}

enum class Case { Plain, Chaos, Observed, Sampled };

std::uint64_t
runCase(Case which, const std::string &strategy)
{
    const fault::FaultPlan chaos = fault::FaultPlan::builtinChaos();
    SimulationConfig c = baseConfig();
    Sinks s;
    switch (which) {
    case Case::Plain:
        c.keepEpochs = false;
        break;
    case Case::Chaos:
        c.checkMode = check::Mode::Strict;
        c.faults = &chaos;
        s.attach(c, false);
        break;
    case Case::Observed:
        c.attribute = true;
        c.slo = true;
        s.attach(c, true);
        break;
    case Case::Sampled:
        c.traceSampleRate = 0.3;
        s.attach(c, true);
        break;
    }
    const auto sched = sched::makeScheduler(strategy);
    const auto res = EpochSimulator(canonicalNode(), c).run(*sched);
    // Each case must actually exercise the seams it names.
    const std::string trace = s.trace.str();
    EXPECT_EQ(trace.empty(), which == Case::Plain);
    if (which == Case::Chaos) {
        EXPECT_NE(trace.find("\"type\":\"fault\""),
                  std::string::npos);
    }
    if (which == Case::Observed) {
        EXPECT_FALSE(res.attribution.rows().empty());
    }
    return hashRun(res, s);
}

struct Golden
{
    Case which;
    const char *strategy;
    std::uint64_t hash;
};

TEST(EpochKernelGolden, EveryCaseMatchesTheRecordedHash)
{
    const Golden cases[] = {
        {Case::Plain, "ARQ", 0xeea5b86f17472c23ULL},
        {Case::Plain, "PARTIES", 0x00aca028cb7922c0ULL},
        {Case::Plain, "CLITE", 0x1614318285e1b875ULL},
        {Case::Chaos, "ARQ", 0x7eb109eb567640d9ULL},
        {Case::Chaos, "PARTIES", 0x4535558c20db20e0ULL},
        {Case::Chaos, "CLITE", 0x44284105e40b85fdULL},
        {Case::Observed, "ARQ", 0x780af86af6ade008ULL},
        {Case::Observed, "PARTIES", 0x7a9ba388b2797046ULL},
        {Case::Observed, "CLITE", 0x65242bdb7220152bULL},
        {Case::Sampled, "ARQ", 0x07e985d59f66309fULL},
        {Case::Sampled, "PARTIES", 0x69db6391fcfa655cULL},
        {Case::Sampled, "CLITE", 0xb67ca98bea0c9c3bULL},
    };
    for (const auto &g : cases) {
        EXPECT_EQ(runCase(g.which, g.strategy), g.hash)
            << "case " << static_cast<int>(g.which) << " "
            << g.strategy;
    }
}

TEST(EpochKernelGolden, SwitchbackMatchesTheRecordedHash)
{
    SimulationConfig c = baseConfig();
    Sinks s;
    s.attach(c, true);
    const auto arq = sched::makeScheduler("ARQ");
    const auto parties = sched::makeScheduler("PARTIES");
    PolicySchedule schedule;
    schedule.blockEpochs = 40;
    schedule.blockArm = {0, 1, 1, 0, 1, 0};
    const auto res = EpochSimulator(canonicalNode(), c)
                         .runSwitched({arq.get(), parties.get()},
                                      schedule);
    EXPECT_EQ(hashRun(res, s), 0x8875de4a645462b2ULL);
}

TEST(EpochKernelGolden, RunEqualsSingleArmSwitchedRun)
{
    for (const char *strategy : {"ARQ", "PARTIES", "CLITE"}) {
        std::uint64_t hashes[2];
        for (int k = 0; k < 2; ++k) {
            SimulationConfig c = baseConfig();
            c.attribute = true;
            c.slo = true;
            Sinks s;
            s.attach(c, true);
            const auto sched = sched::makeScheduler(strategy);
            const EpochSimulator sim(canonicalNode(), c);
            const auto res = k == 0
                ? sim.run(*sched)
                : sim.runSwitched({sched.get()}, {});
            hashes[k] = hashRun(res, s);
        }
        EXPECT_EQ(hashes[0], hashes[1]) << strategy;
    }
}

} // namespace
