#include "probes.hh"

#include "core/entropy.hh"
#include "harness.hh"
#include "obs/alloc.hh"
#include "perf/contention.hh"

namespace ahq::perfbench
{

namespace
{

std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

/** The span path from its "run" root on ("" when not under one). */
std::string_view
runPath(std::string_view path)
{
    if (path.rfind("run", 0) == 0 &&
        (path.size() == 3 || path[3] == '/'))
        return path;
    const auto at = path.find("/run/");
    if (at != std::string_view::npos)
        return path.substr(at + 1);
    if (path.size() > 4 && path.substr(path.size() - 4) == "/run")
        return path.substr(path.size() - 3);
    return {};
}

bool
sameOutcome(const perf::PerfOutcome &a, const perf::PerfOutcome &b)
{
    return sameBits(a.coreEquivalents, b.coreEquivalents) &&
        sameBits(a.effectiveWays, b.effectiveWays) &&
        sameBits(a.bwDilation, b.bwDilation) &&
        sameBits(a.speed, b.speed) &&
        sameBits(a.serviceStretch, b.serviceStretch) &&
        sameBits(a.perServerRate, b.perServerRate) &&
        sameBits(a.serviceRate, b.serviceRate) &&
        sameBits(a.utilization, b.utilization) &&
        sameBits(a.ipc, b.ipc) &&
        sameBits(a.bwDemandGibps, b.bwDemandGibps);
}

bool
sameEntropy(const core::EntropyReport &a, const core::EntropyReport &b)
{
    if (a.lcDetail.size() != b.lcDetail.size())
        return false;
    for (std::size_t i = 0; i < a.lcDetail.size(); ++i) {
        const auto &x = a.lcDetail[i];
        const auto &y = b.lcDetail[i];
        if (!sameBits(x.tolerance, y.tolerance) ||
            !sameBits(x.interference, y.interference) ||
            !sameBits(x.remainingTolerance, y.remainingTolerance) ||
            !sameBits(x.intolerable, y.intolerable))
            return false;
    }
    return sameBits(a.eLc, b.eLc) && sameBits(a.eBe, b.eBe) &&
        sameBits(a.eS, b.eS) && sameBits(a.yieldValue, b.yieldValue) &&
        sameBits(a.meanTolerance, b.meanTolerance) &&
        sameBits(a.meanInterference, b.meanInterference) &&
        sameBits(a.meanRemainingTolerance, b.meanRemainingTolerance);
}

} // namespace

machine::RegionLayout
TimedScheduler::initialLayout(
    const machine::MachineConfig &config,
    const std::vector<sched::AppObservation> &apps)
{
    inner_->setObsScope(obsScope());
    const auto t0 = Clock::now();
    auto layout = inner_->initialLayout(config, apps);
    layoutNs += nsSince(t0);
    ++layoutCalls;
    return layout;
}

void
TimedScheduler::adjust(machine::RegionLayout &layout,
                       const std::vector<sched::AppObservation> &obs,
                       double now_s)
{
    // The simulator re-points the decorator's scope every traced
    // epoch; the wrapped strategy must report into the same one.
    inner_->setObsScope(obsScope());
    const std::uint64_t a0 = obs::threadAllocCount();
    const auto t0 = Clock::now();
    inner_->adjust(layout, obs, now_s);
    adjustNs += nsSince(t0);
    adjustAllocs += obs::threadAllocCount() - a0;
    ++adjustCalls;
}

void
StringSink::write(std::string_view line)
{
    std::lock_guard<std::mutex> lock(m_);
    data_.append(line);
    data_.push_back('\n');
}

void
CountingSink::write(std::string_view line)
{
    // Every event line starts {"v":N,"type":"<type>", ...
    std::string_view type;
    const auto at = line.find("\"type\":\"");
    if (at != std::string_view::npos) {
        const auto start = at + 8;
        const auto end = line.find('"', start);
        if (end != std::string_view::npos)
            type = line.substr(start, end - start);
    }
    const auto t0 = Clock::now();
    inner_.write(line);
    const std::uint64_t ns = nsSince(t0);

    std::lock_guard<std::mutex> lock(m_);
    writeNs += ns;
    ++lines;
    bytes += line.size() + 1;
    auto it = byType.find(type);
    if (it == byType.end())
        it = byType.emplace(std::string(type), Tally{}).first;
    ++it->second.lines;
    it->second.bytes += line.size() + 1;
}

EpochSplit
EpochSplit::of(const obs::SpanProfiler &prof)
{
    EpochSplit s;
    for (const auto &[full, st] : prof.snapshot()) {
        const std::string_view p = runPath(full);
        if (p.empty())
            continue;
        if (p == "run") {
            s.runNs += st.totalNs;
        } else if (p == "run/epoch") {
            s.epochs += st.count;
            s.epochNs += st.totalNs;
            s.epochAllocs += st.allocs;
        } else if (p.rfind("run/epoch/", 0) == 0 &&
                   p.find('/', 10) == std::string_view::npos) {
            s.childNs += st.totalNs;
            if (p == "run/epoch/decide")
                s.decideNs += st.totalNs;
            else if (p == "run/epoch/measure")
                s.measureNs += st.totalNs;
            else if (p == "run/epoch/attribute")
                s.attributeNs += st.totalNs;
        } else if (p == "run/epoch/measure/model") {
            s.modelNs += st.totalNs;
            s.modelCount += st.count;
        }
    }
    return s;
}

ReplayResult
replayEpochs(const cluster::EpochSimulator &sim,
             const cluster::SimulationResult &res,
             perf::CoreSharePolicy policy)
{
    ReplayResult out;
    const auto &node = sim.node();
    const auto &cfg = sim.config();
    const std::size_t n = res.epochs.size();

    // Inputs are built first so that only the calls are timed.
    std::vector<std::vector<perf::AppDemand>> demands(n);
    std::vector<std::vector<core::LcObservation>> lc(n);
    std::vector<std::vector<core::BeObservation>> be(n);
    for (std::size_t e = 0; e < n; ++e) {
        const auto &rec = res.epochs[e];
        node.demandsAt(rec.time, demands[e]);
        for (const auto &o : rec.obs) {
            if (o.latencyCritical)
                lc[e].push_back({o.idealP95Ms, o.p95Ms, o.thresholdMs});
            else
                be[e].push_back({o.ipcSolo, o.ipc});
        }
    }

    perf::ContentionModel model(node.config(), cfg.contention);
    std::vector<std::vector<perf::PerfOutcome>> outcomes(n);
    out.modelSeconds = timeCall([&] {
        for (std::size_t e = 0; e < n; ++e)
            model.evaluateInto(res.epochs[e].layout, demands[e], policy,
                               outcomes[e]);
    });
    out.evals = n;
    out.memoHits = model.memoHits();
    out.memoLookups = model.memoHits() + model.memoMisses();

    std::vector<core::EntropyReport> reports(n);
    out.entropySeconds = timeCall([&] {
        for (std::size_t e = 0; e < n; ++e)
            core::computeEntropyInto(lc[e], be[e], cfg.ri, reports[e]);
    });
    out.entropyCalls = n;

    for (std::size_t e = 0; e < n && out.matches; ++e) {
        const auto &rec = res.epochs[e];
        bool ok = outcomes[e].size() == rec.outcomes.size() &&
            sameEntropy(reports[e], rec.entropy);
        for (std::size_t i = 0; ok && i < rec.outcomes.size(); ++i)
            ok = sameOutcome(outcomes[e][i], rec.outcomes[i]);
        out.matches = ok;
    }
    return out;
}

} // namespace ahq::perfbench
