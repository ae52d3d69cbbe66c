/**
 * @file
 * Bench-side probes for the traced run. Each layer is measured
 * from outside, through its public API: a Scheduler decorator, a
 * TraceSink decorator, profile-span shares of the in-loop
 * SpanProfiler, and a replay of recorded epochs through the
 * contention model and the entropy metric.
 */

#ifndef AHQ_PERFBENCH_PROBES_HH
#define AHQ_PERFBENCH_PROBES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/epoch_sim.hh"
#include "obs/span.hh"
#include "obs/trace_sink.hh"
#include "sched/scheduler.hh"

namespace ahq::perfbench
{

/**
 * Wraps a real strategy and times initialLayout/adjust, counting
 * calls and the heap allocations made inside adjust. One instance
 * runs on one thread at a time (a node's run), so its counters need
 * no lock.
 */
class TimedScheduler : public sched::Scheduler
{
  public:
    explicit TimedScheduler(std::unique_ptr<sched::Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    perf::CoreSharePolicy corePolicy() const override
    {
        return inner_->corePolicy();
    }
    void reset() override { inner_->reset(); }
    void onActuation(bool applied) override
    {
        inner_->onActuation(applied);
    }

    machine::RegionLayout
    initialLayout(const machine::MachineConfig &config,
                  const std::vector<sched::AppObservation> &apps)
        override;

    void adjust(machine::RegionLayout &layout,
                const std::vector<sched::AppObservation> &obs,
                double now_s) override;

    std::uint64_t adjustCalls = 0;
    std::uint64_t adjustNs = 0;
    std::uint64_t adjustAllocs = 0;
    std::uint64_t layoutCalls = 0;
    std::uint64_t layoutNs = 0;

  private:
    std::unique_ptr<sched::Scheduler> inner_;
};

/** Trace sink keeping every line in one string, for the fold. */
class StringSink : public obs::TraceSink
{
  public:
    void write(std::string_view line) override;
    const std::string &data() const { return data_; }

    /** Drop the content and its buffer. */
    void release() { std::string().swap(data_); }

  private:
    std::mutex m_;
    std::string data_;
};

/**
 * Decorates a sink: counts lines and bytes per event type and times
 * the inner write.
 */
class CountingSink : public obs::TraceSink
{
  public:
    explicit CountingSink(obs::TraceSink &inner) : inner_(inner) {}

    void write(std::string_view line) override;

    struct Tally
    {
        std::uint64_t lines = 0;
        std::uint64_t bytes = 0;
    };

    std::map<std::string, Tally, std::less<>> byType;
    std::uint64_t lines = 0;
    std::uint64_t bytes = 0;
    std::uint64_t writeNs = 0;

  private:
    std::mutex m_;
    obs::TraceSink &inner_;
};

/**
 * Totals of the in-loop spans below run/epoch, summed over every
 * path that ends in the same phase sequence (the root may sit under
 * a pool or scenario span).
 */
struct EpochSplit
{
    std::uint64_t epochs = 0;
    std::uint64_t epochNs = 0;
    std::uint64_t epochAllocs = 0;
    std::uint64_t childNs = 0; ///< direct children of epoch
    std::uint64_t decideNs = 0;
    std::uint64_t measureNs = 0;
    std::uint64_t modelNs = 0;
    std::uint64_t modelCount = 0;
    std::uint64_t attributeNs = 0;
    std::uint64_t runNs = 0;

    static EpochSplit of(const obs::SpanProfiler &prof);
};

/**
 * Replays the recorded epochs of a keepEpochs run: the node's
 * demands through a fresh ContentionModel, and the recorded
 * observations through computeEntropyInto. Both must reproduce the
 * record bit for bit.
 */
struct ReplayResult
{
    bool matches = true;
    std::uint64_t evals = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoLookups = 0;
    double modelSeconds = 0.0;
    std::uint64_t entropyCalls = 0;
    double entropySeconds = 0.0;
};

ReplayResult replayEpochs(const cluster::EpochSimulator &sim,
                          const cluster::SimulationResult &res,
                          perf::CoreSharePolicy policy);

} // namespace ahq::perfbench

#endif // AHQ_PERFBENCH_PROBES_HH
