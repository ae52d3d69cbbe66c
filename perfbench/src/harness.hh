/**
 * @file
 * Shared machinery of the benchmark: the one timing and percentile
 * helper every workload uses, the result digest, the output checks
 * that feed fail_ratio, and the report printed at the end of a run.
 */

#ifndef AHQ_PERFBENCH_HARNESS_HH
#define AHQ_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ahq::perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wall seconds one call of fn takes. */
template <class F>
double
timeCall(F &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/**
 * Quantile q in [0, 1] of the samples, interpolating linearly
 * between order statistics (0 when empty).
 */
double quantile(std::vector<double> samples, double q);

/**
 * Host times of a run's ops, for the printed median and p90.
 * Throughput is taken from whole rounds instead: on a shared VM
 * (measured on a 4-vCPU Xeon guest) speed switches between a fast
 * and a ~1.6x slower mode every second or so, and a run's total
 * follows the slow share smoothly, while a median or minimum jumps
 * between the modes once that share nears its quantile.
 */
struct OpTimes
{
    std::vector<double> ms;
    double seconds = 0.0;

    void add(double s)
    {
        ms.push_back(s * 1e3);
        seconds += s;
    }

    /** Median and p90 of the samples, ms. p90 has ten samples
        beyond it once there are 100. */
    double p50Ms() const { return quantile(ms, 0.5); }
    double p90Ms() const { return quantile(ms, 0.9); }
};

/**
 * Runs round(r) for r = 0, 1, ... until `seconds` of wall time have
 * passed, finishing the round in progress, and at least min_rounds
 * times. Only whole rounds run, so every op of a round is sampled
 * equally often.
 */
void runRounds(double seconds, int min_rounds,
               const std::function<void(int round)> &round);

/** FNV-1a digest of simulated outputs, compared bit for bit. */
class Digest
{
  public:
    Digest &add(double v);
    Digest &add(long long v);
    Digest &add(std::string_view s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    void bytes(const void *p, std::size_t n);
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Bitwise equality of two doubles (NaN-safe, -0 != +0). */
bool sameBits(double a, double b);

/**
 * Output checks. An op is attempted once and fails when any of its
 * checks fails; the first few failure reasons go to stderr.
 */
class Checks
{
  public:
    /** Record one attempted op with its overall verdict. */
    void op(bool ok, const std::string &what);

    long long attempted() const { return attempted_; }
    long long failed() const { return failed_; }

  private:
    long long attempted_ = 0;
    long long failed_ = 0;
};

/** Process CPU seconds (all threads). */
double processCpuSeconds();

/** Peak resident set size of the process, MiB (0 if unknown). */
double peakRssMiB();

/** CPUs this process may run on (its affinity mask). */
int hostThreads();

/** Everything that identifies where and how a result was made. */
struct Manifest
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    std::string size;
    std::string gitRev;
    std::string srcDigest;
};

/** One named, unit-carrying measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload reports: metrics (printed in the result line),
 * informational figures (printed for people only) and the digest
 * of its simulated outputs.
 */
class Report
{
  public:
    void metric(std::string name, double value, std::string unit);
    void info(std::string name, double value, std::string unit);
    void digest(const Digest &d) { digest_ = d.hex(); }

    /** Human-readable table plus the machine-readable RESULT line
        that run.py turns into the benchmark's last line. */
    void print(const Manifest &m, const Checks &checks) const;

  private:
    std::vector<Metric> metrics_;
    std::vector<Metric> info_;
    std::string digest_;
};

} // namespace ahq::perfbench

#endif // AHQ_PERFBENCH_HARNESS_HH
