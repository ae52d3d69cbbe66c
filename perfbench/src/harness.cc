#include "harness.hh"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "obs/json.hh"

namespace ahq::perfbench
{

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

void
runRounds(double seconds, int min_rounds,
          const std::function<void(int round)> &round)
{
    const auto t0 = Clock::now();
    for (int r = 0; r < min_rounds || secondsSince(t0) < seconds; ++r)
        round(r);
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 1099511628211ULL;
    }
}

Digest &
Digest::add(double v)
{
    bytes(&v, sizeof(v));
    return *this;
}

Digest &
Digest::add(long long v)
{
    bytes(&v, sizeof(v));
    return *this;
}

Digest &
Digest::add(std::string_view s)
{
    add(static_cast<long long>(s.size()));
    bytes(s.data(), s.size());
    return *this;
}

std::string
Digest::hex() const
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h_;
    return os.str();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
Checks::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    if (failed_ < 5)
        std::cerr << "perfbench: check failed: " << what << "\n";
    ++failed_;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives exec()
    // and so would count the launching process's memory too.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

int
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
number(double v)
{
    std::string out;
    obs::json::appendNumber(out, v);
    return out;
}

void
appendMetrics(std::string &out, const std::vector<Metric> &metrics)
{
    out += '{';
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ',';
        obs::json::appendString(out, metrics[i].name);
        out += ":{\"value\":" + number(metrics[i].value) +
            ",\"unit\":";
        obs::json::appendString(out, metrics[i].unit);
        out += '}';
    }
    out += '}';
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    if (metrics.empty())
        return;
    std::cout << title << "\n";
    for (const auto &m : metrics) {
        std::cout << "  " << std::left << std::setw(40) << m.name
                  << std::right << std::setw(18)
                  << std::setprecision(6) << m.value << "  " << m.unit
                  << "\n";
    }
}

} // namespace

void
Report::metric(std::string name, double value, std::string unit)
{
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void
Report::info(std::string name, double value, std::string unit)
{
    info_.push_back({std::move(name), value, std::move(unit)});
}

void
Report::print(const Manifest &m, const Checks &checks) const
{
    std::string manifest = "{";
    const auto field = [&](const char *key, const std::string &v,
                           bool quote = true) {
        if (manifest.size() > 1)
            manifest += ',';
        obs::json::appendString(manifest, key);
        manifest += ':';
        if (quote)
            obs::json::appendString(manifest, v);
        else
            manifest += v;
    };
    field("workload", m.workload);
    field("seed", std::to_string(m.seed), false);
    field("seconds", number(m.seconds), false);
    field("trace", m.traced ? "1" : "0", false);
    field("size", m.size);
    field("git_rev", m.gitRev);
    field("src_digest", m.srcDigest);
    field("build_type", AHQ_BENCH_BUILD_TYPE);
    field("compiler", AHQ_BENCH_COMPILER);
    field("cpu_model", cpuModel());
    field("nproc", std::to_string(hostThreads()), false);
    manifest += '}';

    std::cout << "manifest " << manifest << "\n";
    std::cout << "digest " << digest_ << "\n";
    printTable(m.traced ? "per-layer metrics (traced run):"
                        : "end-to-end metrics (tracing off):",
               metrics_);
    printTable("also measured:", info_);
    const double ratio = checks.attempted() > 0
        ? static_cast<double>(checks.failed()) /
            static_cast<double>(checks.attempted())
        : 1.0;
    std::cout << "  " << std::left << std::setw(40) << "fail_ratio"
              << std::right << std::setw(18) << ratio
              << "  failed/attempted (" << checks.failed() << "/"
              << checks.attempted() << ")\n";

    std::string out = "RESULT {\"correct\":";
    out += checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                           : "false";
    out += ",\"attempted\":" + std::to_string(checks.attempted());
    out += ",\"failed\":" + std::to_string(checks.failed());
    out += ",\"metrics\":";
    appendMetrics(out, metrics_);
    out += '}';
    std::cout << out << std::endl;
}

} // namespace ahq::perfbench
