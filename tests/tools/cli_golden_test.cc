/**
 * @file
 * Golden test pinning what the `ahq` verbs print. Three
 * deterministic traced runs — simulate --attribute --slo, sweep
 * --profile at --jobs 2 (trace wall clock off), experiment run —
 * are folded back by every trace-reading verb (trace, timeline,
 * profile, why, alerts, report, experiment analyze|verdict) in
 * every --format and in both flag spellings, and each invocation's
 * exit code and stdout are folded into one FNV-1a hash. `ahq help`,
 * the stdout of the simulate and experiment runs, and four `ahq
 * oracle` searches (saturated, p99 and a small machine among them)
 * are pinned the same way. Trace paths are replaced by
 * placeholders before hashing, so the hashes do not depend on the
 * temp directory.
 *
 * The expected hashes were recorded before the verbs moved onto the
 * shared front end (tools/front_end.hh); a byte any verb prints
 * differently fails here, named by its command line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli.hh"

namespace
{

using namespace ahq::cli;

/** Placeholder -> temp path of each trace (and report output). */
std::map<std::string, std::string> &
paths()
{
    static std::map<std::string, std::string> p;
    return p;
}

/** The stdout of the source runs that print no wall time. */
std::map<std::string, std::string> &
sourceOut()
{
    static std::map<std::string, std::string> o;
    return o;
}

std::string
replaceAll(std::string s, const std::string &from,
           const std::string &to)
{
    for (auto at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size()))
        s.replace(at, from.size(), to);
    return s;
}

/**
 * Run one command line with placeholders expanded; returns its
 * exit code and stdout with the paths folded back to placeholders.
 * A report written with -o appends the file's content.
 */
std::pair<int, std::string>
runCli(const std::vector<std::string> &argv)
{
    std::vector<std::string> real;
    bool wrote_out = false;
    for (const auto &a : argv) {
        std::string r = a;
        for (const auto &[ph, path] : paths()) {
            if (a.find(ph) != std::string::npos) {
                r = replaceAll(r, ph, path);
                wrote_out = wrote_out || ph == "@OUT";
            }
        }
        real.push_back(r);
    }
    std::ostringstream out, err;
    const int code = dispatch(real, out, err);
    std::string text = out.str();
    if (wrote_out) {
        std::ifstream in(paths().at("@OUT"), std::ios::binary);
        std::ostringstream file;
        file << in.rdbuf();
        text += file.str();
    }
    for (const auto &[ph, path] : paths())
        text = replaceAll(text, path, ph);
    return {code, text};
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
hashOf(int code, const std::string &out)
{
    return fnv1a(std::to_string(code) + "\n" + out);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
joined(const std::vector<std::string> &argv)
{
    std::string s;
    for (const auto &a : argv)
        s += (s.empty() ? "" : " ") + a;
    return s;
}

class CliGolden : public testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        // ctest runs these cases twice at once (tools_test and
        // cli_golden), so the files carry the process id.
        const std::string prefix = testing::TempDir() + "ahq_golden_" +
            std::to_string(::getpid()) + "_";
        for (const char *ph : {"@SIM", "@SWEEP", "@EXP", "@OUT"})
            paths()[ph] = prefix + std::string(ph + 1) + ".jsonl";
        auto source = [](const std::string &name,
                         const std::vector<std::string> &argv) {
            const auto [code, out] = runCli(argv);
            ASSERT_EQ(code, 0) << joined(argv);
            sourceOut()[name] = out;
        };
        source("simulate",
               {"simulate", "--duration", "30", "--warmup", "4",
                "--attribute", "--slo", "--trace", "@SIM",
                "xapian=0.8", "moses=0.4", "stream"});
        source("sweep", {"sweep", "--profile", "--trace", "@SWEEP",
                         "--jobs", "2", "--duration", "10",
                         "--warmup", "2", "xapian=0.5", "stream"});
        source("experiment",
               {"experiment", "run", "--design=switchback",
                "--arm-a=ARQ", "--arm-b=Unmanaged", "--nodes=2",
                "--blocks=2", "--block-epochs=4", "--resamples=50",
                "--lc=2", "--be=1", "--tenants=8", "--seed", "7",
                "--trace", "@EXP"});
    }

    static void TearDownTestSuite()
    {
        for (const auto &[ph, path] : paths())
            std::remove(path.c_str());
    }

    /** Check each command line's hash; report every mismatch. */
    static void
    expectGolden(const std::vector<std::pair<std::vector<std::string>,
                                             std::uint64_t>> &cases)
    {
        for (const auto &[argv, want] : cases) {
            const auto [code, out] = runCli(argv);
            const std::uint64_t got = hashOf(code, out);
            EXPECT_EQ(got, want)
                << joined(argv) << "\n  got " << hex(got)
                << " (exit " << code << ")\n" << out;
        }
    }
};

TEST_F(CliGolden, HelpAndSourceRuns)
{
    expectGolden({{{"help"}, 0x3d55a827613e1b60ULL}});
    EXPECT_EQ(hashOf(0, sourceOut()["simulate"]),
              0x116c770e74f75743ULL)
        << "got " << hex(hashOf(0, sourceOut()["simulate"]));
    EXPECT_EQ(hashOf(0, sourceOut()["experiment"]),
              0x6fd8f05f20afcd5aULL)
        << "got " << hex(hashOf(0, sourceOut()["experiment"]));
}

TEST_F(CliGolden, TraceAndProfile)
{
    expectGolden({
        {{"trace", "@SIM"}, 0xacd99adda9fba786ULL},
        {{"trace", "@SWEEP"}, 0xdf9626095d6d0ca1ULL},
        {{"trace", "@EXP"}, 0x2477ac27cd46f4fcULL},
        {{"profile", "@SWEEP"}, 0x91dfa95724f73794ULL},
        {{"profile", "@SIM"}, 0x07f8bc07b4ba5002ULL},
    });
}

TEST_F(CliGolden, Timeline)
{
    expectGolden({
        {{"timeline", "@SIM"}, 0x451a2535486309d2ULL},
        {{"timeline", "--format", "csv", "@SIM"}, 0x3e3837a7d4cf7a6cULL},
        {{"timeline", "--format=json", "@SIM"}, 0xb5b0cc5c477db413ULL},
        {{"timeline", "--format=text", "--width", "16", "@SIM"},
         0x9110f17064a1e2eeULL},
        {{"timeline", "--series", "e_s,e_lc", "--width=24", "@SIM"},
         0xad6d7257c739a758ULL},
        {{"timeline", "--series=e_s", "--scenario", "ARQ", "@SIM"},
         0xacc6220a24407f87ULL},
        {{"timeline", "--scenario=ARQ@50%", "@SWEEP"},
         0x2d593877c3eca140ULL},
        {{"timeline", "--scenario", "PARTIES@10%", "--format",
          "json", "@SWEEP"},
         0x7ddecf8588864017ULL},
        {{"timeline", "--scenario=nope", "@SIM"}, 0x07f8bc07b4ba5002ULL},
    });
}

TEST_F(CliGolden, Why)
{
    expectGolden({
        {{"why", "@SIM"}, 0x23f380203af599f2ULL},
        {{"why", "--format", "csv", "@SIM"}, 0xb83499d21d33b863ULL},
        {{"why", "--format=json", "@SIM"}, 0xed60c2333629955fULL},
        {{"why", "--top", "3", "@SIM"}, 0x6b6ad13b79311abdULL},
        {{"why", "--top=2", "--app", "xapian", "@SIM"},
         0xc40be46f361f789dULL},
        {{"why", "--app=moses", "--format=csv", "@SIM"},
         0xd9efbeaf5ac93fb2ULL},
        {{"why", "--scenario", "ARQ", "--format", "json", "@SIM"},
         0xed60c2333629955fULL},
        {{"why", "--scenario=nope", "@SIM"}, 0x07f8bc07b4ba5002ULL},
        {{"why", "@SWEEP"}, 0x07f8bc07b4ba5002ULL},
    });
}

TEST_F(CliGolden, Alerts)
{
    expectGolden({
        {{"alerts", "@SIM"}, 0x343d16ce2f4d49f2ULL},
        {{"alerts", "--format", "csv", "@SIM"}, 0xb9801adc942d6c4dULL},
        {{"alerts", "--format=json", "@SIM"}, 0x9d8c6427c614aa34ULL},
        {{"alerts", "--app", "xapian", "@SIM"}, 0x343d16ce2f4d49f2ULL},
        {{"alerts", "--app=moses", "--format=json", "@SIM"},
         0x07f8bc07b4ba5002ULL},
        {{"alerts", "--scenario", "ARQ", "--format", "csv", "@SIM"},
         0xb9801adc942d6c4dULL},
        {{"alerts", "--scenario=nope", "@SIM"}, 0x07f8bc07b4ba5002ULL},
        {{"alerts", "@SWEEP"}, 0x07f8bc07b4ba5002ULL},
    });
}

TEST_F(CliGolden, Report)
{
    expectGolden({
        {{"report", "@SIM"}, 0x727919ef943cf37eULL},
        {{"report", "--format", "md", "@SIM"}, 0x03aa06073f2ac695ULL},
        {{"report", "--format=json", "@SIM", "@SWEEP", "@EXP"},
         0xfd115e307941aaf1ULL},
        {{"report", "--format=md", "@SWEEP", "@EXP"},
         0xf66c41720ebfee80ULL},
        {{"report", "--format", "md", "-o", "@OUT", "@EXP"},
         0xcf7a3b867b5886b4ULL},
    });
}

TEST_F(CliGolden, ExperimentAnalyzeAndVerdict)
{
    expectGolden({
        {{"experiment", "analyze", "@EXP"}, 0x3c179781b0954d77ULL},
        {{"experiment", "analyze", "--confidence", "0.9", "@EXP"},
         0x1a8716e0aa1af79fULL},
        {{"experiment", "analyze", "--confidence=0.8",
          "--resamples=100", "@EXP"},
         0x033c862fef5f280cULL},
        {{"experiment", "analyze", "--resamples", "20", "@EXP"},
         0x16339724446c168bULL},
        {{"experiment", "verdict", "@EXP"}, 0xe72890156f60f63bULL},
        {{"experiment", "verdict", "--confidence=0.5", "@EXP"},
         0xb57a30d73b599604ULL},
        {{"experiment", "verdict", "--resamples", "30", "@EXP"},
         0xe72890156f60f63bULL},
        {{"experiment", "analyze", "@SIM"}, 0x07f8bc07b4ba5002ULL},
    });
}

TEST_F(CliGolden, Oracle)
{
    // Recorded before the oracle moved onto the simulator's tail
    // model and config; the search must print the same bytes.
    expectGolden({
        {{"oracle", "xapian=0.7", "stream"}, 0x6c1bc0fa717d5ab2ULL},
        {{"oracle", "xapian=1.5", "moses=0.9", "stream"},
         0x8c04a8e2f495e24eULL},
        {{"oracle", "--percentile", "0.99", "xapian=0.5", "moses=0.2",
          "stream"},
         0xfe9c206d74a1ec52ULL},
        {{"oracle", "--cores", "4", "--ways", "6", "--bw", "4",
          "xapian=1.2", "img-dnn=0.8", "fluidanimate"},
         0x8acf73b67e04a432ULL},
    });
}

} // namespace
