/**
 * @file
 * pfsim campaign benchmark.  One process, one worker thread,
 * one named workload:
 *
 *   pfsim_perfbench --workload sweep_1c|mix_4c|warm_1c --seed N
 *                   --seconds S --trace 0|1 --golden-dir DIR
 *                   [--store-dir DIR] [--spans-out PATH]
 *                   [--write-golden]
 *   pfsim_perfbench --selftest
 *
 * --trace 0 sets the workload up several times (setup_s is the
 * median), then repeats untraced campaign passes in a closed loop while
 * the next pass should end within S seconds of the start (at least
 * one), and reports the end-to-end metrics as medians over passes.  --trace 1 sets up once, runs one untraced and one traced
 * pass, and reports the per-layer metrics.  Every run's digest is
 * checked against the golden file for the default seed, against the
 * other passes, and (warm_1c) against the cold pass.  The last stdout
 * line is the JSON result.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "campaign.hh"
#include "digest.hh"
#include "stats/perf_report.hh"
#include "traced.hh"

namespace
{

using namespace perfbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string goldenDir;
    std::string storeDir;
    std::string spansOut;
    bool writeGolden = false;
    bool selftest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pfsim_perfbench: %s\n"
                 "usage: pfsim_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --golden-dir DIR [--store-dir DIR] "
                 "[--spans-out PATH] [--write-golden]\n"
                 "       pfsim_perfbench --selftest\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--selftest") {
            o.selftest = true;
            continue;
        }
        if (key == "--write-golden") {
            o.writeGolden = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload")
                o.workload = value;
            else if (key == "--seed")
                o.seed = std::stoull(value);
            else if (key == "--seconds")
                o.seconds = std::stod(value);
            else if (key == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (key == "--golden-dir")
                o.goldenDir = value;
            else if (key == "--store-dir")
                o.storeDir = value;
            else if (key == "--spans-out")
                o.spansOut = value;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (o.storeDir.empty())
        o.storeDir = "perfbench-store-" + std::to_string(::getpid());
    if (o.selftest)
        return o;
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("--workload must be sweep_1c, mix_4c or warm_1c");
    if (o.goldenDir.empty())
        usage("--golden-dir is required");
    return o;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Failure accounting: a run fails when it threw or failed a sanity
 * check, when its digest differs from the golden one (default seed),
 * or when it differs from @p reference (another pass, the cold pass or
 * the untraced run of the same label).
 */
class Checker
{
  public:
    Checker(Golden golden, bool use_golden)
        : golden_(std::move(golden)), useGolden_(use_golden)
    {
    }

    void
    check(const std::vector<RunOutcome> &outcomes,
          const std::vector<RunOutcome> *reference, const char *what)
    {
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const RunOutcome &out = outcomes[i];
            ++attempted;
            std::string problem;
            if (out.failed) {
                problem = "run failed";
            } else if (useGolden_ &&
                       (golden_.count(out.label) == 0 ||
                        golden_.at(out.label) != out.digest)) {
                problem = "golden mismatch";
            } else if (reference != nullptr &&
                       (i >= reference->size() ||
                        (*reference)[i].label != out.label ||
                        (*reference)[i].digest != out.digest)) {
                problem = std::string("differs from ") + what;
            }
            if (!problem.empty()) {
                ++failed;
                std::printf("FAIL %s %s: %s\n", out.label.c_str(),
                            hex(out.digest).c_str(), problem.c_str());
            }
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    Golden golden_;
    bool useGolden_;
};

void
printDigests(const std::vector<RunOutcome> &outcomes, std::size_t count)
{
    for (std::size_t i = 0; i < count && i < outcomes.size(); ++i) {
        std::printf("digest %s %s\n", outcomes[i].label.c_str(),
                    hex(outcomes[i].digest).c_str());
    }
}

using Metrics = std::vector<std::pair<std::string, std::pair<double,
                                                              std::string>>>;

void
printResult(const Checker &checker, const Metrics &metrics)
{
    for (const auto &[name, value] : metrics) {
        std::printf("metric %-30s %.6g %s\n", name.c_str(), value.first,
                    value.second.c_str());
    }
    std::printf("metric %-30s %.6g %s\n", "failed_frac",
                ratio(double(checker.failed), double(checker.attempted)),
                "frac");
    std::string json = "{\"correct\": ";
    json += checker.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checker.attempted);
    json += ", \"failed\": " + std::to_string(checker.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      metrics[i].second.first);
        json += (i == 0 ? "\"" : ", \"") + metrics[i].first +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
writeGolden(const Options &o, const std::vector<RunOutcome> &outcomes,
            std::size_t count)
{
    const std::string path = o.goldenDir + "/" + o.workload + ".txt";
    std::ofstream out(path);
    for (std::size_t i = 0; i < count; ++i)
        out << outcomes[i].label << ' ' << hex(outcomes[i].digest) << '\n';
    std::fprintf(stderr, "wrote %zu golden digests to %s\n", count,
                 path.c_str());
}

/**
 * The in-memory trace of each phase (set-up, campaign): run-level spans
 * and every run's per-boundary calls and self ns.
 */
void
writeSpans(const Options &o,
           const std::vector<std::pair<const char *, const Tracer *>> &phases)
{
    if (o.spansOut.empty())
        return;
    std::ofstream out(o.spansOut);
    out << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
        << ", \"phases\": [";
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const Tracer &t = *phases[p].second;
        out << (p == 0 ? "\n" : ",\n") << "{\"phase\": \""
            << phases[p].first << "\", \"spans\": [";
        for (std::size_t i = 0; i < t.spans.size(); ++i) {
            const SpanRecord &s = t.spans[i];
            out << (i == 0 ? "\n" : ",\n") << "  {\"run\": " << s.run
                << ", \"name\": \"" << s.name << "\", \"start_ns\": "
                << s.startNs << ", \"end_ns\": " << s.endNs << "}";
        }
        out << "], \"runs\": [";
        for (std::size_t i = 0; i < t.runs.size(); ++i) {
            const RunRecord &r = t.runs[i];
            out << (i == 0 ? "\n" : ",\n") << "  {\"run\": " << r.run
                << ", \"label\": \"" << r.label << "\"";
            for (std::size_t b = 0; b < boundaryCount; ++b) {
                out << ", \"" << boundaryNames[b] << "\": ["
                    << r.stats[b].calls << ", "
                    << std::uint64_t(double(r.stats[b].selfTicks) /
                                     ticksPerNs())
                    << "]";
            }
            out << "}";
        }
        out << "]}";
    }
    out << "\n]}\n";
}

/** End-to-end metrics: set up repeatedly, then closed-loop passes. */
int
runEndToEnd(const Options &o)
{
    const auto run_start = std::chrono::steady_clock::now();
    const bool warm = o.workload == "warm_1c";
    const int setups = warm ? 3 : 25;
    std::vector<double> setup_times;
    Plan plan;
    Golden golden;
    std::vector<RunOutcome> cold;
    for (int i = 0; i < setups; ++i) {
        const auto start = std::chrono::steady_clock::now();
        plan = makePlan(o.workload, o.seed, o.storeDir);
        golden = readGolden(o.goldenDir + "/" + o.workload + ".txt");
        validatePlan(plan);
        if (warm)
            cold = coldPass(plan);
        setup_times.push_back(secondsSince(start));
    }

    Checker checker(golden, o.seed == defaultSeed && !o.writeGolden);
    if (warm)
        checker.check(cold, nullptr, "");

    std::vector<double> pass_seconds, mips, ns_per_cycle;
    std::vector<RunOutcome> first;
    // Sampled after the first pass, so it does not depend on how many
    // passes fit in --seconds.
    double peak_rss_mb = 0.0;
    do {
        const auto start = std::chrono::steady_clock::now();
        const std::vector<RunOutcome> outcomes = runUntraced(plan);
        const double wall = secondsSince(start);

        std::uint64_t instructions = 0, cycles = 0;
        for (const RunOutcome &out : outcomes) {
            instructions += out.instructions;
            cycles += out.cycles;
        }
        pass_seconds.push_back(wall);
        mips.push_back(ratio(double(instructions), wall * 1e6));
        ns_per_cycle.push_back(ratio(wall * 1e9, double(cycles)));
        std::fprintf(stderr, "perfbench: pass %zu: %.3f s, %.3f MIPS\n",
                     pass_seconds.size(), wall, mips.back());

        if (first.empty()) {
            peak_rss_mb =
                double(pfsim::stats::currentPeakRssKb()) / 1024.0;
            first = outcomes;
            printDigests(first, plan.runs.size());
            // Warm passes must reproduce the cold pass's statistics.
            std::vector<RunOutcome> cold_ref;
            for (std::size_t i = 0; warm && i < outcomes.size(); ++i)
                cold_ref.push_back(cold[i % cold.size()]);
            checker.check(outcomes, warm ? &cold_ref : nullptr,
                          "the cold pass");
        } else {
            checker.check(outcomes, &first, "the first pass");
        }
    } while (secondsSince(run_start) + pass_seconds.back() <= o.seconds);

    if (o.writeGolden)
        writeGolden(o, first, plan.runs.size());
    if (warm)
        std::filesystem::remove_all(o.storeDir);

    std::printf("perfbench: %s seed=%llu passes=%zu runs/pass=%zu\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                pass_seconds.size(), first.size());
    printResult(checker,
                {{"campaign_s", {median(pass_seconds), "s"}},
                 {"sim_mips", {median(mips), "MIPS"}},
                 {"host_ns_per_cycle", {median(ns_per_cycle), "ns"}},
                 {"setup_s", {median(setup_times), "s"}},
                 {"peak_rss_mb", {peak_rss_mb, "MB"}}});
    return 0;
}

/** Per-layer metrics: one untraced and one traced pass. */
int
runTracedMetrics(const Options &o)
{
    const bool warm = o.workload == "warm_1c";
    const Plan plan = makePlan(o.workload, o.seed, o.storeDir);
    validatePlan(plan);
    Checker checker(readGolden(o.goldenDir + "/" + o.workload + ".txt"),
                    o.seed == defaultSeed);

    Tracer setup_tracer;
    SimCounters setup_counters;
    std::vector<RunOutcome> cold;
    if (warm) {
        cold = coldPassTraced(plan, setup_tracer, setup_counters);
        checker.check(cold, nullptr, "");
    }

    auto start = std::chrono::steady_clock::now();
    const std::vector<RunOutcome> untraced = runUntraced(plan);
    const double untraced_s = secondsSince(start);

    Tracer tracer;
    SimCounters c;
    start = std::chrono::steady_clock::now();
    const std::uint64_t start_ticks = ticks();
    const std::vector<RunOutcome> traced = runTraced(plan, tracer, c);
    const double traced_ticks = double(ticks() - start_ticks);
    const double traced_s = secondsSince(start);

    printDigests(traced, plan.runs.size());
    checker.check(untraced, nullptr, "");
    checker.check(traced, &untraced, "the untraced run");
    if (warm)
        std::filesystem::remove_all(o.storeDir);
    writeSpans(o, {{"setup", &setup_tracer}, {"campaign", &tracer}});

    auto self = [&tracer](Boundary b) { return tracer.selfNs(b); };
    auto calls = [&tracer](Boundary b) { return double(tracer[b].calls); };
    auto per_call_ms = [](const Tracer &t, Boundary b) {
        return ratio(t.selfNs(b), double(t[b].calls)) / 1e6;
    };
    double accounted = 0.0;
    for (const BoundaryStat &s : tracer.stats)
        accounted += double(s.selfTicks);

    const double instr = double(c.instructions);
    const double kinstr = instr / 1000.0;
    const double measured_kinstr = double(c.coreInstructions) / 1000.0;
    const double cycles = double(c.cycles);
    const double candidates = double(c.ppfCandidates);
    const SimCounters &images = c.images > 0 ? c : setup_counters;
    using B = Boundary;

    std::printf("perfbench: %s seed=%llu traced %.3f s, untraced %.3f s, "
                "runs=%zu\n",
                o.workload.c_str(), (unsigned long long)o.seed, traced_s,
                untraced_s, traced.size());
    printResult(
        checker,
        {{"trace.ns_per_instr",
          {ratio(self(B::TraceNext) + self(B::TraceBuild), instr), "ns"}},
         {"prefetch.ns_per_instr",
          {ratio(self(B::Operate) + self(B::Fill), instr), "ns"}},
         {"prefetch.operate_ns_per_call",
          {ratio(self(B::Operate), calls(B::Operate)), "ns"}},
         {"prefetch.fill_ns_per_call",
          {ratio(self(B::Fill), calls(B::Fill)), "ns"}},
         {"prefetch.operate_pki",
          {ratio(calls(B::Operate), kinstr), "count"}},
         {"prefetch.accuracy",
          {std::min(1.0, ratio(double(c.pfUseful), double(c.pfIssued))),
           "frac"}},
         {"ppf.candidates_pki", {ratio(candidates, kinstr), "count"}},
         {"ppf.accept_l2_frac",
          {ratio(double(c.ppfAcceptL2), candidates), "frac"}},
         {"ppf.accept_llc_frac",
          {ratio(double(c.ppfAcceptLlc), candidates), "frac"}},
         {"ppf.drop_frac",
          {ratio(double(c.ppfRejected), candidates), "frac"}},
         {"cache.pf_issue_ns_per_call",
          {ratio(self(B::Issue), calls(B::Issue)), "ns"}},
         {"cache.pf_issue_pki", {ratio(calls(B::Issue), kinstr), "count"}},
         {"cache.pf_accept_frac",
          {ratio(double(tracer.issueAccepted), calls(B::Issue)),
           "frac"}},
         {"cache.l1d_mpki",
          {ratio(double(c.l1dMisses), measured_kinstr), "count"}},
         {"cache.l2_mpki",
          {ratio(double(c.l2Misses), measured_kinstr), "count"}},
         {"cache.llc_mpki",
          {ratio(double(c.llcMisses), measured_kinstr), "count"}},
         {"cache.ticks_per_cycle",
          {ratio(double(c.cacheTicks), cycles), "count"}},
         {"cpu.ipc",
          {ratio(double(c.coreInstructions), double(c.coreCycles)),
           "count"}},
         {"cpu.rob_full_frac",
          {ratio(double(c.robFullStalls), double(c.coreCycles)), "frac"}},
         {"cpu.branch_mpki",
          {ratio(double(c.mispredicts), measured_kinstr), "count"}},
         {"cpu.ticks_per_cycle",
          {ratio(double(c.coreTicks), cycles), "count"}},
         {"dram.reads_pki",
          {ratio(double(c.dramReads), measured_kinstr), "count"}},
         {"dram.row_hit_frac",
          {ratio(double(c.rowHits), double(c.rowAccesses)), "frac"}},
         {"dram.read_latency_cycles",
          {ratio(double(c.readLatencySum), double(c.dramReads)),
           "cycles"}},
         {"dram.ticks_per_cycle",
          {ratio(double(c.dramTicks), cycles), "count"}},
         {"sim.kernel_self_ns_per_instr",
          {ratio(self(B::Simulate), instr), "ns"}},
         {"sim.skipped_cycle_frac",
          {ratio(double(c.skippedCycles), cycles), "frac"}},
         {"sim.build_ms", {per_call_ms(tracer, B::Build), "ms"}},
         {"snapshot.load_ms", {per_call_ms(tracer, B::Load), "ms"}},
         {"snapshot.restore_ms", {per_call_ms(tracer, B::Restore), "ms"}},
         {"snapshot.save_ms", {per_call_ms(setup_tracer, B::Save), "ms"}},
         {"snapshot.publish_ms",
          {per_call_ms(setup_tracer, B::Publish), "ms"}},
         {"snapshot.image_kb",
          {ratio(double(images.imageBytes), double(images.images)) /
               1024.0,
           "KiB"}},
         {"bench.accounted_frac", {ratio(accounted, traced_ticks), "frac"}},
         {"bench.trace_overhead_frac",
          {ratio(traced_s, untraced_s) - 1.0, "frac"}},
         {"bench.scope_ns", {scopeCostNs(), "ns"}}});
    return 0;
}

/**
 * Decorator fidelity: one short run of each workload kind, untraced
 * and traced; every digest must agree (and, for warm runs, match the
 * cold pass that published the image).
 */
int
selftest(const std::string &store)
{
    int mismatches = 0;
    auto compare = [&](const std::vector<RunOutcome> &a,
                       const std::vector<RunOutcome> &b, const char *what) {
        bool ok = a.size() == b.size() && !a.empty();
        for (std::size_t i = 0; ok && i < a.size(); ++i) {
            ok = !a[i].failed && !b[i].failed && a[i].label == b[i].label &&
                a[i].digest == b[i].digest;
        }
        std::printf("%-4s %s\n", ok ? "ok" : "FAIL", what);
        mismatches += ok ? 0 : 1;
    };

    for (const std::string &name : workloadNames()) {
        const Plan plan = makePlan(name, defaultSeed, store, true);
        Tracer tracer;
        SimCounters counters;
        std::vector<RunOutcome> cold_untraced, cold_traced;
        if (plan.kind == Kind::Warm) {
            cold_untraced = coldPass(plan);
            cold_traced = coldPassTraced(plan, tracer, counters);
            compare(cold_untraced, cold_traced,
                    (name + " cold: traced == untraced").c_str());
        }
        const auto untraced = runUntraced(plan);
        const auto traced = runTraced(plan, tracer, counters);
        compare(untraced, traced, (name + ": traced == untraced").c_str());
        if (plan.kind == Kind::Warm)
            compare(cold_untraced, untraced, (name + ": warm == cold").c_str());
    }
    std::filesystem::remove_all(store);
    return mismatches == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    if (o.selftest)
        return selftest(o.storeDir);
    return o.trace ? runTracedMetrics(o) : runEndToEnd(o);
}
