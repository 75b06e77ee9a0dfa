#include "campaign.hh"

#include <exception>
#include <filesystem>
#include <memory>

#include "digest.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"

namespace perfbench
{

namespace pw = pfsim::workloads;
namespace ps = pfsim::sim;

namespace
{

/** Times each pool workload appears across the drawn mixes. */
constexpr unsigned mixRounds = 4;

/** Warm passes over the pool per warm campaign pass. */
constexpr unsigned warmPassCount = 10;

/** Measured instructions of one warm run. */
constexpr pfsim::InstrCount warmMeasured = 50000;

/** Per-run host watchdog (a run takes well under a second). */
constexpr double watchdogSeconds = 60.0;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * @p workload with its trace seed moved by @p seed.  The default seed
 * keeps the registry's trace, so sweep_1c is then exactly fig09
 * --subset.
 */
pw::Workload
seeded(const pw::Workload &workload, std::uint64_t seed)
{
    if (seed == defaultSeed)
        return workload;
    pw::Workload copy = workload;
    copy.make = [make = workload.make, seed] {
        pfsim::trace::SyntheticConfig config = make();
        config.seed = splitmix(config.seed ^ splitmix(seed));
        return config;
    };
    return copy;
}

std::vector<pw::Workload>
seededPool(std::uint64_t seed)
{
    std::vector<pw::Workload> pool;
    for (const pw::Workload &w : pw::memIntensiveSubset(pw::spec17Suite()))
        pool.push_back(seeded(w, seed));
    return pool;
}

/**
 * Balanced 4-core mixes: @p rounds seeded shuffles of @p pool laid end
 * to end and cut into groups of four, so every workload runs on
 * exactly @p rounds cores whatever the seed and only the grouping
 * changes.  (Independent draws let the seed change the campaign's
 * composition, and with it the campaign's cost.)
 */
std::vector<pw::Mix>
balancedMixes(const std::vector<pw::Workload> &pool, unsigned rounds,
              std::uint64_t seed)
{
    std::vector<pw::Workload> slots;
    std::uint64_t state = splitmix(seed);
    for (unsigned r = 0; r < rounds; ++r) {
        std::vector<pw::Workload> round = pool;
        for (std::size_t i = round.size(); i > 1; --i) {
            state = splitmix(state);
            std::swap(round[i - 1], round[state % i]);
        }
        slots.insert(slots.end(), round.begin(), round.end());
    }
    std::vector<pw::Mix> mixes;
    for (auto it = slots.begin(); slots.end() - it >= 4; it += 4)
        mixes.push_back({it, it + 4});
    return mixes;
}

std::string
mixLabel(std::size_t index, const pw::Mix &mix)
{
    std::string label = "mix" + std::to_string(index) + ":";
    for (std::size_t i = 0; i < mix.size(); ++i)
        label += (i == 0 ? "" : "+") + mix[i].name;
    return label;
}

std::vector<std::string>
withNone(const std::vector<std::string> &prefetchers)
{
    std::vector<std::string> all = {"none"};
    all.insert(all.end(), prefetchers.begin(), prefetchers.end());
    return all;
}

std::vector<RunOutcome>
failedPass(const Plan &plan, const std::exception &err)
{
    pfsim::warn(plan.name + ": campaign pass failed: " + err.what());
    std::vector<RunOutcome> outcomes;
    for (const RunSpec &spec : plan.runs)
        outcomes.push_back({spec.label, 0, 0, 0, true});
    return outcomes;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep_1c", "mix_4c",
                                                   "warm_1c"};
    return names;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed,
         const std::string &store_dir, bool short_runs)
{
    Plan plan;
    plan.name = workload;
    plan.run.jobs = 1;
    plan.run.hostTimeoutSeconds = watchdogSeconds;
    plan.pool = seededPool(seed);
    if (short_runs)
        plan.pool.resize(1);

    if (workload == "sweep_1c") {
        // fig09 --subset: the paper line-up at fig09's default lengths.
        plan.kind = Kind::Sweep;
        plan.base = ps::SystemConfig::defaultConfig();
        plan.prefetchers = ps::paperPrefetchers();
        plan.run.warmupInstructions = short_runs ? 20000 : 250000;
        plan.run.simInstructions = short_runs ? 40000 : 1000000;
        for (const pw::Workload &w : plan.pool) {
            for (const std::string &pf : withNone(plan.prefetchers))
                plan.runs.push_back({w.name + "/" + pf, pf, {w}});
        }
    } else if (workload == "mix_4c") {
        // Half fig11's per-core lengths (every balanced mix runs as long
        // as its slowest core); balanced seeded mixes plus mcf_x4.
        plan.kind = Kind::Mix;
        plan.base = ps::SystemConfig::defaultConfig(4);
        plan.prefetchers = {"spp_ppf"};
        plan.run.warmupInstructions = short_runs ? 10000 : 50000;
        plan.run.simInstructions = short_runs ? 20000 : 200000;
        if (!short_runs)
            plan.mixes = balancedMixes(plan.pool, mixRounds, seed);
        const pw::Workload mcf =
            seeded(pw::findWorkload("605.mcf_s-like"), seed);
        plan.mixes.push_back({mcf, mcf, mcf, mcf});
        for (std::size_t m = 0; m < plan.mixes.size(); ++m) {
            for (const std::string &pf : withNone(plan.prefetchers)) {
                plan.runs.push_back({mixLabel(m, plan.mixes[m]) + "/" + pf,
                                     pf, plan.mixes[m]});
            }
        }
    } else if (workload == "warm_1c") {
        // fig09 warmups restored from a store; short measured regions.
        plan.kind = Kind::Warm;
        plan.base = ps::SystemConfig::defaultConfig();
        plan.prefetchers = {"spp_ppf"};
        plan.run.warmupInstructions = short_runs ? 20000 : 250000;
        plan.run.simInstructions = short_runs ? 10000 : warmMeasured;
        plan.run.checkpointDir = store_dir;
        plan.warmPasses = short_runs ? 1 : warmPassCount;
        for (const pw::Workload &w : plan.pool) {
            for (const std::string &pf : withNone(plan.prefetchers))
                plan.runs.push_back({w.name + "/" + pf, pf, {w}});
        }
    } else {
        pfsim::fatal("unknown workload '" + workload +
                     "' (want sweep_1c, mix_4c or warm_1c)");
    }
    return plan;
}

void
validatePlan(const Plan &plan)
{
    // One trace at a time: no more memory live at once than in a run.
    for (const pw::Workload &w : plan.pool)
        pfsim::trace::SyntheticTrace trace(w.make());

    std::vector<std::unique_ptr<pfsim::trace::SyntheticTrace>> traces;
    std::vector<pfsim::trace::TraceSource *> sources;
    for (unsigned i = 0; i < plan.base.cores; ++i) {
        traces.push_back(std::make_unique<pfsim::trace::SyntheticTrace>(
            plan.pool[i % plan.pool.size()].make()));
        sources.push_back(traces.back().get());
    }
    for (const std::string &pf : withNone(plan.prefetchers))
        ps::System system(plan.base.withPrefetcher(pf), sources);
}

RunOutcome
singleOutcome(const std::string &label, const ps::RunResult &result,
              const ps::RunConfig &run)
{
    RunOutcome out;
    out.label = label;
    out.digest = digestRun(result);
    // RunThroughput counts the warmup even when it was restored.
    const auto &tp = result.throughput;
    out.instructions =
        tp.instructions - tp.checkpointHits * run.warmupInstructions;
    out.cycles = tp.cycles - tp.warmupCyclesSaved;
    out.failed = result.core.instructions < run.simInstructions ||
        !(result.ipc > 0.0);
    out.restored = tp.checkpointHits == 1;
    return out;
}

RunOutcome
mixOutcome(const std::string &label, const ps::MixResult &result,
           const ps::RunConfig &run)
{
    RunOutcome out;
    out.label = label;
    out.digest = digestMix(result);
    const auto &tp = result.throughput;
    out.instructions = tp.instructions -
        tp.checkpointHits * result.ipc.size() * run.warmupInstructions;
    out.cycles = tp.cycles - tp.warmupCyclesSaved;
    for (double ipc : result.ipc)
        out.failed = out.failed || !(ipc > 0.0);
    return out;
}

std::vector<RunOutcome>
runUntraced(const Plan &plan)
{
    std::vector<RunOutcome> outcomes;
    switch (plan.kind) {
    case Kind::Sweep:
        try {
            const auto rows = ps::sweepPrefetchers(
                plan.base, plan.prefetchers, plan.pool, plan.run);
            std::size_t i = 0;
            for (const ps::SweepRow &row : rows) {
                for (const std::string &pf : withNone(plan.prefetchers)) {
                    outcomes.push_back(singleOutcome(
                        plan.runs[i++].label, row.results.at(pf),
                        plan.run));
                }
            }
        } catch (const std::exception &err) {
            return failedPass(plan, err);
        }
        break;
    case Kind::Mix:
        try {
            const auto rows = ps::sweepMixes(plan.base, plan.prefetchers,
                                             plan.mixes, plan.run);
            std::size_t i = 0;
            for (const ps::MixSweepRow &row : rows) {
                for (const std::string &pf : withNone(plan.prefetchers)) {
                    outcomes.push_back(mixOutcome(plan.runs[i++].label,
                                                  row.results.at(pf),
                                                  plan.run));
                }
            }
        } catch (const std::exception &err) {
            return failedPass(plan, err);
        }
        break;
    case Kind::Warm:
        for (unsigned pass = 0; pass < plan.warmPasses; ++pass) {
            for (const RunSpec &spec : plan.runs) {
                try {
                    const ps::RunResult result = ps::runSingleCore(
                        plan.base.withPrefetcher(spec.prefetcher),
                        spec.workloads[0], plan.run);
                    RunOutcome out =
                        singleOutcome(spec.label, result, plan.run);
                    // A warm run that missed the store is not warm.
                    out.failed = out.failed || !out.restored;
                    outcomes.push_back(out);
                } catch (const std::exception &err) {
                    pfsim::warn(spec.label + ": " + err.what());
                    outcomes.push_back({spec.label, 0, 0, 0, true});
                }
            }
        }
        break;
    }
    return outcomes;
}

std::vector<RunOutcome>
coldPass(const Plan &plan)
{
    std::filesystem::remove_all(plan.run.checkpointDir);
    std::filesystem::create_directories(plan.run.checkpointDir);
    std::vector<RunOutcome> outcomes;
    for (const RunSpec &spec : plan.runs) {
        try {
            const ps::RunResult result = ps::runSingleCore(
                plan.base.withPrefetcher(spec.prefetcher),
                spec.workloads[0], plan.run);
            RunOutcome out = singleOutcome(spec.label, result, plan.run);
            out.failed = out.failed || out.restored;
            outcomes.push_back(out);
        } catch (const std::exception &err) {
            pfsim::warn(spec.label + ": " + err.what());
            outcomes.push_back({spec.label, 0, 0, 0, true});
        }
    }
    return outcomes;
}

} // namespace perfbench
