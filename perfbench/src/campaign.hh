/**
 * @file
 * The benchmark's workloads ("campaigns") and their untraced runners,
 * which go through the library's own entry points:
 * sim::sweepPrefetchers, sim::sweepMixes and sim::runSingleCore with a
 * checkpoint store.  Every run is serial (jobs = 1).
 */

#ifndef PFSIM_PERFBENCH_CAMPAIGN_HH
#define PFSIM_PERFBENCH_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/multicore.hh"
#include "sim/runner.hh"
#include "workloads/mixes.hh"
#include "workloads/registry.hh"

namespace perfbench
{

/** The seed whose runs are pinned by the golden digests. */
inline constexpr std::uint64_t defaultSeed = 1;

enum class Kind
{
    Sweep, ///< sweep_1c: fig09 --subset, single core
    Mix,   ///< mix_4c: fig11-style 4-core mixes
    Warm,  ///< warm_1c: warm passes over a checkpoint store
};

/** One simulation of a campaign. */
struct RunSpec
{
    /** Stable key in golden files and digest listings. */
    std::string label;
    std::string prefetcher;

    /** One workload per core, already seeded. */
    pfsim::workloads::Mix workloads;
};

/** A workload of the benchmark: what one campaign pass simulates. */
struct Plan
{
    std::string name;
    Kind kind = Kind::Sweep;
    pfsim::sim::SystemConfig base;
    pfsim::sim::RunConfig run;

    /** The line-up besides "none" (the sweep engines add "none"). */
    std::vector<std::string> prefetchers;

    /** Sweep and warm: the seeded workload pool. */
    std::vector<pfsim::workloads::Workload> pool;

    /** Mix: the seeded mixes. */
    std::vector<pfsim::workloads::Mix> mixes;

    /** Warm: warm passes over the pool per campaign pass. */
    unsigned warmPasses = 1;

    /** Every run of one campaign pass, in result order. */
    std::vector<RunSpec> runs;
};

/** What the benchmark keeps of one run. */
struct RunOutcome
{
    std::string label;
    std::uint64_t digest = 0;

    /** Instructions actually simulated (restored warmups excluded). */
    std::uint64_t instructions = 0;

    /** Cycles actually simulated (restored warmups excluded). */
    std::uint64_t cycles = 0;

    /** Threw, tripped the watchdog, or failed a sanity check. */
    bool failed = false;

    /** The warmup was restored from the checkpoint store. */
    bool restored = false;
};

/** Names of the benchmark's workloads. */
const std::vector<std::string> &workloadNames();

/**
 * Build the plan of @p workload for @p seed.  @p store_dir is the warm
 * workload's checkpoint store.  @p short_runs shrinks the run lengths
 * and the pool to one short run of each kind (the fidelity self-test).
 */
Plan makePlan(const std::string &workload, std::uint64_t seed,
              const std::string &store_dir, bool short_runs = false);

/**
 * Set-up check: build every pool workload's trace and one System per
 * prefetcher of the line-up, so a bad spec or workload fails before
 * the campaign starts.
 */
void validatePlan(const Plan &plan);

/** One untraced campaign pass through the library's entry points. */
std::vector<RunOutcome> runUntraced(const Plan &plan);

/**
 * Warm workload set-up: empty the store, then runSingleCore every
 * warm run once so each simulates its warmup and publishes an image.
 */
std::vector<RunOutcome> coldPass(const Plan &plan);

/** Outcome of a single-core run (for the untraced and traced paths). */
RunOutcome singleOutcome(const std::string &label,
                         const pfsim::sim::RunResult &result,
                         const pfsim::sim::RunConfig &run);

/** Outcome of a mix run (for the untraced and traced paths). */
RunOutcome mixOutcome(const std::string &label,
                      const pfsim::sim::MixResult &result,
                      const pfsim::sim::RunConfig &run);

} // namespace perfbench

#endif // PFSIM_PERFBENCH_CAMPAIGN_HH
