/**
 * @file
 * The traced run: the same runs as the untraced campaign, driven
 * through the public sim::System API (the fault-free path of
 * runSingleCore and runMix), with every layer boundary wrapped in a
 * timing decorator:
 *   - a trace::TraceSource wrapper handed to the System constructor;
 *   - a prefetch::Prefetcher wrapper installed with l2(i).setPrefetcher;
 *   - a PrefetchIssuer wrapper the inner prefetcher is re-attached to;
 *   - scopes around System construction, runUntilRetired / step,
 *     saveSimulation / restoreSimulation and publish / tryLoad.
 */

#ifndef PFSIM_PERFBENCH_TRACED_HH
#define PFSIM_PERFBENCH_TRACED_HH

#include <cstdint>
#include <vector>

#include "campaign.hh"
#include "layers.hh"

namespace perfbench
{

/**
 * Simulated-machine counters of a traced campaign, summed over runs.
 * The first group covers every simulated cycle (warmups that were not
 * restored included); the rest are measured-region statistics.
 */
struct SimCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t coreTicks = 0;
    std::uint64_t cacheTicks = 0;
    std::uint64_t dramTicks = 0;
    std::uint64_t skippedCycles = 0;
    std::uint64_t ppfCandidates = 0;
    std::uint64_t ppfAcceptL2 = 0;
    std::uint64_t ppfAcceptLlc = 0;
    std::uint64_t ppfRejected = 0;

    std::uint64_t coreInstructions = 0;
    std::uint64_t coreCycles = 0;
    std::uint64_t robFullStalls = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfUseful = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowAccesses = 0;
    std::uint64_t readLatencySum = 0;

    /** Snapshot images saved or loaded, and their total size. */
    std::uint64_t images = 0;
    std::uint64_t imageBytes = 0;
};

/**
 * Host cost of one empty Scope as its parent sees it: what each timed
 * call adds to the traced run (the median of a few batches).
 */
double scopeCostNs();

/** One traced campaign pass; outcomes match runUntraced's. */
std::vector<RunOutcome> runTraced(const Plan &plan, Tracer &tracer,
                                  SimCounters &counters);

/** The traced form of coldPass. */
std::vector<RunOutcome> coldPassTraced(const Plan &plan, Tracer &tracer,
                                       SimCounters &counters);

} // namespace perfbench

#endif // PFSIM_PERFBENCH_TRACED_HH
