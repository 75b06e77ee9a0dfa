/**
 * @file
 * Digests of a run's simulated statistics (never its host telemetry),
 * and the golden files that pin them for the default seed.
 */

#ifndef PFSIM_PERFBENCH_DIGEST_HH
#define PFSIM_PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/multicore.hh"
#include "sim/runner.hh"

namespace perfbench
{

/**
 * FNV-1a over the core, L1D, L2, LLC, DRAM, SPP and PPF statistics of a
 * single-core run, plus its workload and prefetcher names.
 */
std::uint64_t digestRun(const pfsim::sim::RunResult &result);

/**
 * FNV-1a over what a mix run reports: per-core IPC (as bit patterns),
 * the shared LLC and DRAM statistics, and the names.
 */
std::uint64_t digestMix(const pfsim::sim::MixResult &result);

/** Golden digests by run label. */
using Golden = std::map<std::string, std::uint64_t>;

/**
 * Read "<label> <hex digest>" lines from @p path.  Returns an empty map
 * when the file does not exist.
 */
Golden readGolden(const std::string &path);

/** Format a digest as 16 lower-case hex digits. */
std::string hex(std::uint64_t digest);

} // namespace perfbench

#endif // PFSIM_PERFBENCH_DIGEST_HH
