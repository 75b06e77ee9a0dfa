/**
 * @file
 * Host-time accounting for the traced run: a cycle-counter clock, one
 * counter pair (calls, self ticks) per timed boundary, and an in-memory
 * log of run-level spans written out when the benchmark ends.
 *
 * Per-call boundaries (TraceSource::next, Prefetcher::operate/fill,
 * PrefetchIssuer::issuePrefetch) only bump counters; nothing is
 * allocated per call.  Self time is a span's duration minus the time
 * its nested spans took, so the self times of all boundaries add up to
 * the time spent inside the outermost ones.
 */

#ifndef PFSIM_PERFBENCH_LAYERS_HH
#define PFSIM_PERFBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench
{

/** Raw clock ticks: the TSC on x86-64, steady_clock ns elsewhere. */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return std::uint64_t(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** Ticks per nanosecond, measured once against steady_clock. */
double ticksPerNs();

/** The boundaries the traced run times, one counter pair each. */
enum class Boundary : unsigned
{
    TraceBuild,   ///< workload config + SyntheticTrace construction
    TraceNext,    ///< TraceSource::next
    Operate,      ///< Prefetcher::operate
    Fill,         ///< Prefetcher::fill
    Issue,        ///< PrefetchIssuer::issuePrefetch (cache layer)
    Build,        ///< System construction and wiring
    Simulate,     ///< runUntilRetired / the step loop, resetStats
    Load,         ///< CheckpointStore::tryLoad (+ warmup digest)
    Restore,      ///< snapshot::restoreSimulation
    Save,         ///< snapshot::saveSimulation
    Publish,      ///< CheckpointStore::publish
    Count
};

inline constexpr std::size_t boundaryCount =
    std::size_t(Boundary::Count);

/** Boundary names as the span log writes them, in Boundary order. */
inline constexpr std::array<const char *, boundaryCount> boundaryNames = {
    "trace_build", "trace_next", "operate", "fill",    "issue",  "build",
    "simulate",    "load",       "restore", "save",    "publish"};

struct BoundaryStat
{
    std::uint64_t calls = 0;
    std::uint64_t selfTicks = 0;
};

using BoundaryStats = std::array<BoundaryStat, boundaryCount>;

/** One run-level span, in ns since the tracer's epoch. */
struct SpanRecord
{
    std::uint32_t run = 0;
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/** One run's share of the boundary counters. */
struct RunRecord
{
    std::uint32_t run = 0;
    std::string label;
    BoundaryStats stats{};
};

/** Counters of one traced campaign. */
class Tracer
{
  public:
    Tracer()
    {
        ticksPerNs(); // calibrate now, so no span pays for it
        epoch_ = ticks();
    }

    BoundaryStats stats{};

    /** Prefetches the cache accepted (issuePrefetch returned true). */
    std::uint64_t issueAccepted = 0;

    /** Ticks spent in spans nested inside the currently open one. */
    std::uint64_t childTicks = 0;

    const BoundaryStat &
    operator[](Boundary b) const
    {
        return stats[std::size_t(b)];
    }

    double
    selfNs(Boundary b) const
    {
        return double((*this)[b].selfTicks) / ticksPerNs();
    }

    /** Run-level spans (run, build, warmup, restore, measured, ...). */
    std::vector<SpanRecord> spans;

    /** Per-run counter deltas, one record per finished run. */
    std::vector<RunRecord> runs;
    std::uint32_t currentRun = 0;

    std::uint64_t
    sinceEpochNs(std::uint64_t t) const
    {
        return std::uint64_t(double(t - epoch_) / ticksPerNs());
    }

  private:
    std::uint64_t epoch_ = 0;
};

/**
 * Times one call at a boundary: its self time is the elapsed ticks
 * minus whatever nested scopes took.  Nested scopes must close in
 * reverse order (they are stack objects).
 */
class Scope
{
  public:
    Scope(Tracer &tracer, Boundary boundary)
        : tracer_(tracer), boundary_(boundary),
          savedChild_(tracer.childTicks)
    {
        tracer_.childTicks = 0;
        start_ = ticks();
    }

    ~Scope()
    {
        const std::uint64_t elapsed = ticks() - start_;
        BoundaryStat &stat = tracer_.stats[std::size_t(boundary_)];
        ++stat.calls;
        stat.selfTicks += elapsed - tracer_.childTicks;
        tracer_.childTicks = savedChild_ + elapsed;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    Boundary boundary_;
    std::uint64_t savedChild_;
    std::uint64_t start_ = 0;
};

/**
 * A run-level span (run, build, warmup, restore, measured, ...): only
 * logged, never counted.  Declare it before the Scope it describes so
 * the log append falls outside the timed interval.
 */
class LoggedSpan
{
  public:
    LoggedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), name_(name), start_(ticks())
    {
    }

    ~LoggedSpan()
    {
        tracer_.spans.push_back({tracer_.currentRun, name_,
                                 tracer_.sinceEpochNs(start_),
                                 tracer_.sinceEpochNs(ticks())});
    }

    LoggedSpan(const LoggedSpan &) = delete;
    LoggedSpan &operator=(const LoggedSpan &) = delete;

  private:
    Tracer &tracer_;
    const char *name_;
    std::uint64_t start_;
};

} // namespace perfbench

#endif // PFSIM_PERFBENCH_LAYERS_HH
