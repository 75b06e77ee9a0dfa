#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>

#include "core/spp_ppf.hh"
#include "prefetch/spp.hh"
#include "sim/system.hh"
#include "snapshot/checkpoint_store.hh"
#include "snapshot/snapshot.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"

namespace perfbench
{

namespace ps = pfsim::sim;

double
ticksPerNs()
{
    static const double rate = [] {
#if defined(__x86_64__)
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        const std::uint64_t c0 = ticks();
        while (clock::now() - t0 < std::chrono::milliseconds(20)) {
        }
        const std::uint64_t c1 = ticks();
        const double ns = double(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - t0)
                .count());
        return double(c1 - c0) / ns;
#else
        return 1.0;
#endif
    }();
    return rate;
}

double
scopeCostNs()
{
    constexpr int batches = 9;
    constexpr int perBatch = 100000;
    std::vector<double> costs;
    for (int b = 0; b < batches; ++b) {
        Tracer tracer;
        {
            Scope parent(tracer, Boundary::Simulate);
            for (int i = 0; i < perBatch; ++i)
                Scope child(tracer, Boundary::TraceNext);
        }
        costs.push_back(tracer.selfNs(Boundary::Simulate) / perBatch +
                        tracer.selfNs(Boundary::TraceNext) / perBatch);
    }
    std::sort(costs.begin(), costs.end());
    return costs[batches / 2];
}

namespace
{

/** Times TraceSource::next (trace layer). */
class TimedTrace : public pfsim::trace::TraceSource
{
  public:
    TimedTrace(pfsim::trace::TraceSource &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    bool
    next(pfsim::Instruction &out) override
    {
        Scope scope(tracer_, Boundary::TraceNext);
        return inner_.next(out);
    }

    const std::string &name() const override { return inner_.name(); }

  private:
    pfsim::trace::TraceSource &inner_;
    Tracer &tracer_;
};

/** Times the cache's prefetch-issue path (cache layer). */
class TimedIssuer : public pfsim::prefetch::PrefetchIssuer
{
  public:
    TimedIssuer(pfsim::prefetch::PrefetchIssuer &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    bool
    issuePrefetch(pfsim::Addr addr, bool fill_this_level) override
    {
        Scope scope(tracer_, Boundary::Issue);
        const bool accepted = inner_.issuePrefetch(addr, fill_this_level);
        tracer_.issueAccepted += accepted ? 1 : 0;
        return accepted;
    }

  private:
    pfsim::prefetch::PrefetchIssuer &inner_;
    Tracer &tracer_;
};

/** Times Prefetcher::operate/fill (prefetch + ppf layers). */
class TimedPrefetcher : public pfsim::prefetch::Prefetcher
{
  public:
    TimedPrefetcher(pfsim::prefetch::Prefetcher &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void
    operate(const pfsim::prefetch::OperateInfo &info) override
    {
        Scope scope(tracer_, Boundary::Operate);
        inner_.operate(info);
    }

    void
    fill(const pfsim::prefetch::FillInfo &info) override
    {
        Scope scope(tracer_, Boundary::Fill);
        inner_.fill(info);
    }

    const std::string &name() const override { return inner_.name(); }

  private:
    pfsim::prefetch::Prefetcher &inner_;
    Tracer &tracer_;
};

/** A System whose layer boundaries are wrapped in timing decorators. */
class TracedSystem
{
  public:
    TracedSystem(const ps::SystemConfig &config,
                 const pfsim::workloads::Mix &workloads,
                 const ps::RunConfig &run, Tracer &tracer)
    {
        std::vector<pfsim::trace::TraceSource *> sources;
        for (const auto &workload : workloads) {
            LoggedSpan span(tracer, "trace_build");
            Scope scope(tracer, Boundary::TraceBuild);
            traces.push_back(
                std::make_unique<pfsim::trace::SyntheticTrace>(
                    workload.make()));
            timedTraces_.push_back(
                std::make_unique<TimedTrace>(*traces.back(), tracer));
            sources.push_back(timedTraces_.back().get());
        }

        LoggedSpan span(tracer, "build");
        Scope scope(tracer, Boundary::Build);
        system = std::make_unique<ps::System>(config, sources);
        system->setFastPath(run.fastPath);
        for (unsigned i = 0; i < config.cores; ++i) {
            pfsim::prefetch::Prefetcher &inner = system->prefetcher(i);
            issuers_.push_back(
                std::make_unique<TimedIssuer>(system->l2(i), tracer));
            prefetchers_.push_back(
                std::make_unique<TimedPrefetcher>(inner, tracer));
            system->l2(i).setPrefetcher(prefetchers_.back().get());
            inner.attach(issuers_.back().get());
        }
    }

    std::vector<std::unique_ptr<pfsim::trace::SyntheticTrace>> traces;
    std::unique_ptr<ps::System> system;

  private:
    std::vector<std::unique_ptr<TimedTrace>> timedTraces_;
    std::vector<std::unique_ptr<TimedIssuer>> issuers_;
    std::vector<std::unique_ptr<TimedPrefetcher>> prefetchers_;
};

/** Host-side and PPF counters, read before and after simulating. */
struct Marks
{
    ps::System::TickCounts ticks;
    std::uint64_t skipped = 0;
    pfsim::ppf::PpfStats ppf;

    explicit Marks(ps::System &system)
        : ticks(system.tickCounts()), skipped(system.skippedCycles())
    {
        for (unsigned i = 0; i < system.coreCount(); ++i) {
            if (const auto *p = dynamic_cast<pfsim::ppf::SppPpfPrefetcher *>(
                    &system.prefetcher(i))) {
                const pfsim::ppf::PpfStats &s = p->filter().ppfStats();
                ppf.candidates += s.candidates;
                ppf.acceptedL2 += s.acceptedL2;
                ppf.acceptedLlc += s.acceptedLlc;
                ppf.rejected += s.rejected;
            }
        }
    }
};

/** Fold one finished run into @p c (statistics read after settle). */
void
accumulate(SimCounters &c, ps::System &system, const Marks &start,
           const RunOutcome &outcome)
{
    const Marks end(system);
    c.instructions += outcome.instructions;
    c.cycles += outcome.cycles;
    c.coreTicks += end.ticks.core - start.ticks.core;
    c.cacheTicks += end.ticks.cache - start.ticks.cache;
    c.dramTicks += end.ticks.dram - start.ticks.dram;
    c.skippedCycles += end.skipped - start.skipped;
    c.ppfCandidates += end.ppf.candidates - start.ppf.candidates;
    c.ppfAcceptL2 += end.ppf.acceptedL2 - start.ppf.acceptedL2;
    c.ppfAcceptLlc += end.ppf.acceptedLlc - start.ppf.acceptedLlc;
    c.ppfRejected += end.ppf.rejected - start.ppf.rejected;

    for (unsigned i = 0; i < system.coreCount(); ++i) {
        const pfsim::cpu::CoreStats &core = system.core(i).stats();
        c.coreInstructions += core.instructions;
        c.coreCycles += core.cycles;
        c.robFullStalls += core.robFullStalls;
        c.mispredicts += core.mispredicts;
        c.l1dMisses += system.l1d(i).stats().demandMisses();
        c.l2Misses += system.l2(i).stats().demandMisses();
        c.pfIssued += system.l2(i).stats().pfIssued;
        c.pfUseful += system.l2(i).stats().pfUseful;
    }
    const pfsim::cache::CacheStats &llc = system.llc().stats();
    c.llcMisses += llc.demandMisses();
    c.pfUseful += llc.pfUseful;
    const pfsim::dram::DramStats &dram = system.dram().stats();
    c.dramReads += dram.reads;
    c.rowHits += dram.rowHits;
    c.rowAccesses += dram.rowHits + dram.rowMisses + dram.rowConflicts;
    c.readLatencySum += dram.readLatencySum;
}

/** The fault-free path of runSingleCore, traced. */
RunOutcome
tracedSingle(const Plan &plan, const RunSpec &spec, Tracer &tracer,
             SimCounters &counters)
{
    const ps::SystemConfig config =
        plan.base.withPrefetcher(spec.prefetcher);
    const ps::RunConfig &run = plan.run;
    const pfsim::workloads::Workload &workload = spec.workloads[0];
    const auto host_start = std::chrono::steady_clock::now();

    TracedSystem traced(config, spec.workloads, run, tracer);
    ps::System &system = *traced.system;

    std::function<bool()> abort_check;
    if (run.hostTimeoutSeconds > 0.0) {
        const auto deadline = host_start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(run.hostTimeoutSeconds));
        abort_check = [deadline] {
            return std::chrono::steady_clock::now() >= deadline;
        };
    }

    const bool reuse = run.warmupReuse && !run.checkpointDir.empty() &&
        run.warmupInstructions > 0;
    pfsim::snapshot::SimulationView view;
    view.system = &system;
    view.traces = {traced.traces[0].get()};

    const pfsim::snapshot::CheckpointStore store(run.checkpointDir);
    std::uint64_t digest = 0;
    std::vector<std::uint8_t> image;
    bool restored = false;
    pfsim::Cycle restored_cycle = 0;
    if (reuse) {
        bool loaded = false;
        {
            LoggedSpan span(tracer, "load");
            Scope scope(tracer, Boundary::Load);
            digest = pfsim::snapshot::warmupDigest(
                config, run.warmupInstructions, {workload.make()},
                nullptr, run.faultSeed);
            loaded = store.tryLoad(workload.name, digest, image);
        }
        if (loaded) {
            LoggedSpan span(tracer, "restore");
            Scope scope(tracer, Boundary::Restore);
            try {
                pfsim::snapshot::restoreSimulation(image, view, digest);
                restored = true;
                restored_cycle = system.now();
            } catch (const pfsim::snapshot::SnapshotError &err) {
                pfsim::warn("checkpoint " +
                            store.pathFor(workload.name, digest) +
                            " unusable (" + std::string(err.what()) +
                            "); re-simulating warmup");
            }
        }
    }

    // Restoring moves the clock, so the marks follow the restore.
    const Marks start(system);
    if (!restored) {
        {
            LoggedSpan span(tracer, "warmup");
            Scope scope(tracer, Boundary::Simulate);
            system.runUntilRetired(run.warmupInstructions, abort_check);
        }
        if (reuse) {
            {
                LoggedSpan span(tracer, "save");
                Scope scope(tracer, Boundary::Save);
                image = pfsim::snapshot::saveSimulation(view, digest);
            }
            LoggedSpan span(tracer, "publish");
            Scope scope(tracer, Boundary::Publish);
            store.publish(workload.name, digest, image);
        }
    }
    if (reuse) {
        ++counters.images;
        counters.imageBytes += image.size();
    }
    {
        LoggedSpan span(tracer, "measured");
        Scope scope(tracer, Boundary::Simulate);
        system.resetStats();
        system.runUntilRetired(run.simInstructions, abort_check);
    }

    ps::RunResult result;
    result.workload = workload.name;
    result.prefetcher = config.prefetcher;
    result.core = system.core(0).stats();
    result.ipc = result.core.ipc();
    result.l1d = system.l1d(0).stats();
    result.l2 = system.l2(0).stats();
    result.llc = system.llc().stats();
    result.dram = system.dram().stats();
    if (const auto *spp = dynamic_cast<pfsim::prefetch::SppPrefetcher *>(
            &system.prefetcher(0))) {
        result.spp = spp->sppStats();
    } else if (const auto *spp_ppf =
                   dynamic_cast<pfsim::ppf::SppPpfPrefetcher *>(
                       &system.prefetcher(0))) {
        result.spp = spp_ppf->spp().sppStats();
        result.ppf = spp_ppf->filter().ppfStats();
    }
    result.throughput.instructions =
        run.warmupInstructions + result.core.instructions;
    result.throughput.cycles = system.now();
    result.throughput.checkpointHits = restored ? 1 : 0;
    result.throughput.checkpointMisses = reuse && !restored ? 1 : 0;
    result.throughput.warmupCyclesSaved = restored_cycle;

    RunOutcome outcome = singleOutcome(spec.label, result, run);
    accumulate(counters, system, start, outcome);
    return outcome;
}

/** The fault-free, store-free path of runMix, traced. */
RunOutcome
tracedMix(const Plan &plan, const RunSpec &spec, Tracer &tracer,
          SimCounters &counters)
{
    const ps::SystemConfig config =
        plan.base.withPrefetcher(spec.prefetcher);
    const ps::RunConfig &run = plan.run;
    if (spec.workloads.size() != config.cores)
        pfsim::fatal("mix size does not match core count");

    TracedSystem traced(config, spec.workloads, run, tracer);
    ps::System &system = *traced.system;
    const Marks start(system);
    {
        LoggedSpan span(tracer, "warmup");
        Scope scope(tracer, Boundary::Simulate);
        system.runUntilRetired(run.warmupInstructions);
    }

    std::vector<pfsim::Cycle> done_cycle(config.cores, 0);
    pfsim::Cycle start_cycle = 0;
    pfsim::InstrCount watchdog_last = 0;
    {
        LoggedSpan span(tracer, "measured");
        Scope scope(tracer, Boundary::Simulate);
        system.resetStats();
        start_cycle = system.now();
        unsigned remaining = config.cores;
        pfsim::Cycle watchdog_cycle = system.now();
        while (remaining > 0) {
            system.step(watchdog_cycle + 1000001);
            pfsim::InstrCount total_retired = 0;
            for (unsigned i = 0; i < config.cores; ++i) {
                total_retired += system.core(i).retired();
                if (done_cycle[i] == 0 &&
                    system.core(i).retired() >= run.simInstructions) {
                    done_cycle[i] = system.now();
                    --remaining;
                }
            }
            if (total_retired != watchdog_last) {
                watchdog_last = total_retired;
                watchdog_cycle = system.now();
            } else if (system.now() - watchdog_cycle > 1000000) {
                pfsim::panic(
                    "multi-core system made no progress for 1M cycles");
            }
        }
        system.settle();
    }

    ps::MixResult result;
    result.prefetcher = config.prefetcher;
    for (unsigned i = 0; i < config.cores; ++i) {
        result.workloads.push_back(spec.workloads[i].name);
        result.ipc.push_back(double(run.simInstructions) /
                             double(done_cycle[i] - start_cycle));
    }
    result.llc = system.llc().stats();
    result.dram = system.dram().stats();
    result.throughput.instructions =
        config.cores * run.warmupInstructions + watchdog_last;
    result.throughput.cycles = system.now();

    RunOutcome outcome = mixOutcome(spec.label, result, run);
    accumulate(counters, system, start, outcome);
    return outcome;
}

RunOutcome
tracedRun(const Plan &plan, const RunSpec &spec, Tracer &tracer,
          SimCounters &counters)
{
    const BoundaryStats before = tracer.stats;
    RunOutcome outcome;
    {
        LoggedSpan span(tracer, "run");
        try {
            outcome = plan.kind == Kind::Mix
                ? tracedMix(plan, spec, tracer, counters)
                : tracedSingle(plan, spec, tracer, counters);
        } catch (const std::exception &err) {
            pfsim::warn(spec.label + ": " + err.what());
            outcome = {spec.label, 0, 0, 0, true};
        }
    }
    RunRecord record{tracer.currentRun++, spec.label, {}};
    for (std::size_t b = 0; b < boundaryCount; ++b) {
        record.stats[b].calls = tracer.stats[b].calls - before[b].calls;
        record.stats[b].selfTicks =
            tracer.stats[b].selfTicks - before[b].selfTicks;
    }
    tracer.runs.push_back(std::move(record));
    return outcome;
}

} // namespace

std::vector<RunOutcome>
runTraced(const Plan &plan, Tracer &tracer, SimCounters &counters)
{
    std::vector<RunOutcome> outcomes;
    const unsigned passes = plan.kind == Kind::Warm ? plan.warmPasses : 1;
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (const RunSpec &spec : plan.runs) {
            RunOutcome out = tracedRun(plan, spec, tracer, counters);
            // As in runUntraced: a warm run must restore its warmup.
            out.failed = out.failed ||
                (plan.kind == Kind::Warm && !out.restored);
            outcomes.push_back(out);
        }
    }
    return outcomes;
}

std::vector<RunOutcome>
coldPassTraced(const Plan &plan, Tracer &tracer, SimCounters &counters)
{
    std::filesystem::remove_all(plan.run.checkpointDir);
    std::filesystem::create_directories(plan.run.checkpointDir);
    std::vector<RunOutcome> outcomes;
    for (const RunSpec &spec : plan.runs) {
        RunOutcome out = tracedRun(plan, spec, tracer, counters);
        out.failed = out.failed || out.restored;
        outcomes.push_back(out);
    }
    return outcomes;
}

} // namespace perfbench
