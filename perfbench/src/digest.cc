#include "digest.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>

namespace perfbench
{

namespace
{

class Fnv
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(std::initializer_list<std::uint64_t> values)
    {
        for (std::uint64_t v : values)
            add(v);
    }

    void
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        add(bits);
    }

    void
    add(const std::string &text)
    {
        add(std::uint64_t(text.size()));
        for (char c : text) {
            hash_ ^= std::uint8_t(c);
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(const pfsim::cache::CacheStats &s)
    {
        add({s.loadAccess, s.loadHit, s.rfoAccess, s.rfoHit,
             s.writebackAccess, s.writebackHit, s.pfIssued,
             s.pfDroppedHit, s.pfDroppedMshr, s.pfDroppedFull,
             s.pfToLower, s.pfFill, s.pfUseful, s.pfLate,
             s.pfUselessEvict, s.writebacks, s.missLatencySum,
             s.missLatencyCount});
    }

    void
    add(const pfsim::dram::DramStats &s)
    {
        add({s.reads, s.writes, s.rowHits, s.rowMisses, s.rowConflicts,
             s.busBusyCycles, s.readLatencySum});
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

std::uint64_t
digestRun(const pfsim::sim::RunResult &r)
{
    Fnv h;
    h.add(r.workload);
    h.add(r.prefetcher);
    h.add({r.core.instructions, r.core.cycles, r.core.branches,
           r.core.mispredicts, r.core.loads, r.core.stores,
           r.core.robFullStalls, r.core.lqFullStalls,
           r.core.sqFullStalls});
    h.add(r.l1d);
    h.add(r.l2);
    h.add(r.llc);
    h.add(r.dram);
    h.add({r.spp.triggers, r.spp.issued, r.spp.depthSum,
           r.spp.candidates, r.spp.filterDropped, r.spp.ghrBootstraps});
    h.add({r.ppf.candidates, r.ppf.acceptedL2, r.ppf.acceptedLlc,
           r.ppf.rejected, r.ppf.trainUseful, r.ppf.trainFalseNegative,
           r.ppf.trainUselessEvict});
    return h.value();
}

std::uint64_t
digestMix(const pfsim::sim::MixResult &r)
{
    Fnv h;
    h.add(r.prefetcher);
    for (const std::string &name : r.workloads)
        h.add(name);
    for (double ipc : r.ipc)
        h.add(ipc);
    h.add(r.llc);
    h.add(r.dram);
    return h.value();
}

Golden
readGolden(const std::string &path)
{
    Golden golden;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string label, digest;
        if (fields >> label >> digest)
            golden[label] = std::stoull(digest, nullptr, 16);
    }
    return golden;
}

std::string
hex(std::uint64_t digest)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(digest));
    return text;
}

} // namespace perfbench
