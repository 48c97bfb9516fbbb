#include "workloads.hh"

#include "workload/app_profiles.hh"

namespace hostbench
{

using namespace zerodev;

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t i)
{
    // splitmix64 over (seed, i): distinct, well-mixed stream seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<WorkloadSpec> v;

        // LLC-resident entries: spills, fuses and forwards exercise the
        // LLC-probe/tracking path and the latency-attribution hooks.
        WorkloadSpec mt;
        mt.name = "mt8-migratory-zdev";
        mt.cfg = makeEightCoreConfig();
        applyZeroDev(mt.cfg, 0.0);
        mt.make = [](std::uint64_t seed) {
            return Workload::multiThreaded(profileByName("freqmine"), 8,
                                           seed);
        };
        mt.accessesPerCore = 250000;
        mt.latencyProfiler = true;
        v.push_back(mt);

        // The uncore control: almost every access hits in L1.
        WorkloadSpec rate;
        rate.name = "rate8-l1-resident";
        rate.cfg = makeEightCoreConfig();
        rate.make = [](std::uint64_t seed) {
            return Workload::rate(profileByName("exchange2"), 8, seed);
        };
        rate.accessesPerCore = 500000;
        v.push_back(rate);

        // 128-core issue scan, dirOrg tracking, real DEVs.
        WorkloadSpec server;
        server.name = "server128-sparse-dev";
        server.cfg = makeServerConfig();
        server.make = [](std::uint64_t seed) {
            return Workload::multiThreaded(profileByName("SPECjbb"), 128,
                                           seed);
        };
        server.accessesPerCore = 10000;
        v.push_back(server);

        // Every protocol backend, the rare flows and the verify layer.
        WorkloadSpec fuzz;
        fuzz.name = "fuzz15-lockstep";
        fuzz.kind = Kind::Fuzz;
        v.push_back(fuzz);
        return v;
    }();
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

} // namespace hostbench
