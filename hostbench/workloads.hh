/**
 * @file
 * The benchmark's named workloads. Each one fixes a system config, an
 * input generator driven by the workload seed, and the work of one
 * repetition; all of them start from empty modelled caches, as every
 * figure bench does.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "workload/workload.hh"

namespace hostbench
{

enum class Kind
{
    Generator, //!< sim::run over a Workload; one repetition = one run
    Fuzz,      //!< verify::Differ lockstep; one operation = one fuzz seed
};

/** Seed used when none is given, and a second one held back: a perf
 *  claim tuned on the default must also hold on it. */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldBackSeed = 7919;

/** One named workload; why each exists is in README.md and
 *  BENCHMARK.json. */
struct WorkloadSpec
{
    std::string name;
    Kind kind = Kind::Generator;

    // --- Generator workloads ---
    zerodev::SystemConfig cfg;
    std::function<zerodev::Workload(std::uint64_t)> make;
    std::uint64_t accessesPerCore = 0; //!< per repetition
    bool latencyProfiler = false;      //!< attached to the timed run
};

/** Fuzz workload geometry: fuzz_tool's defaults, with nightly fuzz's
 *  checkpoint cadence. */
constexpr std::uint32_t kFuzzCores = 4;
constexpr std::uint64_t kFuzzAccesses = 20000;
constexpr std::uint64_t kFuzzSnapshotEvery = 10000;

/** Fuzz seeds in one untraced repetition (also the seeds the simulated
 *  metrics come from), and in the traced pass. */
constexpr std::uint64_t kFuzzBatch = 16;
constexpr std::uint64_t kFuzzTracedSeeds = 8;

const std::vector<WorkloadSpec> &workloads();

/** The workload called @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Independent 64-bit seed number @p i derived from @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t i);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
