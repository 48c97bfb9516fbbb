/**
 * @file
 * What the benchmark measures around the engine's public calls: the
 * exact protocol counts (read from CmpSystem's public stats), a
 * signature of a run's simulated counters for the determinism check,
 * and replay loops over a recorded access stream: a plain one (wall
 * time only), a timed one that times every CmpSystem::access call and
 * attributes it to the AccessClass it completed as, and an untimed one
 * that attributes the counts each call moved to its class.
 */

#ifndef HOSTBENCH_PROBES_HH
#define HOSTBENCH_PROBES_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/cmp_system.hh"
#include "span_trace.hh"
#include "workload/trace.hh"

namespace hostbench
{

/** The exact per-layer counts, in report order. */
enum Count : std::size_t
{
    LlcDataArrayReads,
    LlcSpillAllocs,
    LlcFuseOps,
    LlcDeEvictions,
    DramReads,
    DramDeReads,
    DramDeWrites,
    MeshTraversals,
    DirForcedInvs,
    DevInvalidations,
    InclusionInvalidations,
    WbDe,
    GetDe,
    DenfNacks,
    CorruptedResponses,
    NumCounts,
};

/** Metric name of each count. */
extern const std::array<const char *, NumCounts> kCountNames;

using Counts = std::array<std::uint64_t, NumCounts>;

void addCounts(Counts &into, const Counts &c);

/** Counts summed over every socket, from the public stats accessors. */
Counts readCounts(const zerodev::CmpSystem &sys);

/** The same counts summed from a report (socket prefixes folded). */
Counts countsFromReport(const zerodev::StatDump &report);

constexpr std::size_t kNumClasses =
    static_cast<std::size_t>(zerodev::AccessClass::NumClasses);

/** Every simulated counter of a finished run, rendered exactly. */
std::string signature(const zerodev::StatDump &report,
                      zerodev::Cycle cycles, std::uint64_t instructions);

/** FNV-1a digest of a signature (printed so runs can be compared). */
std::uint64_t digest(const std::string &sig);

/** Per-AccessClass rows; slot kNumClasses collects calls that
 *  completed no class (it must stay empty). */
template <typename T>
using PerClass = std::array<T, kNumClasses + 1>;

using ClassCounts = PerClass<Counts>;

/** Σ over classes of per-class counts. */
Counts sumClasses(const ClassCounts &counts);

/** Per-call timing gathered by the timed replay. */
struct CallProfile
{
    std::uint64_t calls = 0;
    double totalNs = 0.0;
    PerClass<std::uint64_t> classCalls{};
    PerClass<double> classNs{};
    std::uint64_t devCalls = 0; //!< calls that raised DEV invalidations
    double devNs = 0.0;
    DurationHist hist;

    void merge(const CallProfile &o);
};

/** Outcome of a replay: the system's end state as simulated counters. */
struct ReplayResult
{
    zerodev::StatDump report;
    zerodev::Cycle cycles = 0;       //!< completion of the last access
    std::uint64_t instructions = 0;
    double wallSeconds = 0.0;        //!< the access loop alone
};

/** Issue-time model of a replay: per-core ready times (sim::replay's)
 *  or one global clock (the Differ's lockstep). */
enum class Clocking
{
    PerCore,
    Global,
};

/** Replay @p stream on @p sys calling CmpSystem::access only. */
ReplayResult plainReplay(zerodev::CmpSystem &sys,
                         const std::vector<zerodev::TraceRecord> &stream,
                         Clocking clocking);

/**
 * Replay @p stream on @p sys timing every CmpSystem::access call
 * (steady_clock, minus @p timer_ns of clock overhead) into @p prof,
 * attributed to the AccessClass whose classCount entry it incremented.
 * @p between runs after access i completes, outside the timed window
 * (the fuzz pass puts its invariant and snapshot cadences there).
 */
ReplayResult
timedReplay(zerodev::CmpSystem &sys,
            const std::vector<zerodev::TraceRecord> &stream,
            Clocking clocking, double timer_ns, CallProfile &prof,
            const std::function<void(std::uint64_t)> &between = {});

/** Replay @p stream on @p sys adding the counts each call moved to its
 *  AccessClass row of @p counts. Untimed: reading the counters around
 *  every call would distort the timed replay. */
ReplayResult countedReplay(zerodev::CmpSystem &sys,
                           const std::vector<zerodev::TraceRecord> &stream,
                           Clocking clocking, ClassCounts &counts);

/** Median cost of reading steady_clock twice back to back. */
double timerOverheadNs();

} // namespace hostbench

#endif // HOSTBENCH_PROBES_HH
