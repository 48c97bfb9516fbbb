/**
 * @file
 * Directed protocol tests for the phase-priority backend: the MESI
 * directory flows behind per-bank phase-priority queues (stores > loads
 * > ifetches), over a bounded directory whose victim selection prefers
 * entries last touched by low-priority phases. Unlike ZeroDEV and DLS
 * this rival evicts — and therefore leaks — through the directory
 * eviction channel, which the directed tests pin down here and the
 * side-channel lab measures end to end.
 */

#include <gtest/gtest.h>

#include "coherence/backend.hh"
#include "core/cmp_system.hh"
#include "core/invariants.hh"
#include "obs/latency.hh"
#include "test_util.hh"

namespace zerodev
{
namespace
{

using testutil::dirConflictBlock;

SystemConfig
tinyPhasePri(double dir_ratio = 1.0)
{
    SystemConfig cfg = testutil::tinyConfig();
    cfg.name = "tiny-phasepri";
    cfg.protocol = ProtocolKind::PhasePriority;
    cfg.directory.sizeRatio = dir_ratio;
    return cfg;
}

Cycle
touch(CmpSystem &sys, CoreId core, AccessType t, BlockAddr b, Cycle now)
{
    return sys.access(core, t, b, now);
}

TEST(PhasePriority, PhaseMappingIsStoresLoadsIfetches)
{
    EXPECT_EQ(PhasePriorityBackend::phaseOf(AccessType::Store), 0);
    EXPECT_EQ(PhasePriorityBackend::phaseOf(AccessType::Load), 1);
    EXPECT_EQ(PhasePriorityBackend::phaseOf(AccessType::Ifetch), 2);
}

TEST(PhasePriority, StoreOvertakesQueuedIfetchAtTheBank)
{
    // Twin systems, identical access stream: the MESI twin provides the
    // unqueued completion times (phase-priority delegates the functional
    // flows verbatim, so only admission delay can differ).
    CmpSystem pp(tinyPhasePri());
    CmpSystem mesi(testutil::tinyConfig());

    // Blocks 100/102/104 all map to bank 0 of the tiny config.
    const Cycle pp_if1 = touch(pp, 0, AccessType::Ifetch, 100, 0);
    const Cycle mesi_if1 = touch(mesi, 0, AccessType::Ifetch, 100, 0);
    EXPECT_EQ(pp_if1, mesi_if1); // empty queue: identical timing

    // A store arriving while the ifetch occupies the bank overtakes it:
    // phase 0 waits only on previous phase-0 work.
    const Cycle pp_st = touch(pp, 1, AccessType::Store, 102, 1);
    const Cycle mesi_st = touch(mesi, 1, AccessType::Store, 102, 1);
    EXPECT_EQ(pp_st, mesi_st);

    // Another ifetch waits for everything previously admitted to the
    // bank — it is delayed relative to the unqueued MESI twin.
    const Cycle pp_if2 = touch(pp, 1, AccessType::Ifetch, 104, 2);
    const Cycle mesi_if2 = touch(mesi, 1, AccessType::Ifetch, 104, 2);
    EXPECT_GT(pp_if2, mesi_if2);
    EXPECT_GE(pp_if2, pp_if1);

    const StatDump d = pp.report();
    EXPECT_GE(d.get("backend.queued_requests"), 1.0);
    EXPECT_GE(d.get("backend.queue_delay_cycles"), 1.0);
    assertInvariants(pp);
}

TEST(PhasePriority, QueuedMissCountsItsAdmissionDelay)
{
    // Same-bank ifetch misses issued back to back queue behind each
    // other; each access's latency runs from its request time, so the
    // admission wait must appear in the class statistics and in the
    // profiler exactly as the backend counts it.
    CmpSystem sys(tinyPhasePri());
    obs::LatencyProfiler prof;
    sys.attachLatencyProfiler(&prof);

    // Blocks 100/102/104 all map to bank 0 of the tiny config.
    std::uint64_t returned = 0;
    const BlockAddr blocks[] = {100, 102, 104};
    for (Cycle now = 0; now < 3; ++now) {
        const Cycle done = sys.access(static_cast<CoreId>(now % 2),
                                      AccessType::Ifetch, blocks[now], now);
        returned += done - now;
    }

    const ProtocolStats &p = sys.protoStats();
    std::uint64_t class_cycles = 0;
    for (std::uint64_t c : p.classCycles)
        class_cycles += c;
    const obs::LatencyBreakdown b = prof.snapshot();
    EXPECT_EQ(class_cycles, returned);
    EXPECT_EQ(b.totalCycles, returned);

    const double queued = sys.report().get("backend.queue_delay_cycles");
    EXPECT_GT(queued, 0.0);
    EXPECT_EQ(static_cast<double>(
                  b.components[static_cast<std::size_t>(
                                   obs::LatComp::QueueWait)]
                      .cycles),
              queued);
    sys.attachLatencyProfiler(nullptr);
}

TEST(PhasePriority, VictimSelectionPrefersLowestPriorityPhase)
{
    // 1/8 ratio: one 8-way set per slice, so 8 conflicting entries fill
    // a directory set exactly.
    CmpSystem sys(tinyPhasePri(0.125));
    Cycle t = 0;
    // Four entries allocated under the ifetch phase (priority 2)...
    for (std::uint32_t i = 0; i < 4; ++i)
        t = touch(sys, 0, AccessType::Ifetch, dirConflictBlock(i, 0, 0, 1),
                  t + 100);
    // ...then four under the load phase (priority 1). The set is full.
    for (std::uint32_t i = 4; i < 8; ++i)
        t = touch(sys, 0, AccessType::Load, dirConflictBlock(i, 0, 0, 1),
                  t + 100);
    ASSERT_EQ(sys.protoStats().devInvalidations, 0u);

    // A conflicting store forces an eviction: the victim must be the
    // oldest ifetch-phase entry, never one of the load-phase entries.
    touch(sys, 1, AccessType::Store, dirConflictBlock(8, 0, 0, 1),
          t + 100);
    EXPECT_EQ(sys.protoStats().devInvalidations, 1u);
    EXPECT_EQ(sys.privateCache(0, 0).state(dirConflictBlock(0, 0, 0, 1)),
              MesiState::Invalid);
    for (std::uint32_t i = 1; i < 8; ++i) {
        EXPECT_NE(sys.privateCache(0, 0).state(
                      dirConflictBlock(i, 0, 0, 1)),
                  MesiState::Invalid)
            << "entry " << i << " should have survived";
    }
    // Provenance: the DEV is attributed to the inducing core 1.
    EXPECT_EQ(sys.protoStats().devByInducer[1], 1u);
    assertInvariants(sys);
}

TEST(PhasePriority, WritebackRaceBypassesTheQueues)
{
    CmpSystem sys(tinyPhasePri());
    Cycle t = 0;
    const BlockAddr x = 1024; // L2 set 0 of the tiny config
    touch(sys, 0, AccessType::Store, x, t);
    // Keep the bank queues busy with low-priority work while core 0's
    // conflicting fills evict x: the dirty victim is background traffic
    // and must complete regardless of queue state.
    t = touch(sys, 1, AccessType::Ifetch, 200, t + 10);
    for (BlockAddr b = 1032; b < 1032 + 9 * 8; b += 8) {
        t = touch(sys, 0, AccessType::Load, b, t + 1);
        touch(sys, 1, AccessType::Ifetch, 202, t + 1);
    }
    EXPECT_EQ(sys.privateCache(0, 0).state(x), MesiState::Invalid);
    // The written-back value is still in the socket: the next read is
    // served on-chip, not by memory.
    const auto misses_before = sys.protoStats().socketMisses;
    touch(sys, 1, AccessType::Load, x, t + 5000);
    EXPECT_EQ(sys.protoStats().socketMisses, misses_before);
    assertInvariants(sys);
}

TEST(PhasePriority, StressDeliversDevsButStaysInvariantClean)
{
    CmpSystem sys(tinyPhasePri(0.125));
    // Fixed-rate issue (not completion-paced): successive requests
    // overlap at the banks, so the phase queues actually fill.
    for (std::uint32_t i = 0; i < 3000; ++i) {
        const CoreId c = i % 2;
        const BlockAddr b = (i * 37) % 4096;
        const AccessType a = (i % 5 == 0) ? AccessType::Store
                           : (i % 7 == 0) ? AccessType::Ifetch
                                          : AccessType::Load;
        touch(sys, c, a, b, static_cast<Cycle>(i) * 5);
        if (i % 256 == 0)
            assertInvariants(sys);
    }
    // The bounded directory must evict under pressure — this rival
    // keeps the DEV channel open (the side-channel lab measures it) —
    // while the phase queues stay busy and every invariant holds.
    EXPECT_GT(sys.protoStats().devInvalidations, 0u);
    EXPECT_GE(sys.report().get("backend.queued_requests"), 1.0);
    assertInvariants(sys);
}

} // namespace
} // namespace zerodev
