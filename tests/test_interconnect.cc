/**
 * @file
 * Unit tests for the 2D mesh model and the coherence message catalogue
 * (wire sizes, the ZeroDEV-specific payloads, traffic accounting).
 */

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "interconnect/mesh.hh"
#include "interconnect/message.hh"

namespace zerodev
{
namespace
{

TEST(Mesh, GeometryNearSquare)
{
    const Mesh m8(8, 2);
    EXPECT_EQ(m8.columns(), 3u);
    EXPECT_EQ(m8.rows(), 3u);
    const Mesh m16(16, 2);
    EXPECT_EQ(m16.columns(), 4u);
    EXPECT_EQ(m16.rows(), 4u);
    const Mesh m128(128, 2);
    EXPECT_EQ(m128.columns(), 12u);
    EXPECT_EQ(m128.rows(), 11u);
}

TEST(Mesh, ManhattanHops)
{
    const Mesh m(16, 2); // 4x4
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 3), 3u);   // same row
    EXPECT_EQ(m.hops(0, 12), 3u);  // same column
    EXPECT_EQ(m.hops(0, 15), 6u);  // opposite corner
    EXPECT_EQ(m.hops(5, 10), 2u);
    // Symmetry.
    for (std::uint32_t a = 0; a < 16; ++a)
        for (std::uint32_t b = 0; b < 16; ++b)
            EXPECT_EQ(m.hops(a, b), m.hops(b, a));
}

TEST(Mesh, LatencyScalesWithHopCost)
{
    const Mesh m2(16, 2), m3(16, 3);
    EXPECT_EQ(m2.latency(0, 15), 12u);
    EXPECT_EQ(m3.latency(0, 15), 18u);
    EXPECT_EQ(m2.latency(5, 5), 0u);
}

TEST(Mesh, TileMappingWraps)
{
    const Mesh m(8, 2);
    EXPECT_EQ(m.tileOfCore(3), 3u);
    EXPECT_EQ(m.tileOfBank(7), 7u);
    EXPECT_EQ(m.tileOfCore(11), 3u); // wraps
}

TEST(Mesh, AverageHopsPositive)
{
    const Mesh m(8, 2);
    const double avg = m.averageHops();
    EXPECT_GT(avg, 0.5);
    EXPECT_LT(avg, 6.0);
}

TEST(Mesh, TraversalStatsAndHopHistogram)
{
    // Each latency() call is one costed traversal: the counters and the
    // hop histogram feeding the latency probes must agree with it.
    const Mesh m(16, 2); // 4x4
    EXPECT_EQ(m.stats().traversals, 0u);
    EXPECT_EQ(m.hopHist().samples(), 0u);

    (void)m.latency(0, 15); // 6 hops
    (void)m.latency(0, 3);  // 3 hops
    (void)m.latency(5, 5);  // 0 hops
    EXPECT_EQ(m.stats().traversals, 3u);
    EXPECT_EQ(m.stats().hops, 9u);
    EXPECT_EQ(m.hopHist().samples(), 3u);
    EXPECT_EQ(m.hopHist().bucket(6), 1u);
    EXPECT_EQ(m.hopHist().bucket(3), 1u);
    EXPECT_EQ(m.hopHist().bucket(0), 1u);
    EXPECT_EQ(m.hopHist().percentile(1.0), 6u);
    // A traversal's cycle cost is hops * hopCycles.
    EXPECT_EQ(m.hopCycles(), 2u);

    Mesh copy(16, 2);
    (void)copy.latency(0, 15);
    copy.clearStats();
    EXPECT_EQ(copy.stats().traversals, 0u);
    EXPECT_EQ(copy.hopHist().samples(), 0u);
}

TEST(Message, ControlVsDataSizes)
{
    // Control messages are header-only; data responses carry the block.
    EXPECT_EQ(msgBytes(MsgType::GetS, 8), 8u);
    EXPECT_EQ(msgBytes(MsgType::Inv, 8), 8u);
    EXPECT_EQ(msgBytes(MsgType::DataResp, 8), 72u);
    EXPECT_EQ(msgBytes(MsgType::PutM, 8), 72u);
    EXPECT_EQ(msgBytes(MsgType::WbDe, 8), 72u);
    EXPECT_EQ(msgBytes(MsgType::MemRead, 8), 8u);
}

TEST(Message, ZeroDevPayloadsScaleWithCores)
{
    // FPSS reconstruction bits: 3 + ceil(log2 N) bits -> 1 byte at 8
    // cores, 2 bytes at 128 (Section III-C2).
    EXPECT_EQ(msgBytes(MsgType::PutEBits, 8),
              msgBytes(MsgType::PutE, 8) + 1);
    EXPECT_EQ(msgBytes(MsgType::PutEBits, 128),
              msgBytes(MsgType::PutE, 128) + 2);
    // FuseAll's special ack retrieves 4 + N bits (Section III-C3).
    EXPECT_EQ(msgBytes(MsgType::EvictAckFetchBits, 8), 8u + 2);
    EXPECT_EQ(msgBytes(MsgType::EvictAckFetchBits, 128), 8u + 17);
    // A full directory-entry payload: N + 1 bits.
    EXPECT_EQ(msgBytes(MsgType::PutDe, 8), 8u + 2);
    EXPECT_EQ(msgBytes(MsgType::FwdWithDe, 128), 8u + 17);
}

TEST(Message, TrafficAccumulation)
{
    TrafficStats t(8);
    EXPECT_EQ(t.totalBytes(), 0u);
    t.record(MsgType::GetS);
    t.record(MsgType::DataResp);
    t.record(MsgType::GetS);
    EXPECT_EQ(t.totalMessages(), 3u);
    EXPECT_EQ(t.totalBytes(), 8u + 72 + 8);
    EXPECT_EQ(t.countOf(MsgType::GetS), 2u);
    EXPECT_EQ(t.bytesOf(MsgType::DataResp), 72u);
    t.clear();
    EXPECT_EQ(t.totalBytes(), 0u);
}

TEST(Message, SaveWritesTheDerivedByteWords)
{
    TrafficStats t(8);
    t.record(MsgType::GetS);
    t.record(MsgType::DataResp);
    t.record(MsgType::DataResp);
    SerialOut out;
    t.save(out);

    // Per type: count, bytes; then total bytes and total messages.
    SerialIn in(out.data());
    const std::uint64_t n = in.u64();
    ASSERT_EQ(n, static_cast<std::uint64_t>(MsgType::NumTypes));
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto type = static_cast<MsgType>(i);
        EXPECT_EQ(in.u64(), t.countOf(type));
        EXPECT_EQ(in.u64(), t.countOf(type) * msgBytes(type, 8));
    }
    EXPECT_EQ(in.u64(), 8u + 2 * 72);
    EXPECT_EQ(in.u64(), 3u);

    TrafficStats back(8);
    SerialIn again(out.data());
    back.restore(again);
    EXPECT_TRUE(again.ok());
    EXPECT_EQ(back.bytesOf(MsgType::DataResp), 144u);
    EXPECT_EQ(back.totalBytes(), t.totalBytes());
}

TEST(Message, ReportListsNonZeroTypes)
{
    TrafficStats t(8);
    t.record(MsgType::Upgrade);
    const StatDump d = t.report();
    EXPECT_TRUE(d.has("count.Upgrade"));
    EXPECT_FALSE(d.has("count.GetX"));
    EXPECT_DOUBLE_EQ(d.get("total_messages"), 1.0);
}

TEST(Message, EveryTypeHasNameAndSize)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(MsgType::NumTypes); ++i) {
        const auto t = static_cast<MsgType>(i);
        EXPECT_STRNE(toString(t), "?");
        EXPECT_GE(msgBytes(t, 8), 8u);
        EXPECT_LE(msgBytes(t, 128), 8u + 64);
    }
}

} // namespace
} // namespace zerodev
