// Unit tests: common primitives (ring buffer, bitmap, stats, bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tcplp/common/bitmap.hpp"
#include "tcplp/common/bytes.hpp"
#include "tcplp/common/ring_buffer.hpp"
#include "tcplp/common/stats.hpp"
#include "tcplp/sim/rng.hpp"

using namespace tcplp;

TEST(Bytes, PatternRoundTrip) {
    const Bytes b = patternBytes(1234, 77);
    EXPECT_TRUE(matchesPattern(1234, b));
    EXPECT_FALSE(matchesPattern(1235, b));
}

TEST(Bytes, BigEndianCodec) {
    Bytes b;
    putU16(b, 0xbeef);
    putU32(b, 0xdeadc0de);
    EXPECT_EQ(getU16(b, 0), 0xbeef);
    EXPECT_EQ(getU32(b, 2), 0xdeadc0de);
}

TEST(RingBuffer, WriteReadWrapAround) {
    RingBuffer rb(8);
    EXPECT_EQ(rb.write(toBytes("abcdef")), 6u);
    EXPECT_EQ(toPrintable(rb.read(4)), "abcd");
    EXPECT_EQ(rb.write(toBytes("ghijkl")), 6u);  // wraps
    EXPECT_EQ(rb.size(), 8u);
    EXPECT_EQ(toPrintable(rb.read(8)), "efghijkl");
}

TEST(RingBuffer, WriteClampsToFree) {
    RingBuffer rb(4);
    EXPECT_EQ(rb.write(toBytes("abcdef")), 4u);
    EXPECT_EQ(rb.free(), 0u);
    EXPECT_EQ(rb.write(toBytes("x")), 0u);
}

TEST(RingBuffer, WriteAtThenCommit) {
    RingBuffer rb(16);
    rb.write(toBytes("ab"));
    rb.writeAt(2, toBytes("EF"));  // deposit past the tail with a gap
    rb.writeAt(0, toBytes("cd"));  // fill the gap
    rb.commit(4);
    EXPECT_EQ(toPrintable(rb.read(6)), "abcdEF");
}

TEST(RingBuffer, WriteAtAndReadIntoSpanThePhysicalEnd) {
    RingBuffer rb(8);
    rb.write(toBytes("abcdef"));
    rb.consume(5);                   // front at physical 5: "f"
    rb.writeAt(1, toBytes("hij"));   // physical 7, 0, 1
    rb.writeAt(0, toBytes("g"));     // physical 6
    rb.commit(4);
    Bytes out;
    EXPECT_EQ(rb.readInto(5, out), 5u);  // physical 5..7, then 0..1
    EXPECT_EQ(toPrintable(out), "fghij");
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, GrowKeepsWrappedDepositsAndSpansTheNewEnd) {
    RingBuffer rb(8);
    rb.write(toBytes("abcdef"));
    rb.consume(4);                   // front at physical 4: "ef"
    rb.writeAt(1, toBytes("XYZ"));   // parked past a one-byte gap, physical 7, 0, 1
    rb.grow(12);                     // every tail-relative offset survives
    rb.writeAt(0, toBytes("W"));
    rb.commit(4);
    Bytes out;
    rb.readInto(6, out);
    EXPECT_EQ(toPrintable(out), "efWXYZ");

    // Front now at physical 6 of 12: a deposit and a read across the new end.
    rb.writeAt(3, toBytes("qrstuv"));  // physical 9..11, then 0..2
    rb.writeAt(0, toBytes("nop"));
    rb.commit(9);
    EXPECT_EQ(rb.readInto(9, out), 9u);
    EXPECT_EQ(toPrintable(out), "nopqrstuv");
}

TEST(RingBufferDeathTest, WriteAtMayNotOverwriteUnreadBytes) {
    RingBuffer rb(8);
    rb.write(toBytes("abcdef"));
    // off + len fits the capacity, but the deposit would wrap onto "ab".
    EXPECT_DEATH(rb.writeAt(2, toBytes("WXYZ")), "invariant failed");
    rb.writeAt(0, toBytes("gh"));  // exactly the free space is fine
    rb.commit(2);
    EXPECT_EQ(toPrintable(rb.read(8)), "abcdefgh");
}

TEST(RingBuffer, AtIndexesFromFront) {
    RingBuffer rb(4);
    rb.write(toBytes("wxyz"));
    rb.consume(2);
    rb.write(toBytes("AB"));
    EXPECT_EQ(rb.at(0), 'y');
    EXPECT_EQ(rb.at(3), 'B');
}

TEST(Bitmap, RangesAndRuns) {
    Bitmap bm(100);
    bm.setRange(10, 20);
    EXPECT_EQ(bm.countContiguousFrom(10), 10u);
    EXPECT_EQ(bm.countContiguousFrom(0), 0u);
    EXPECT_EQ(bm.popcount(), 10u);
}

TEST(Bitmap, WordBoundarySpanningRun) {
    Bitmap bm(200);
    bm.setRange(60, 70);  // crosses the 64-bit word boundary
    EXPECT_EQ(bm.countContiguousFrom(60), 10u);
    EXPECT_TRUE(bm.test(63));
    EXPECT_TRUE(bm.test(64));
    EXPECT_FALSE(bm.test(70));
}

namespace {

// Reference model: every operation is a loop over a std::vector<bool>, one
// bit at a time, with no word arithmetic and no high-water mark.
struct BitOracle {
    std::vector<bool> bits;

    void setRange(std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) bits[i] = true;
    }
    void shiftDown(std::size_t by) {
        for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] = i + by < bits.size() && bits[i + by];
    }
    std::size_t find(std::size_t from, bool value) const {
        while (from < bits.size() && bits[from] != value) ++from;
        return from;
    }
    std::size_t popcount() const { return std::size_t(std::count(bits.begin(), bits.end(), true)); }
    std::size_t highWater() const {
        std::size_t hw = bits.size();
        while (hw > 0 && !bits[hw - 1]) --hw;
        return hw;
    }
};

// Compares every bit, the count, the high-water mark and the scans from a
// spread of start points (word edges, the mark, the end, random picks).
void expectMatches(const Bitmap& bm, const BitOracle& o, sim::Rng& rng, bool everyBit) {
    const std::size_t n = o.bits.size();
    ASSERT_EQ(bm.size(), n);
    ASSERT_EQ(bm.popcount(), o.popcount());
    const std::size_t hw = o.highWater();
    ASSERT_EQ(bm.highWater(), hw);
    if (everyBit) {
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bm.test(i), o.bits[i]) << "bit " << i;
    }
    std::vector<std::size_t> starts = {0, 1, 63, 64, 65, 127, 128, hw, n};
    if (hw > 0) starts.push_back(hw - 1);
    for (int k = 0; k < 8; ++k) starts.push_back(std::size_t(rng.uniformInt(n + 1)));
    for (const std::size_t from : starts) {
        if (from > n) continue;
        ASSERT_EQ(bm.findNextSet(from), o.find(from, true)) << "from " << from;
        ASSERT_EQ(bm.findNextClear(from), o.find(from, false)) << "from " << from;
        ASSERT_EQ(bm.countContiguousFrom(from), o.find(from, false) - from) << "from " << from;
    }
}

// One random operation applied to both: mostly runs near the high-water
// mark (the reassembly pattern), shifts by word-edge and random amounts,
// shifts past the mark, and occasional grows.
void randomStep(Bitmap& bm, BitOracle& o, sim::Rng& rng, std::size_t maxGrow) {
    const std::size_t n = o.bits.size();
    const std::uint64_t kind = rng.uniformInt(10);
    if (kind < 5 && n > 0) {
        const std::size_t hw = o.highWater();
        const std::size_t near = std::min(n - 1, hw + std::size_t(rng.uniformInt(200)));
        const std::size_t b = rng.chance(0.5) ? near : std::size_t(rng.uniformInt(n));
        const std::size_t e = std::min(n, b + std::size_t(rng.uniformInt(1600)));
        bm.setRange(b, e);
        o.setRange(b, e);
    } else if (kind < 9) {
        static constexpr std::size_t kEdges[] = {0, 1, 63, 64, 65, 127, 128, 129};
        const std::size_t hw = o.highWater();
        std::size_t by;
        switch (rng.uniformInt(4)) {
            case 0: by = kEdges[rng.uniformInt(std::size(kEdges))]; break;
            case 1: by = std::size_t(rng.uniformInt(hw + 1)); break;
            case 2: by = hw + std::size_t(rng.uniformInt(3)); break;  // clears all
            default: by = std::size_t(rng.uniformInt(n + 130)); break;
        }
        bm.shiftDown(by);
        o.shiftDown(by);
    } else if (maxGrow > 0) {
        const std::size_t grown = n + std::size_t(rng.uniformInt(maxGrow + 1));
        bm.grow(grown);
        o.bits.resize(grown, false);
    }
}

}  // namespace

TEST(Bitmap, MatchesBitOracleAtWordEdgeSizes) {
    for (const std::size_t size : {1u, 63u, 64u, 65u, 1000u}) {
        sim::Rng rng(0xb17ull + size);
        Bitmap bm(size);
        BitOracle o{std::vector<bool>(size, false)};
        for (int step = 0; step < 2000; ++step) {
            SCOPED_TRACE(::testing::Message() << "size " << size << " step " << step);
            // Grow only in the second half, so the first half keeps the
            // exact word-edge size.
            randomStep(bm, o, rng, step < 1000 ? 0 : 3);
            expectMatches(bm, o, rng, /*everyBit=*/true);
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
}

TEST(Bitmap, MatchesBitOracleWhileGrowingFrom16KiBTo512KiB) {
    sim::Rng rng(0x512);
    std::size_t size = 16 * 1024;
    Bitmap bm(size);
    BitOracle o{std::vector<bool>(size, false)};
    for (int step = 0; step < 6 * 16; ++step) {
        if (step > 0 && step % 16 == 0) {
            size *= 2;  // the receive-buffer autotuner doubles, 16 KiB .. 512 KiB
            bm.grow(size);
            o.bits.resize(size, false);
        }
        SCOPED_TRACE(::testing::Message() << "size " << size << " step " << step);
        randomStep(bm, o, rng, 0);
        expectMatches(bm, o, rng, /*everyBit=*/step % 8 == 7);
        if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(bm.size(), 512u * 1024);
}

TEST(Summary, PercentilesAndMoments) {
    Summary s;
    for (int i = 1; i <= 100; ++i) s.add(double(i));
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
    EXPECT_NEAR(s.median(), 50.5, 0.001);
    EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 100.0);
}

TEST(Summary, Histogram) {
    Summary s;
    for (int i = 0; i < 10; ++i) s.add(0.5);
    for (int i = 0; i < 5; ++i) s.add(1.5);
    const auto h = s.histogram(0.0, 2.0, 2);
    EXPECT_EQ(h[0], 10u);
    EXPECT_EQ(h[1], 5u);
}
