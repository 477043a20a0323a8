// Unit tests: TCPlp's two specialized buffers (paper §4.3, Figure 1) and
// the segment wire codec.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "tcplp/sim/rng.hpp"
#include "tcplp/tcp/recv_buffer.hpp"
#include "tcplp/tcp/segment.hpp"
#include "tcplp/tcp/send_buffer.hpp"
#include "tcplp/tcp/seq.hpp"

using namespace tcplp;
using namespace tcplp::tcp;

// --- Zero-copy send buffer (§4.3.1) ----------------------------------------

TEST(SendBuffer, CopiedAppendAndRead) {
    SendBuffer sb(100);
    EXPECT_EQ(sb.append(toBytes("hello world")), 11u);
    EXPECT_EQ(toPrintable(sb.read(0, 5)), "hello");
    EXPECT_EQ(toPrintable(sb.read(6, 5)), "world");
}

TEST(SendBuffer, SharedAppendIsZeroCopy) {
    SendBuffer sb(1000);
    auto chunk = std::make_shared<const Bytes>(patternBytes(0, 500));
    EXPECT_EQ(sb.appendShared(chunk), 500u);
    // The buffer owns no storage for the aliased chunk.
    EXPECT_EQ(sb.ownedBytes(), 0u);
    EXPECT_EQ(sb.nodeCount(), 1u);
    EXPECT_TRUE(matchesPattern(0, sb.read(0, 500)));
}

TEST(SendBuffer, SharedAppendAllOrNothing) {
    SendBuffer sb(100);
    auto big = std::make_shared<const Bytes>(patternBytes(0, 200));
    EXPECT_EQ(sb.appendShared(big), 0u);  // refuses: cannot split an alias
    EXPECT_EQ(sb.size(), 0u);
}

TEST(SendBuffer, AckReleasesNodesAndPartials) {
    SendBuffer sb(100);
    sb.append(toBytes("aaaa"));
    sb.append(toBytes("bbbb"));
    sb.ack(6);  // drops the first node, half the second
    EXPECT_EQ(sb.size(), 2u);
    EXPECT_EQ(sb.nodeCount(), 1u);
    EXPECT_EQ(toPrintable(sb.read(0, 2)), "bb");
}

TEST(SendBuffer, ReadSpansNodes) {
    SendBuffer sb(100);
    sb.append(toBytes("abc"));
    sb.append(toBytes("def"));
    sb.append(toBytes("ghi"));
    EXPECT_EQ(toPrintable(sb.read(1, 7)), "bcdefgh");
}

TEST(SendBuffer, AppendClampsToCapacity) {
    SendBuffer sb(10);
    EXPECT_EQ(sb.append(patternBytes(0, 25)), 10u);
    EXPECT_EQ(sb.free(), 0u);
}

// --- In-place reassembly receive buffer (§4.3.2, Figure 1b) ------------------

TEST(RecvBuffer, InOrderInsertAdvances) {
    RecvBuffer rb(100);
    EXPECT_EQ(rb.insert(0, toBytes("hello")), 5u);
    EXPECT_EQ(rb.readable(), 5u);
    EXPECT_EQ(toPrintable(rb.read(5)), "hello");
}

TEST(RecvBuffer, OutOfOrderHeldThenCommitted) {
    RecvBuffer rb(100);
    EXPECT_EQ(rb.insert(5, toBytes("world")), 0u);  // gap: held out of order
    EXPECT_EQ(rb.readable(), 0u);
    EXPECT_EQ(rb.outOfOrderBytes(), 5u);
    EXPECT_EQ(rb.insert(0, toBytes("hello")), 10u);  // gap filled: both commit
    EXPECT_EQ(toPrintable(rb.read(10)), "helloworld");
    EXPECT_EQ(rb.outOfOrderBytes(), 0u);
}

TEST(RecvBuffer, SackRangesDescribeHeldData) {
    RecvBuffer rb(100);
    rb.insert(10, toBytes("BB"));
    rb.insert(20, toBytes("CCC"));
    const auto ranges = rb.sackRanges();
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[0].begin, 10u);
    EXPECT_EQ(ranges[0].end, 12u);
    EXPECT_EQ(ranges[1].begin, 20u);
    EXPECT_EQ(ranges[1].end, 23u);
}

TEST(RecvBuffer, WindowShrinksWithUnreadData) {
    RecvBuffer rb(50);
    rb.insert(0, patternBytes(0, 30));
    EXPECT_EQ(rb.window(), 20u);
    rb.read(30);
    EXPECT_EQ(rb.window(), 50u);
}

TEST(RecvBuffer, InsertBeyondWindowTrimmed) {
    RecvBuffer rb(10);
    EXPECT_EQ(rb.insert(0, patternBytes(0, 20)), 10u);  // trimmed to capacity
    EXPECT_EQ(rb.insert(5, toBytes("zz")), 0u);         // no room at all
}

TEST(RecvBuffer, OverlapTrimmedByCallerSemantics) {
    // Offsets are relative to rcv_nxt at call time; the TCP layer trims
    // duplicate prefixes before calling insert. Model a retransmission
    // whose first half was already committed.
    RecvBuffer rb(100);
    rb.insert(0, toBytes("gh"));  // commits 2, rcv_nxt advances by 2
    rb.insert(0, toBytes("ij"));  // caller-trimmed remainder of "ghij"
    EXPECT_EQ(rb.readable(), 4u);
    EXPECT_EQ(toPrintable(rb.read(4)), "ghij");
}

TEST(RecvBuffer, DuplicateOutOfOrderInsertIdempotent) {
    RecvBuffer rb(100);
    rb.insert(4, toBytes("EF"));
    rb.insert(4, toBytes("EF"));  // retransmitted OOO segment
    EXPECT_EQ(rb.outOfOrderBytes(), 2u);
    rb.insert(0, toBytes("abcd"));
    EXPECT_EQ(toPrintable(rb.read(6)), "abcdEF");
}

TEST(RecvBuffer, ManySegmentReorderingScenario) {
    // Property-style: insert segments of a 1000-byte stream in a scrambled
    // order; the committed stream must be exact.
    RecvBuffer rb(2048);
    const Bytes stream = patternBytes(0, 1000);
    const std::size_t kSeg = 100;
    const std::size_t order[] = {3, 0, 7, 1, 2, 9, 5, 4, 6, 8};
    std::size_t committed = 0;
    for (std::size_t idx : order) {
        const std::size_t off = idx * kSeg;
        const std::size_t rel = off >= committed ? off - committed : 0;
        committed += rb.insert(rel, BytesView(stream.data() + off, kSeg));
    }
    EXPECT_EQ(committed, 1000u);
    EXPECT_TRUE(matchesPattern(0, rb.read(1000)));
}

namespace {

// RecvBuffer's scans as they were when they walked the bitmap one bit at a
// time, copied with the bitmap's test(i) replaced by `held(i)`: the SACK
// block walk over the advertisable window, and the popcount over every bit.
template <typename Held>
std::vector<RecvRange> bitWalkSackRanges(Held held, std::size_t limit,
                                         std::size_t maxBlocks = 3) {
    std::vector<RecvRange> out;
    std::size_t i = 0;
    while (i < limit && out.size() < maxBlocks) {
        while (i < limit && !held(i)) ++i;
        if (i >= limit) break;
        std::size_t j = i;
        while (j < limit && held(j)) ++j;
        out.push_back(RecvRange{i, j});
        i = j;
    }
    return out;
}

template <typename Held>
std::size_t bitWalkPopcount(Held held, std::size_t bits) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < bits; ++i) n += held(i);
    return n;
}

}  // namespace

TEST(RecvBuffer, ScansMatchTheBitWalkOnAGrown512KiBBuffer) {
    // A stream cut into random-sized segments arrives with losses resent
    // 3..100 arrivals later, some duplicates, and resends of what the window
    // refused, into a buffer that autotunes from 16 KiB to 512 KiB while
    // data is parked; the application drains at random points. A model of
    // which stream bytes have arrived gives the bits the old walk read.
    constexpr std::size_t kStream = 640 * 1024;
    const Bytes stream = patternBytes(0, kStream);
    sim::Rng rng(0x5ac);

    std::vector<std::pair<std::size_t, std::size_t>> segs;  // (begin, length)
    for (std::size_t pos = 0; pos < kStream;) {
        const std::size_t len = std::min<std::size_t>(1 + rng.uniformInt(1460), kStream - pos);
        segs.emplace_back(pos, len);
        pos += len;
    }

    RecvBuffer rb(16 * 1024);
    std::vector<bool> arrived(kStream, false);
    std::size_t rcvNxt = 0;
    std::size_t appRead = 0;
    std::size_t readAtGrow = 0;
    std::size_t nextNew = 0;
    std::multimap<std::size_t, std::size_t> resend;  // arrival slot -> segment
    Bytes scratch;
    for (std::size_t slot = 0; rcvNxt < kStream; ++slot) {
        SCOPED_TRACE(::testing::Message() << "slot " << slot << " capacity " << rb.capacity());
        ASSERT_LT(slot, 20 * segs.size());
        std::size_t idx;
        if (nextNew < segs.size() && (resend.empty() || resend.begin()->first > slot)) {
            idx = nextNew++;
            if (rng.chance(0.06)) {
                resend.emplace(slot + 3 + rng.uniformInt(98), idx);  // lost
                continue;
            }
            if (rng.chance(0.03)) resend.emplace(slot + 1 + rng.uniformInt(50), idx);
        } else {
            ASSERT_FALSE(resend.empty());
            idx = resend.begin()->second;
            resend.erase(resend.begin());
        }

        const auto [segBegin, segLen] = segs[idx];
        if (segBegin + segLen > rcvNxt) {
            const std::size_t begin = std::max(segBegin, rcvNxt);  // trim the old prefix
            const std::size_t len = segBegin + segLen - begin;
            const std::size_t offset = begin - rcvNxt;
            const std::size_t win = rb.window();
            ASSERT_EQ(win, rb.capacity() - (rcvNxt - appRead));
            const std::size_t kept = offset < win ? std::min(len, win - offset) : 0;
            if (kept < len) resend.emplace(slot + 1 + rng.uniformInt(50), idx);
            for (std::size_t i = begin; i < begin + kept; ++i) arrived[i] = true;
            std::size_t next = rcvNxt;
            while (next < kStream && arrived[next]) ++next;
            ASSERT_EQ(rb.insert(offset, BytesView(stream.data() + begin, len)), next - rcvNxt);
            rcvNxt = next;
        }

        const auto held = [&](std::size_t i) {
            return rcvNxt + i < kStream && arrived[rcvNxt + i];
        };
        const auto got = rb.sackRanges();
        const auto want = bitWalkSackRanges(held, rb.window());
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < got.size(); ++b) {
            ASSERT_EQ(got[b].begin, want[b].begin) << "block " << b;
            ASSERT_EQ(got[b].end, want[b].end) << "block " << b;
        }
        ASSERT_EQ(rb.outOfOrderBytes(), bitWalkPopcount(held, rb.capacity()));

        if (rng.chance(0.5)) {
            rb.readInto(std::size_t(rng.uniformInt(rb.readable() + 1)), scratch);
            ASSERT_TRUE(matchesPattern(appRead, scratch));
            appRead += scratch.size();
        }
        // Grow once the application has read more than a ring's worth since
        // the last grow, so every ring wraps before it grows.
        if (appRead - readAtGrow > rb.capacity() && rb.capacity() < 512 * 1024) {
            rb.grow(2 * rb.capacity());
            readAtGrow = appRead;
        }
    }
    EXPECT_EQ(rb.capacity(), 512u * 1024);
    EXPECT_EQ(rb.outOfOrderBytes(), 0u);
    EXPECT_TRUE(matchesPattern(appRead, rb.read(rb.readable())));
}

// --- Sequence arithmetic -----------------------------------------------------

TEST(SeqArith, WrapsCorrectly) {
    const Seq nearMax = 0xfffffff0u;
    EXPECT_TRUE(seqLt(nearMax, nearMax + 0x20));  // wrapped forward
    EXPECT_TRUE(seqGt(nearMax + 0x20, nearMax));
    EXPECT_EQ(seqDiff(nearMax + 0x20, nearMax), 0x20);
    EXPECT_EQ(seqMax(nearMax, nearMax + 1), nearMax + 1);
}

// --- Segment codec ------------------------------------------------------------

TEST(SegmentCodec, RoundTripAllOptions) {
    Segment s;
    s.srcPort = 49152;
    s.dstPort = 80;
    s.seq = 0xdeadbeef;
    s.ack = 0xfeedface;
    s.window = 1848;
    s.flags.ack = true;
    s.flags.psh = true;
    s.mssOption = 462;
    s.sackPermitted = true;
    s.timestamps = Timestamps{123456, 654321};
    s.sackBlocks = {{100, 200}, {300, 400}};
    s.payload = patternBytes(0, 50);

    const PacketBuffer wire = s.encode();
    const auto d = Segment::decode(wire);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->srcPort, s.srcPort);
    EXPECT_EQ(d->dstPort, s.dstPort);
    EXPECT_EQ(d->seq, s.seq);
    EXPECT_EQ(d->ack, s.ack);
    EXPECT_EQ(d->window, s.window);
    EXPECT_TRUE(d->flags.ack);
    EXPECT_TRUE(d->flags.psh);
    EXPECT_EQ(d->mssOption, s.mssOption);
    EXPECT_TRUE(d->sackPermitted);
    ASSERT_TRUE(d->timestamps);
    EXPECT_EQ(d->timestamps->value, 123456u);
    EXPECT_EQ(d->timestamps->echo, 654321u);
    EXPECT_EQ(d->sackBlocks, s.sackBlocks);
    EXPECT_EQ(d->payload, s.payload);
}

TEST(SegmentCodec, HeaderSizeWithinPaperRange) {
    // Table 6: TCP header 20-44 bytes.
    Segment bare;
    EXPECT_EQ(bare.headerBytes(), 20u);

    Segment syn;
    syn.flags.syn = true;
    syn.mssOption = 462;
    syn.sackPermitted = true;
    syn.timestamps = Timestamps{1, 0};
    EXPECT_LE(syn.headerBytes(), 44u);

    Segment full;
    full.timestamps = Timestamps{1, 2};
    full.sackBlocks = {{1, 2}, {3, 4}, {5, 6}};  // 3 SACK blocks max
    EXPECT_LE(full.headerBytes(), 60u);
    EXPECT_EQ(full.headerBytes() % 4, 0u);
}

TEST(SegmentCodec, RejectsTruncatedInput) {
    Segment s;
    s.timestamps = Timestamps{1, 2};
    const Bytes wire = s.encode().toBytes();
    for (std::size_t cut = 1; cut < 20; ++cut) {
        EXPECT_FALSE(
            Segment::decode(BytesView(wire.data(), cut)).has_value());
    }
}

TEST(SegmentCodec, FlagsRoundTrip) {
    for (int bits = 0; bits < 256; ++bits) {
        const Flags f = Flags::decode(std::uint8_t(bits));
        const std::uint8_t re = f.encode();
        // Bits 5 (URG) is unsupported and dropped; all others round trip.
        EXPECT_EQ(re & 0xdf, std::uint8_t(bits) & 0xdf);
    }
}
