// High-BDP frontier: RFC 7323 window scaling, receive-buffer autotuning,
// and MAC frame aggregation.
//
// Three suites (named so CI's ASan rerun filter can pick them up):
//
//  WindowScale  Shift-aware codec properties (round-trip for shifts 0..14,
//               clamping, the SYN exemption), handshake negotiation in both
//               directions, the >14 peer-shift clamp via a crafted SYN-ACK,
//               and the window-handling bugfix pins: RFC 793 SND.WL1/WL2
//               ordering, the challenge-ACK guard, receiver-side SWS
//               avoidance (RFC 1122 §4.2.3.3), and the bdp_pipe gate: at
//               24 Mb/s x 50 ms scaled+autotuned goodput is >= 2x unscaled.
//  Autotune     DRS-style receive-buffer growth stops exactly at the
//               configured budget; no budget (or one at/below the initial
//               capacity) means no growth; RecvBuffer::grow preserves both
//               in-sequence and out-of-order bytes.
//  MacAgg       A-MPDU-style bursts amortize the CSMA ladder across queued
//               frames; the stock aggFrames=1 config never aggregates.
#include <gtest/gtest.h>

#include <algorithm>

#include "tcplp/harness/pipe.hpp"
#include "tcplp/mac/csma.hpp"
#include "tcplp/phy/channel.hpp"
#include "tcplp/phy/radio.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/tcp/recv_buffer.hpp"
#include "tcplp/tcp/segment.hpp"
#include "tcplp/tcp/tcp.hpp"

using namespace tcplp;

namespace {

/// Client/server sockets over a pipe, each with its own config; the accept
/// callback captures the server-side socket so tests can inspect both TCBs.
struct WsPair {
    sim::Simulator simulator{7};
    harness::Pipe pipe;
    tcp::TcpStack clientStack;
    tcp::TcpStack serverStack;
    tcp::TcpSocket* client = nullptr;
    tcp::TcpSocket* server = nullptr;
    std::function<void(tcp::TcpSocket&)> onAccept;  // set before connecting

    WsPair(const tcp::TcpConfig& clientCfg, const tcp::TcpConfig& serverCfg,
           bool connect = true)
        : pipe(simulator), clientStack(pipe.a()), serverStack(pipe.b()) {
        serverStack.listen(80, serverCfg, [this](tcp::TcpSocket& s) {
            server = &s;
            if (onAccept) onAccept(s);
        });
        client = &clientStack.createSocket(clientCfg);
        if (connect) {
            client->connect(pipe.b().address(), 80);
            simulator.runUntil(2 * sim::kSecond);
        }
    }

    void run(sim::Time dt) { simulator.runUntil(simulator.now() + dt); }
    void cutWire() { pipe.config().lossAtoB = pipe.config().lossBtoA = 1.0; }

    /// Injects a crafted segment from the "server" side into the client.
    void inject(tcp::Segment seg) {
        seg.srcPort = 80;
        seg.dstPort = client->localPort();
        client->input(seg, ip6::Ecn::kNotCapable);
        run(10 * sim::kMillisecond);
    }
};

tcp::TcpConfig scriptedCfg() {
    tcp::TcpConfig cfg;
    cfg.mss = 100;
    cfg.sendBufferBytes = 800;
    cfg.recvBufferBytes = 800;
    cfg.timestamps = false;  // injected segments need no option bookkeeping
    cfg.sack = false;
    return cfg;
}

// --- WindowScale: codec properties ------------------------------------------

TEST(WindowScale, CodecRoundTripsAllShifts) {
    for (std::uint8_t shift = 0; shift <= tcp::kMaxWindowShift; ++shift) {
        const std::uint32_t grain = 1u << shift;
        tcp::Segment seg;
        // Exact multiples of the granularity round-trip losslessly up to
        // the 16-bit field's reach.
        for (std::uint32_t units : {0u, 1u, 37u, 65535u}) {
            const std::uint32_t bytes = units * grain;
            seg.setWindowBytes(bytes, shift);
            EXPECT_EQ(seg.windowBytes(shift), bytes) << "shift " << int(shift);
        }
        // Values past 65535 << shift clamp to the field's maximum.
        seg.setWindowBytes(0xffffffffu, shift);
        EXPECT_EQ(seg.window, 0xffffu);
        EXPECT_EQ(seg.windowBytes(shift), std::uint32_t(65535u) << shift);
        // Non-multiples floor to the granularity (never round up past the
        // real buffer space).
        if (shift > 0) {
            seg.setWindowBytes(grain + 1, shift);
            EXPECT_EQ(seg.windowBytes(shift), grain);
        }
    }
}

TEST(WindowScale, WireOptionSurvivesEncodeDecode) {
    for (std::uint8_t shift = 0; shift <= tcp::kMaxWindowShift; ++shift) {
        tcp::Segment seg;
        seg.srcPort = 1;
        seg.dstPort = 2;
        seg.flags.syn = true;
        seg.mssOption = 1220;
        seg.windowScale = shift;
        seg.setWindowBytes(4321, shift);
        const auto decoded = tcp::Segment::decode(seg.encode());
        ASSERT_TRUE(decoded.has_value());
        ASSERT_TRUE(decoded->windowScale.has_value());
        EXPECT_EQ(*decoded->windowScale, shift);
        EXPECT_EQ(decoded->window, 4321u);  // SYN window rides unscaled
    }
}

TEST(WindowScale, SynWindowFieldIsNeverScaled) {
    tcp::Segment seg;
    seg.flags.syn = true;
    seg.setWindowBytes(1u << 20, 10);
    EXPECT_EQ(seg.window, 0xffffu);             // raw clamp, no shift applied
    EXPECT_EQ(seg.windowBytes(10), 0xffffu);    // and reads ignore it too

    seg.flags.syn = false;
    seg.setWindowBytes(1u << 20, 10);
    EXPECT_EQ(seg.window, 1024u);
    EXPECT_EQ(seg.windowBytes(10), 1u << 20);
}

// --- WindowScale: handshake negotiation -------------------------------------

TEST(WindowScale, HandshakeNegotiatesIndependentShifts) {
    tcp::TcpConfig clientCfg = scriptedCfg();
    clientCfg.windowScaling = true;
    clientCfg.recvBufferMaxBytes = 1u << 20;  // needs shift 5
    tcp::TcpConfig serverCfg = scriptedCfg();
    serverCfg.windowScaling = true;
    serverCfg.recvBufferBytes = 256 * 1024;   // needs shift 3

    WsPair p(clientCfg, serverCfg);
    ASSERT_EQ(p.client->state(), tcp::State::kEstablished);
    ASSERT_NE(p.server, nullptr);
    EXPECT_TRUE(p.client->tcb().wsEnabled);
    EXPECT_TRUE(p.server->tcb().wsEnabled);
    EXPECT_EQ(p.client->tcb().rcvWndShift, 5);
    EXPECT_EQ(p.server->tcb().sndWndShift, 5);
    EXPECT_EQ(p.server->tcb().rcvWndShift, 3);
    EXPECT_EQ(p.client->tcb().sndWndShift, 3);
}

TEST(WindowScale, NoScalingUnlessBothSidesOffer) {
    tcp::TcpConfig clientCfg = scriptedCfg();
    clientCfg.windowScaling = true;
    clientCfg.recvBufferMaxBytes = 1u << 20;
    tcp::TcpConfig serverCfg = scriptedCfg();  // windowScaling defaults off

    WsPair p(clientCfg, serverCfg);
    ASSERT_EQ(p.client->state(), tcp::State::kEstablished);
    EXPECT_FALSE(p.client->tcb().wsEnabled);
    EXPECT_FALSE(p.server->tcb().wsEnabled);
    EXPECT_EQ(p.client->tcb().sndWndShift, 0);
    EXPECT_EQ(p.client->tcb().rcvWndShift, 0);
}

TEST(WindowScale, PeerShiftAboveFourteenIsClamped) {
    tcp::TcpConfig clientCfg = scriptedCfg();
    clientCfg.windowScaling = true;
    clientCfg.recvBufferMaxBytes = 1u << 20;

    WsPair p(clientCfg, scriptedCfg(), /*connect=*/false);
    p.cutWire();  // the scripted SYN-ACK below is the only reply
    p.client->connect(p.pipe.b().address(), 80);
    p.run(50 * sim::kMillisecond);
    ASSERT_EQ(p.client->state(), tcp::State::kSynSent);

    tcp::Segment synack;
    synack.flags.syn = synack.flags.ack = true;
    synack.seq = 5000;
    synack.ack = p.client->tcb().iss + 1;
    synack.window = 1000;
    synack.mssOption = 100;
    synack.windowScale = 15;  // RFC 7323 §2.3: clamp, never reject
    p.inject(synack);

    ASSERT_EQ(p.client->state(), tcp::State::kEstablished);
    EXPECT_TRUE(p.client->tcb().wsEnabled);
    EXPECT_EQ(p.client->tcb().sndWndShift, tcp::kMaxWindowShift);
    EXPECT_EQ(p.client->tcb().sndWnd, 1000u);  // SYN-ACK window unscaled
}

// --- WindowScale: window-update hardening -----------------------------------

/// Rig for the update-ordering pins: established over a real wire, wire cut,
/// then crafted ACK segments drive updateWindow directly.
struct UpdateRig : WsPair {
    UpdateRig() : WsPair(scriptedCfg(), scriptedCfg()) {
        EXPECT_EQ(client->state(), tcp::State::kEstablished);
        cutWire();
        const Bytes data = patternBytes(0, 800);
        client->send(BytesView(data.data(), data.size()));
        run(10 * sim::kMillisecond);
    }

    void injectAck(tcp::Seq seq, tcp::Seq ack, std::uint16_t window) {
        tcp::Segment seg;
        seg.seq = seq;
        seg.ack = ack;
        seg.window = window;
        seg.flags.ack = true;
        inject(seg);
    }
};

TEST(WindowScale, StaleAckCannotRewriteSendWindow) {
    UpdateRig r;
    const tcp::Seq una0 = r.client->tcb().sndUna;
    const tcp::Seq rcv = r.client->tcb().rcvNxt;

    r.injectAck(rcv, una0 + 100, 300);
    EXPECT_EQ(r.client->tcb().sndWnd, 300u);

    // A reordered old segment (same seq, older ack — the SND.WL2 leg)
    // must not overwrite the fresher, smaller window.
    r.injectAck(rcv, una0, 20000);
    EXPECT_EQ(r.client->tcb().sndWnd, 300u);

    // Same seq with an equal-or-newer ack still updates (RFC 793's "=<").
    r.injectAck(rcv, una0 + 100, 600);
    EXPECT_EQ(r.client->tcb().sndWnd, 600u);
}

TEST(WindowScale, BogusFutureAckLeavesWindowStateUntouched) {
    UpdateRig r;
    const tcp::Seq una0 = r.client->tcb().sndUna;
    const tcp::Seq rcv = r.client->tcb().rcvNxt;

    r.injectAck(rcv, una0 + 100, 300);
    EXPECT_EQ(r.client->tcb().sndWnd, 300u);

    // Acks data never sent: draws a challenge ACK, and must leave both
    // sndWnd and the WL1/WL2 bookkeeping alone — were sndWl2 parked at the
    // bogus future ack, every legitimate update below would be rejected.
    r.injectAck(rcv, r.client->tcb().sndMax + 5000, 40);
    EXPECT_EQ(r.client->stats().challengeAcks, 1u);
    EXPECT_EQ(r.client->tcb().sndWnd, 300u);
    EXPECT_EQ(r.client->tcb().sndWl2, una0 + 100);

    r.injectAck(rcv, una0 + 200, 500);
    EXPECT_EQ(r.client->tcb().sndWnd, 500u);
}

// --- WindowScale: receiver-side SWS avoidance -------------------------------

TEST(WindowScale, TrickleReaderDoesNotOscillate) {
    tcp::TcpConfig clientCfg = scriptedCfg();
    clientCfg.sendBufferBytes = 2000;
    tcp::TcpConfig serverCfg = scriptedCfg();  // capacity 800 -> threshold 100

    WsPair p(clientCfg, serverCfg);  // server stays in manual-read mode
    ASSERT_EQ(p.client->state(), tcp::State::kEstablished);
    ASSERT_NE(p.server, nullptr);

    const Bytes data = patternBytes(0, 2000);
    p.client->send(BytesView(data.data(), data.size()));
    p.run(10 * sim::kSecond);

    // Receiver full, sender window closed, persist mode engaged.
    EXPECT_EQ(p.server->readable(), 800u);
    EXPECT_EQ(p.client->tcb().sndWnd, 0u);
    const tcp::Seq una1 = p.client->tcb().sndUna;

    // Reading below min(MSS, capacity/2) = 100 must NOT reopen the window:
    // neither an immediate window update nor the persist-probe responses
    // may advertise the 50-byte sliver. Only probe bytes (1 per persist
    // fire) trickle through.
    EXPECT_FALSE(p.server->read(50).empty());
    p.run(12 * sim::kSecond);
    EXPECT_EQ(p.client->tcb().sndWnd, 0u);
    EXPECT_LE(std::uint32_t(p.client->tcb().sndUna - una1), 5u);

    // Crossing the threshold reopens the window and the stream moves again.
    EXPECT_FALSE(p.server->read(100).empty());
    p.run(3 * sim::kSecond);
    EXPECT_GE(std::uint32_t(p.client->tcb().sndUna - una1), 100u);
}

// --- WindowScale: the BDP gate ----------------------------------------------

/// The bdp_pipe point at the ESP32-class 24 Mb/s x 50 ms corner (BDP ~300
/// KiB), with the golden corpus's 5 s trim (bench/bench_bdp.cpp), inlined
/// because tcplp_tests links none of the bench/ scenario registrations.
scenario::ScenarioSpec bdpGateSpec(bool windowScaling) {
    constexpr std::size_t kBdpBudgetBytes = 512 * 1024;
    scenario::ScenarioSpec s;
    s.topology.kind = scenario::TopologyKind::kPipe;
    s.topology.pipeBandwidthBps = 24e6;
    s.topology.pipeOneWayDelay = sim::fromMillis(50);
    s.workload.mssFrames = 0;
    s.workload.mssBytes = 1220;
    s.workload.bdpBufferBytes = kBdpBudgetBytes;
    s.workload.totalBytes = 50'000'000;
    s.workload.timeLimit = 5 * sim::kSecond;
    s.workload.windowScaling = windowScaling;
    s.workload.recvAutotuneBudgetBytes = windowScaling ? kBdpBudgetBytes : 0;
    return s;
}

TEST(WindowScale, ScaledGoodputDoublesAtTheEsp32GatePoint) {
    // The 16-bit window caps goodput at ~64 KiB per RTT; RFC 7323 scaling
    // plus autotuning must clear 2x that. The golden bdp_pipe rows read
    // 17,114 vs 4,633 kb/s (3.69x); the run is deterministic, so the margin
    // absorbs retunes, not noise.
    const scenario::MetricRow unscaled = scenario::runScenario(bdpGateSpec(false), 1);
    const scenario::MetricRow scaled = scenario::runScenario(bdpGateSpec(true), 1);
    EXPECT_GT(unscaled.number("goodput_kbps"), 0.0);
    EXPECT_GE(scaled.number("goodput_kbps"), 2.0 * unscaled.number("goodput_kbps"));
}

// --- Autotune ---------------------------------------------------------------

/// Streams `total` bytes client->server with the server auto-draining.
struct AutotunePair : WsPair {
    std::size_t remaining;

    AutotunePair(const tcp::TcpConfig& clientCfg, const tcp::TcpConfig& serverCfg,
                 std::size_t total)
        : WsPair(clientCfg, serverCfg, /*connect=*/false), remaining(total) {
        onAccept = [](tcp::TcpSocket& s) { s.setOnData([](BytesView) {}); };  // auto-drain
        client->setOnSendSpace([this] { push(); });
        client->connect(pipe.b().address(), 80);
        run(2 * sim::kSecond);
        EXPECT_EQ(client->state(), tcp::State::kEstablished);
        push();
        run(60 * sim::kSecond);
    }

    void push() {
        while (remaining > 0) {
            const std::size_t n = std::min(remaining, client->sendFree());
            if (n == 0) return;
            const Bytes chunk = patternBytes(0, n);
            remaining -= client->send(BytesView(chunk.data(), chunk.size()));
        }
    }
};

tcp::TcpConfig autotuneServerCfg(std::size_t budget) {
    tcp::TcpConfig cfg = scriptedCfg();
    cfg.recvBufferBytes = 400;
    cfg.recvBufferMaxBytes = budget;
    return cfg;
}

TEST(Autotune, GrowthStopsExactlyAtBudget) {
    tcp::TcpConfig clientCfg = scriptedCfg();
    clientCfg.sendBufferBytes = 4000;
    AutotunePair p(clientCfg, autotuneServerCfg(1600), 20000);
    ASSERT_NE(p.server, nullptr);
    // 400 doubles toward the budget and pins there — never past it.
    EXPECT_EQ(p.server->recvBufferCapacity(), 1600u);
    EXPECT_GT(p.server->autotuneLastRtt(), 0u);
}

TEST(Autotune, NoBudgetMeansNoGrowth) {
    tcp::TcpConfig clientCfg = scriptedCfg();
    clientCfg.sendBufferBytes = 4000;
    AutotunePair p(clientCfg, autotuneServerCfg(0), 20000);
    ASSERT_NE(p.server, nullptr);
    EXPECT_EQ(p.server->recvBufferCapacity(), 400u);
}

TEST(Autotune, BudgetAtOrBelowCapacityIsInert) {
    tcp::TcpConfig clientCfg = scriptedCfg();
    clientCfg.sendBufferBytes = 4000;
    AutotunePair p(clientCfg, autotuneServerCfg(300), 20000);
    ASSERT_NE(p.server, nullptr);
    EXPECT_EQ(p.server->recvBufferCapacity(), 400u);
}

TEST(Autotune, GrowPreservesInSequenceAndOutOfOrderData) {
    tcp::RecvBuffer rb(16);
    const Bytes head = toBytes("abcd");
    const Bytes ooo = toBytes("ij");
    const Bytes gap = toBytes("efgh");
    EXPECT_EQ(rb.insert(0, BytesView(head.data(), head.size())), 4u);
    // Offsets are relative to the advanced rcv_nxt: stream bytes 8..9.
    EXPECT_EQ(rb.insert(4, BytesView(ooo.data(), ooo.size())), 0u);

    rb.grow(32);
    EXPECT_EQ(rb.capacity(), 32u);
    EXPECT_EQ(rb.readable(), 4u);
    EXPECT_EQ(rb.window(), 28u);

    // Filling the gap commits through the out-of-order bytes that were
    // carried across the grow.
    EXPECT_EQ(rb.insert(0, BytesView(gap.data(), gap.size())), 6u);
    EXPECT_EQ(toPrintable(rb.read(10)), "abcdefghij");
}

// --- MacAgg -----------------------------------------------------------------

struct AggPair {
    sim::Simulator simulator{3};
    phy::Channel channel{simulator, 12.0};
    phy::Radio radioA{simulator, channel, 1, {0, 0}};
    phy::Radio radioB{simulator, channel, 2, {10, 0}};
    mac::CsmaMac macA;
    mac::CsmaMac macB;

    explicit AggPair(int aggFrames)
        : macA(radioA, withAgg(aggFrames)), macB(radioB, {}) {}

    static mac::CsmaConfig withAgg(int aggFrames) {
        mac::CsmaConfig cfg;
        cfg.aggFrames = aggFrames;
        return cfg;
    }
};

TEST(MacAgg, BurstAmortizesCsmaLadderAcrossQueuedFrames) {
    AggPair p(4);
    std::string got;
    p.macB.setReceiveCallback(
        [&](phy::NodeId, const PacketBuffer& payload) { got += toPrintable(payload.toBytes()); });
    p.macA.send(2, toBytes("a"));
    p.macA.send(2, toBytes("b"));
    p.macA.send(2, toBytes("c"));
    p.macA.send(2, toBytes("d"));
    p.simulator.run();
    EXPECT_EQ(got, "abcd");  // delivered, and in order
    // One CSMA ladder for the burst leader, three tailgating frames.
    EXPECT_EQ(p.macA.stats().aggregatedFrames, 3u);
}

TEST(MacAgg, StockConfigNeverAggregates) {
    AggPair p(1);
    int delivered = 0;
    p.macB.setReceiveCallback([&](phy::NodeId, const PacketBuffer&) { ++delivered; });
    p.macA.send(2, toBytes("a"));
    p.macA.send(2, toBytes("b"));
    p.macA.send(2, toBytes("c"));
    p.macA.send(2, toBytes("d"));
    p.simulator.run();
    EXPECT_EQ(delivered, 4);
    EXPECT_EQ(p.macA.stats().aggregatedFrames, 0u);
}

TEST(MacAgg, BurstLongerThanConfigStartsFreshLadder) {
    AggPair p(2);  // bursts of at most 2: leader + one tailgater
    int delivered = 0;
    p.macB.setReceiveCallback([&](phy::NodeId, const PacketBuffer&) { ++delivered; });
    for (int i = 0; i < 6; ++i) p.macA.send(2, patternBytes(std::size_t(i), 20));
    p.simulator.run();
    EXPECT_EQ(delivered, 6);
    EXPECT_EQ(p.macA.stats().aggregatedFrames, 3u);  // one tailgater per pair
}

}  // namespace
