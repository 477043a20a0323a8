// Tests: embedded-TCP baselines (uIP/BLIP profiles), RED queue, analytical
// models, and the sensor application plumbing.
#include <gtest/gtest.h>

#include "tcplp/app/sensor.hpp"
#include "tcplp/harness/pipe.hpp"
#include "tcplp/ip6/red_queue.hpp"
#include "tcplp/model/models.hpp"
#include "tcplp/transport/embedded_tcp.hpp"

using namespace tcplp;

// --- Embedded TCP baselines ---------------------------------------------------

namespace {
struct EmbeddedPair {
    sim::Simulator simulator;
    harness::Pipe pipe;
    transport::EmbeddedTcpSocket client;
    tcp::TcpStack serverStack;
    Bytes received;

    explicit EmbeddedPair(transport::EmbeddedTcpConfig cfg = {},
                          harness::Pipe::Config pc = {}, std::uint64_t seed = 3)
        : simulator(seed),
          pipe(simulator, pc),
          client(pipe.a(), cfg),
          serverStack(pipe.b()) {
        tcp::TcpConfig serverCfg;
        serverCfg.sendBufferBytes = serverCfg.recvBufferBytes = 8192;
        serverStack.listen(80, serverCfg, [this](tcp::TcpSocket& s) {
            s.setOnData([this](BytesView d) { append(received, d); });
        });
    }
};
}  // namespace

TEST(EmbeddedTcp, InteroperatesWithFullScalePeer) {
    EmbeddedPair t;
    bool connected = false;
    t.client.setOnConnected([&] { connected = true; });
    t.client.connect(t.pipe.b().address(), 80);
    t.simulator.runUntil(5 * sim::kSecond);
    ASSERT_TRUE(connected);

    t.client.send(patternBytes(0, 600));
    t.simulator.runUntil(2 * sim::kMinute);
    EXPECT_EQ(t.received.size(), 600u);
    EXPECT_TRUE(matchesPattern(0, t.received));
}

TEST(EmbeddedTcp, StopAndWaitOneSegmentAtATime) {
    // 600 B at MSS 60: exactly 10 data segments, each needing its own RTT —
    // the single-outstanding-segment property of uIP/BLIP (Table 7).
    EmbeddedPair t;
    t.client.connect(t.pipe.b().address(), 80);
    t.simulator.runUntil(5 * sim::kSecond);
    const sim::Time start = t.simulator.now();
    t.client.send(patternBytes(0, 600));
    t.simulator.runUntil(start + 5 * sim::kMinute);
    EXPECT_EQ(t.received.size(), 600u);
    EXPECT_EQ(t.client.stats().segsSent - 2, 10u);  // minus SYN + handshake ACK
}

TEST(EmbeddedTcp, UipEstimatesRttBlipDoesNot) {
    // BLIP profile keeps the fixed 3 s RTO; uIP adapts down on a 100 ms path,
    // so after loss uIP retransmits much sooner.
    auto lossRecovery = [](transport::EmbeddedProfile profile) {
        transport::EmbeddedTcpConfig cfg;
        cfg.profile = profile;
        EmbeddedPair t(cfg, {}, 5);
        t.client.connect(t.pipe.b().address(), 80);
        t.simulator.runUntil(5 * sim::kSecond);
        // Warm up RTT estimate with clean transfers.
        t.client.send(patternBytes(0, 300));
        t.simulator.runUntil(t.simulator.now() + 30 * sim::kSecond);
        // One lost transmission.
        t.pipe.config().lossAtoB = 1.0;
        t.client.send(patternBytes(300, 60));
        t.simulator.runUntil(t.simulator.now() + 100 * sim::kMillisecond);
        t.pipe.config().lossAtoB = 0.0;
        const sim::Time lossAt = t.simulator.now();
        t.simulator.runUntil(lossAt + 30 * sim::kSecond);
        return std::make_pair(t.received.size(), t.client.stats().retransmissions);
    };
    const auto uip = lossRecovery(transport::EmbeddedProfile::kUip);
    const auto blip = lossRecovery(transport::EmbeddedProfile::kBlip);
    EXPECT_EQ(uip.first, 360u);
    EXPECT_EQ(blip.first, 360u);
    EXPECT_GE(uip.second, 1u);
    EXPECT_GE(blip.second, 1u);
}

TEST(EmbeddedTcp, DropsOutOfOrderData) {
    EXPECT_EQ(transport::EmbeddedTcpStats{}.oooDropped, 0u);
    // (OOO delivery cannot be produced over the FIFO pipe; the counter is
    // exercised by the stack comparison bench over the radio.)
}

// --- RED queue ---------------------------------------------------------------

TEST(RedQueue, TailDropAtCapacity) {
    sim::Simulator simulator(1);
    ip6::RedConfig cfg;
    cfg.capacityPackets = 3;
    ip6::RedQueue q(simulator, cfg);
    ip6::Packet p;
    EXPECT_TRUE(q.push(p));
    EXPECT_TRUE(q.push(p));
    EXPECT_TRUE(q.push(p));
    EXPECT_FALSE(q.push(p));
    EXPECT_EQ(q.stats().tailDropped, 1u);
}

TEST(RedQueue, RedDropsProbabilisticallyAboveThreshold) {
    sim::Simulator simulator(2);
    ip6::RedConfig cfg;
    cfg.discipline = ip6::QueueDiscipline::kRed;
    cfg.capacityPackets = 10;
    cfg.minThreshold = 1.0;
    cfg.maxThreshold = 4.0;
    cfg.maxMarkProbability = 0.5;
    cfg.ecnMarking = false;
    ip6::RedQueue q(simulator, cfg);
    ip6::Packet p;
    int dropped = 0;
    for (int i = 0; i < 2000; ++i) {
        if (!q.push(p)) ++dropped;
        if (q.size() > 3) q.pop();  // keep average in the marking band
    }
    EXPECT_GT(dropped, 50);
    EXPECT_LT(dropped, 1500);
}

TEST(RedQueue, EcnMarksInsteadOfDroppingEctPackets) {
    sim::Simulator simulator(3);
    ip6::RedConfig cfg;
    cfg.discipline = ip6::QueueDiscipline::kRed;
    cfg.capacityPackets = 10;
    cfg.minThreshold = 0.0;
    cfg.maxThreshold = 1.0;
    cfg.maxMarkProbability = 1.0;
    cfg.ecnMarking = true;
    ip6::RedQueue q(simulator, cfg);
    ip6::Packet p;
    p.setEcn(ip6::Ecn::kCapable0);
    q.push(p);
    q.push(p);
    q.push(p);
    EXPECT_GT(q.stats().ecnMarked, 0u);
    EXPECT_EQ(q.stats().redDropped, 0u);
    bool sawCe = false;
    while (!q.empty())
        sawCe |= (q.pop().ecn() == ip6::Ecn::kCongestionExperienced);
    EXPECT_TRUE(sawCe);
}

TEST(RedQueue, AverageDecaysAcrossIdlePeriods) {
    // Classic RED idle bug: the EWMA only updates on enqueue, so without an
    // idle correction the average freezes across quiet periods and the first
    // burst after silence is over-marked. The fix decays avg by the elapsed
    // idle time in units of idlePacketTime (Floyd & Jacobson §4).
    sim::Simulator simulator(4);
    ip6::RedConfig cfg;
    cfg.discipline = ip6::QueueDiscipline::kRed;
    cfg.capacityPackets = 10;
    cfg.minThreshold = 1.0;
    cfg.maxThreshold = 1000.0;  // marking off while we shape the average
    cfg.maxMarkProbability = 0.0;
    cfg.weight = 0.25;
    cfg.idlePacketTime = 4 * sim::kMillisecond;
    ip6::RedQueue q(simulator, cfg);
    ip6::Packet p;

    // Drive the EWMA well above minThreshold, then drain to empty.
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.push(p));
    while (!q.empty()) q.pop();
    const double avgBusy = q.averageQueueSize();
    ASSERT_GT(avgBusy, cfg.minThreshold);

    // An immediate arrival still sees (nearly) the busy-period average.
    ASSERT_TRUE(q.push(p));
    EXPECT_GT(q.averageQueueSize(), 0.5 * avgBusy);
    q.pop();

    // After one idle second (250 packet times) the average must have decayed
    // to ~0, so a fresh burst is not marked against stale history.
    simulator.runUntil(simulator.now() + sim::kSecond);
    q.mutableConfig().maxMarkProbability = 1.0;  // marking live again
    q.mutableConfig().maxThreshold = 4.0;
    q.mutableConfig().ecnMarking = false;
    const auto droppedBefore = q.stats().redDropped;
    EXPECT_TRUE(q.push(p));
    EXPECT_EQ(q.stats().redDropped, droppedBefore);
    EXPECT_LT(q.averageQueueSize(), cfg.minThreshold);
}

// --- Analytical models ----------------------------------------------------------

TEST(Models, Equation2MatchesHandComputation) {
    // B = MSS/RTT * 1/(1/w + 2p): MSS=462B, RTT=0.75s, w=4, p=0.01.
    const double b = model::llnGoodput(462.0, 0.75, 0.01, 4.0);
    EXPECT_NEAR(b, 462.0 / 0.75 / (0.25 + 0.02), 1e-9);
}

TEST(Models, LlnModelRobustToSmallLossMathisIsNot) {
    // §8: B is less sensitive to p when p is small, unlike Equation 1.
    const double mss = 462.0, rtt = 0.75, w = 4.0;
    const double llnClean = model::llnGoodput(mss, rtt, 1e-4, w);
    const double llnLossy = model::llnGoodput(mss, rtt, 0.06, w);
    EXPECT_GT(llnLossy / llnClean, 0.6);  // ~33% hit at 6% loss

    const double mathisClean = model::mathisGoodput(mss, rtt, 1e-4);
    const double mathisLossy = model::mathisGoodput(mss, rtt, 0.06);
    EXPECT_LT(mathisLossy / mathisClean, 0.1);  // collapses ~ sqrt(p)
}

TEST(Models, SingleHopBoundNearPaper) {
    // §6.4: 462 B per ~45 ms -> ≈82 kb/s.
    const double bound = model::singleHopUpperBound(462.0, 5.0);
    EXPECT_NEAR(bound * 8.0 / 1000.0, 82.0, 8.0);
}

TEST(Models, MultihopFactorSaturatesAtThree) {
    EXPECT_DOUBLE_EQ(model::multihopFactor(1), 1.0);
    EXPECT_DOUBLE_EQ(model::multihopFactor(2), 0.5);
    EXPECT_DOUBLE_EQ(model::multihopFactor(3), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(model::multihopFactor(4), 1.0 / 3.0);  // §7.2
    EXPECT_DOUBLE_EQ(model::multihopFactor(7), 1.0 / 3.0);
}

TEST(Models, BdpMatchesPaperEstimate) {
    // §6.2: 125 kb/s x 0.1 s ≈ 1.6 KiB.
    EXPECT_NEAR(model::bdpBytes(125000.0, 0.1), 1562.5, 1.0);
}

// --- Sensor app -----------------------------------------------------------------

TEST(SensorApp, ReadingFormatAndCollector) {
    const Bytes r = app::makeReading(14, 99);
    EXPECT_EQ(r.size(), app::kReadingBytes);
    app::ReadingCollector c;
    c.feedStream(r);
    EXPECT_EQ(c.total(), 1u);
    EXPECT_EQ(c.forNode(14), 1u);
}

TEST(SensorApp, CollectorReassemblesSplitStream) {
    app::ReadingCollector c;
    Bytes stream;
    for (std::uint32_t i = 0; i < 10; ++i) append(stream, app::makeReading(3, i));
    // Feed in awkward chunk sizes (TCP segmentation does not respect
    // reading boundaries).
    std::size_t off = 0;
    const std::size_t chunks[] = {100, 7, 300, 1, 250, 162};
    for (std::size_t n : chunks) {
        c.feedStream(BytesView(stream.data() + off, n));
        off += n;
    }
    c.feedStream(BytesView(stream.data() + off, stream.size() - off));
    EXPECT_EQ(c.total(), 10u);
    EXPECT_EQ(c.forNode(3), 10u);
}

TEST(SensorApp, QueueOverflowCountsDrops) {
    sim::Simulator simulator;
    // Transport that never drains: every sample beyond capacity drops.
    struct Stuck : app::SensorTransport {
        void pump(app::ReadingQueue&, app::SensorStats&) override {}
    } stuck;
    app::SensorConfig cfg;
    cfg.queueCapacity = 5;
    cfg.sampleInterval = sim::kSecond;
    app::SensorNode node(simulator, 1, stuck, cfg);
    node.start();
    simulator.runUntil(20 * sim::kSecond);
    EXPECT_EQ(node.stats().generated, 20u);
    EXPECT_EQ(node.stats().queueDrops, 15u);
}

TEST(SensorApp, StopEndsSampling) {
    sim::Simulator simulator;
    struct Stuck : app::SensorTransport {
        void pump(app::ReadingQueue&, app::SensorStats&) override {}
    } stuck;
    app::SensorConfig cfg;
    cfg.sampleInterval = sim::kSecond;
    app::SensorNode node(simulator, 1, stuck, cfg);
    node.start();
    simulator.runUntil(3 * sim::kSecond + 500 * sim::kMillisecond);
    EXPECT_EQ(node.stats().generated, 3u);
    node.stop();
    EXPECT_EQ(simulator.pendingEvents(), 0u);  // the 4 s sample is called off
    simulator.runUntil(10 * sim::kSecond);
    EXPECT_EQ(node.stats().generated, 3u);
    // A restart samples one interval later, from a single loop.
    node.start();
    simulator.runUntil(12 * sim::kSecond + 500 * sim::kMillisecond);
    EXPECT_EQ(node.stats().generated, 5u);
}

TEST(SensorApp, BatchingWaitsForThreshold) {
    sim::Simulator simulator;
    struct Counting : app::SensorTransport {
        int pumpsWithData = 0;
        std::uint64_t sent = 0;
        void pump(app::ReadingQueue& q, app::SensorStats& stats) override {
            if (q.size() < 8) return;  // mimic batching threshold
            ++pumpsWithData;
            while (!q.empty()) {
                q.pop();
                ++stats.submitted;
                ++sent;
            }
        }
    } counting;
    app::SensorConfig cfg;
    cfg.queueCapacity = 16;
    app::SensorNode node(simulator, 1, counting, cfg);
    node.start();
    simulator.runUntil(24 * sim::kSecond);
    EXPECT_EQ(counting.sent, 24u);
    EXPECT_EQ(counting.pumpsWithData, 3);  // drained in batches of 8
}
