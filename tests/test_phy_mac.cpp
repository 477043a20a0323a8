// Unit tests: radio/channel model and CSMA MAC — collisions, hidden
// terminals, link retries, duty cycling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "radio_probe.hpp"
#include "tcplp/mac/csma.hpp"
#include "tcplp/mac/sleepy.hpp"
#include "tcplp/phy/channel.hpp"
#include "tcplp/phy/radio.hpp"
#include "tcplp/sim/simulator.hpp"

using namespace tcplp;
using namespace tcplp::phy;

TEST(Frame, AirTimeMatchesPaperTable5) {
    Frame f;
    f.payload = Bytes(kMaxMacPayloadBytes, 0);
    EXPECT_EQ(f.mpduBytes(), kMaxFrameBytes);
    // Table 5: ~4.1 ms for a full 127 B frame at 250 kb/s.
    EXPECT_NEAR(sim::toMillis(f.airTime()), 4.1, 0.3);
}

TEST(Channel, DeliversWithinRangeOnly) {
    sim::Simulator simulator;
    Channel ch(simulator, 12.0);
    Radio a(simulator, ch, 1, {0, 0});
    Radio b(simulator, ch, 2, {10, 0});
    Radio c(simulator, ch, 3, {30, 0});  // out of range of a

    int bGot = 0, cGot = 0;
    test::RadioProbe bProbe(b, [&](const Frame&) { ++bGot; });
    test::RadioProbe cProbe(c, [&](const Frame&) { ++cGot; });

    Frame f;
    f.src = 1;
    f.dst = kBroadcast;
    f.payload = toBytes("x");
    a.transmit(f);
    simulator.run();
    EXPECT_EQ(bGot, 1);
    EXPECT_EQ(cGot, 0);
}

TEST(Channel, HiddenSendersCollideAtCommonReceiver) {
    // a and b are out of carrier-sense range of each other; r hears both.
    sim::Simulator simulator;
    Channel ch(simulator, 12.0);
    Radio a(simulator, ch, 1, {0, 0});
    Radio r(simulator, ch, 2, {10, 0});
    Radio b(simulator, ch, 3, {20, 0});

    int rGot = 0;
    test::RadioProbe rProbe(r, [&](const Frame&) { ++rGot; });

    Frame f;
    f.dst = kBroadcast;
    f.payload = patternBytes(0, 50);
    f.src = 1;
    a.transmit(f);
    f.src = 3;
    b.transmit(f);  // same instant, can't hear a: overlap at r
    simulator.run();
    EXPECT_EQ(rGot, 0);
    EXPECT_GE(ch.framesCollided(), 1u);
}

TEST(Channel, PerLinkLossDropsFrames) {
    sim::Simulator simulator(99);
    Channel ch(simulator, 20.0);
    Radio a(simulator, ch, 1, {0, 0});
    Radio b(simulator, ch, 2, {10, 0});
    ch.setLinkLoss(1, 2, 1.0);

    int got = 0;
    test::RadioProbe bProbe(b, [&](const Frame&) { ++got; });
    Frame f;
    f.src = 1;
    f.dst = kBroadcast;
    f.payload = toBytes("y");
    a.transmit(f);
    simulator.run();
    EXPECT_EQ(got, 0);
    EXPECT_EQ(ch.framesLostToFading(), 1u);
}

TEST(Radio, AutoAckAnswersUnicast) {
    sim::Simulator simulator;
    Channel ch(simulator, 20.0);
    Radio a(simulator, ch, 1, {0, 0});
    Radio b(simulator, ch, 2, {10, 0});

    int acks = 0;
    test::RadioProbe aProbe(a, [&](const Frame& f) {
        if (f.type == FrameType::kAck) ++acks;
    });
    Frame f;
    f.src = 1;
    f.dst = 2;
    f.ackRequest = true;
    f.payload = toBytes("data");
    a.transmit(f);
    simulator.run();
    EXPECT_EQ(acks, 1);
    EXPECT_EQ(b.autoAcksSent(), 1u);
}

TEST(Radio, SleepingRadioMissesFrames) {
    sim::Simulator simulator;
    Channel ch(simulator, 20.0);
    Radio a(simulator, ch, 1, {0, 0});
    Radio b(simulator, ch, 2, {10, 0});
    b.setSleeping(true);

    int got = 0;
    test::RadioProbe bProbe(b, [&](const Frame&) { ++got; });
    Frame f;
    f.src = 1;
    f.dst = kBroadcast;
    f.payload = toBytes("z");
    a.transmit(f);
    simulator.run();
    EXPECT_EQ(got, 0);
}

TEST(Radio, DutyCycleAccountsSleep) {
    sim::Simulator simulator;
    Channel ch(simulator, 20.0);
    Radio a(simulator, ch, 1, {0, 0});
    a.setSleeping(true);
    simulator.schedule(750'000, [&] { a.setSleeping(false); });
    simulator.runUntil(1'000'000);
    const double dc = a.energy().radioDutyCycle(a.state(), simulator.now());
    EXPECT_NEAR(dc, 0.25, 0.01);
}

// --- CSMA MAC ----------------------------------------------------------------

struct MacPair {
    sim::Simulator simulator;
    Channel channel{simulator, 12.0};
    Radio radioA{simulator, channel, 1, {0, 0}};
    Radio radioB{simulator, channel, 2, {10, 0}};
    mac::CsmaMac macA;
    mac::CsmaMac macB;

    explicit MacPair(mac::CsmaConfig cfg = {}, std::uint64_t seed = 3)
        : simulator(seed), macA(radioA, cfg), macB(radioB, cfg) {}
};

TEST(CsmaMac, UnicastDeliveredAndAcked) {
    MacPair p;
    Bytes got;
    p.macB.setReceiveCallback([&](NodeId src, const PacketBuffer& payload) {
        EXPECT_EQ(src, 1);
        got = payload.toBytes();
    });
    bool ok = false;
    p.macA.send(2, toBytes("hello mac"), [&](const mac::SendResult& r) { ok = r.success; });
    p.simulator.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(toPrintable(got), "hello mac");
    EXPECT_EQ(p.macA.stats().dataDelivered, 1u);
}

TEST(CsmaMac, RetriesWhenAckLost) {
    MacPair p;
    // Receiver hears us but we never hear the ACK (asymmetric loss).
    p.channel.setLinkLossDirectional(2, 1, 1.0);
    int delivered = 0;
    p.macB.setReceiveCallback([&](NodeId, const PacketBuffer&) { ++delivered; });
    bool ok = true;
    p.macA.send(2, toBytes("x"), [&](const mac::SendResult& r) { ok = r.success; });
    p.simulator.run();
    EXPECT_FALSE(ok);
    EXPECT_EQ(p.macA.stats().retries, 7u);  // maxFrameRetries
    EXPECT_EQ(delivered, 1);               // duplicates suppressed
    EXPECT_GE(p.macB.stats().duplicatesSuppressed, 6u);
}

TEST(CsmaMac, QueueTransmitsInOrder) {
    MacPair p;
    std::string got;
    p.macB.setReceiveCallback(
        [&](NodeId, const PacketBuffer& payload) { got += toPrintable(payload); });
    p.macA.send(2, toBytes("a"));
    p.macA.send(2, toBytes("b"));
    p.macA.send(2, toBytes("c"));
    p.simulator.run();
    EXPECT_EQ(got, "abc");
}

TEST(CsmaMac, ResetDuringUploadLeavesTheNextFrameAlone) {
    // A node crash during frame 1's SPI upload: the radio still finishes
    // that upload, and its completion must not be taken for frame 2's.
    MacPair p;
    std::vector<std::string> got;
    p.macB.setReceiveCallback(
        [&](NodeId, const PacketBuffer& payload) { got.push_back(toPrintable(payload)); });
    p.macA.send(2, toBytes("frame 1"));
    while (p.radioA.txIdle()) {
        ASSERT_GT(p.simulator.pendingEvents(), 0u);
        p.simulator.run(1);
    }
    ASSERT_EQ(p.radioA.state(), RadioState::kListen);  // uploading, not on air yet

    p.radioA.setPowered(false);
    p.macA.reset();
    p.radioA.setPowered(true);
    bool ok = false;
    p.macA.send(2, toBytes("frame 2"), [&](const mac::SendResult& r) { ok = r.success; });
    p.simulator.run();

    EXPECT_TRUE(ok);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.back(), "frame 2");
    EXPECT_EQ(p.macA.stats().transmissions, 1u);
    EXPECT_EQ(p.macA.stats().retries, 0u);
}

TEST(CsmaMac, RetryDelayBoundsRespected) {
    mac::CsmaConfig cfg;
    cfg.retryDelayMax = sim::fromMillis(40);
    MacPair p(cfg);
    p.channel.setLinkLossDirectional(2, 1, 1.0);  // force retries
    sim::Time start = 0;
    p.macA.send(2, toBytes("x"), nullptr);
    (void)start;
    p.simulator.run();
    // 7 retries each with up to 40 ms extra delay: total under ~400 ms + tx.
    EXPECT_LT(p.simulator.now(), sim::fromMillis(600));
    EXPECT_GT(p.simulator.now(), sim::fromMillis(40));  // some delay happened
}

TEST(CsmaMac, HiddenTerminalCollisionsReducedByRetryDelay) {
    // Three nodes in a line: 1 and 3 cannot hear each other, both send to 2.
    auto run = [](sim::Time d, std::uint64_t seed) {
        sim::Simulator simulator(seed);
        Channel ch(simulator, 12.0);
        Radio r1(simulator, ch, 1, {0, 0});
        Radio r2(simulator, ch, 2, {10, 0});
        Radio r3(simulator, ch, 3, {20, 0});
        mac::CsmaConfig cfg;
        cfg.retryDelayMax = d;
        mac::CsmaMac m1(r1, cfg), m2(r2, cfg), m3(r3, cfg);
        int delivered = 0;
        m2.setReceiveCallback([&](NodeId, const PacketBuffer&) { ++delivered; });
        int failures = 0;
        auto cb = [&](const mac::SendResult& r) {
            if (!r.success) ++failures;
        };
        for (int i = 0; i < 30; ++i) {
            m1.send(2, patternBytes(std::size_t(i), 80), cb);
            m3.send(2, patternBytes(std::size_t(i) + 1000, 80), cb);
        }
        simulator.run();
        return std::pair<int, std::uint64_t>(failures, ch.framesCollided());
    };
    std::uint64_t collisions0 = 0, collisions40 = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        collisions0 += run(0, seed).second;
        collisions40 += run(sim::fromMillis(40), seed).second;
    }
    // §7.1: the random inter-retry delay decorrelates retransmissions.
    EXPECT_LT(collisions40, collisions0);
}

TEST(SleepyMac, RadioSleepsBetweenPolls) {
    sim::Simulator simulator;
    Channel ch(simulator, 12.0);
    Radio parentRadio(simulator, ch, 1, {0, 0});
    Radio leafRadio(simulator, ch, 2, {10, 0});
    mac::CsmaMac parentMac(parentRadio);
    mac::CsmaMac leafMac(leafRadio);
    parentMac.registerSleepyChild(2);

    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kFixed;
    sc.sleepInterval = sim::fromMillis(500);
    mac::SleepyMac sleepy(leafMac, 1, sc);
    sleepy.start();
    simulator.runUntil(10 * sim::kSecond);

    const double dc = leafRadio.energy().radioDutyCycle(leafRadio.state(), simulator.now());
    EXPECT_LT(dc, 0.10);  // mostly asleep
    EXPECT_GE(sleepy.pollsSent(), 15u);
}

TEST(SleepyMac, IndirectDeliveryViaPoll) {
    sim::Simulator simulator;
    Channel ch(simulator, 12.0);
    Radio parentRadio(simulator, ch, 1, {0, 0});
    Radio leafRadio(simulator, ch, 2, {10, 0});
    mac::CsmaMac parentMac(parentRadio);
    mac::CsmaMac leafMac(leafRadio);
    parentMac.registerSleepyChild(2);

    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kFixed;
    sc.sleepInterval = sim::fromMillis(200);
    mac::SleepyMac sleepy(leafMac, 1, sc);
    Bytes got;
    sleepy.setReceiveCallback([&](NodeId, const PacketBuffer& payload) { got = payload.toBytes(); });
    sleepy.start();

    // Parent queues a frame while the leaf sleeps; delivered on next poll.
    bool sent = false;
    parentMac.send(2, toBytes("queued frame"),
                   [&](const mac::SendResult& r) { sent = r.success; });
    EXPECT_EQ(parentMac.indirectQueueDepth(2), 1u);
    simulator.runUntil(2 * sim::kSecond);
    EXPECT_TRUE(sent);
    EXPECT_EQ(toPrintable(got), "queued frame");
    EXPECT_EQ(parentMac.indirectQueueDepth(2), 0u);
}

TEST(SleepyMac, OnePollDrainsTheIndirectQueueInOrder) {
    sim::Simulator simulator;
    Channel ch(simulator, 12.0);
    Radio parentRadio(simulator, ch, 1, {0, 0});
    Radio leafRadio(simulator, ch, 2, {10, 0});
    mac::CsmaMac parentMac(parentRadio);
    mac::CsmaMac leafMac(leafRadio);
    parentMac.registerSleepyChild(2);

    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kFixed;
    sc.sleepInterval = sim::fromMillis(200);
    mac::SleepyMac sleepy(leafMac, 1, sc);
    std::string got;
    sleepy.setReceiveCallback(
        [&](NodeId, const PacketBuffer& payload) { got += toPrintable(payload); });
    sleepy.start();

    parentMac.send(2, toBytes("a"));
    parentMac.send(2, toBytes("b"));
    parentMac.send(2, toBytes("c"));
    EXPECT_EQ(parentMac.indirectQueueDepth(2), 3u);
    // The first poll goes out at 200 ms; the next one cannot come before
    // the burst's listen window closes and another 200 ms pass.
    simulator.runUntil(sim::fromMillis(350));
    EXPECT_EQ(sleepy.pollsSent(), 1u);
    EXPECT_EQ(got, "abc");
    EXPECT_EQ(parentMac.indirectQueueDepth(2), 0u);
}

TEST(SleepyMac, AdaptiveIntervalResetsOnTrafficAndDecays) {
    sim::Simulator simulator;
    Channel ch(simulator, 12.0);
    Radio parentRadio(simulator, ch, 1, {0, 0});
    Radio leafRadio(simulator, ch, 2, {10, 0});
    mac::CsmaMac parentMac(parentRadio);
    mac::CsmaMac leafMac(leafRadio);
    parentMac.registerSleepyChild(2);

    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kAdaptive;
    sc.sminAdaptive = sim::fromMillis(20);
    sc.smaxAdaptive = 5 * sim::kSecond;
    mac::SleepyMac sleepy(leafMac, 1, sc);
    sleepy.setReceiveCallback([](NodeId, const PacketBuffer&) {});
    sleepy.start();

    // With no traffic the interval doubles to smax (Appendix C.2).
    simulator.runUntil(60 * sim::kSecond);
    EXPECT_EQ(sleepy.currentSleepInterval(), 5 * sim::kSecond);

    // Traffic resets it to smin: after the queued frame is delivered on the
    // next poll, the leaf polls at smin and decays — many polls follow in a
    // short window, unlike the smax cadence (one per 5 s).
    const auto pollsBefore = sleepy.pollsSent();
    parentMac.send(2, toBytes("wake"), nullptr);
    simulator.runUntil(72 * sim::kSecond);
    EXPECT_GE(sleepy.pollsSent() - pollsBefore, 6u);
}

TEST(DeafListening, HardwareCsmaMissesIncomingFrames) {
    // §4: with deaf listening (radio sleeps during backoff), a node busy
    // transmitting misses frames sent to it. Compare delivery of B->A
    // traffic while A is also sending, software vs deaf CSMA.
    auto run = [](bool softwareCsma) {
        sim::Simulator simulator(17);
        Channel ch(simulator, 12.0);
        Radio ra(simulator, ch, 1, {0, 0});
        Radio rb(simulator, ch, 2, {10, 0});
        mac::CsmaConfig cfg;
        cfg.softwareCsma = softwareCsma;
        cfg.retryDelayMax = sim::fromMillis(10);
        mac::CsmaMac ma(ra, cfg);
        mac::CsmaMac mb(rb, cfg);
        int aGot = 0;
        ma.setReceiveCallback([&](NodeId, const PacketBuffer&) { ++aGot; });
        mb.setReceiveCallback([](NodeId, const PacketBuffer&) {});
        for (int i = 0; i < 40; ++i) {
            ma.send(2, patternBytes(std::size_t(i), 90), nullptr);
            mb.send(1, patternBytes(std::size_t(i) + 5000, 90), nullptr);
        }
        simulator.run();
        return aGot;
    };
    const int software = run(true);
    const int deaf = run(false);
    EXPECT_GE(software, deaf);
    EXPECT_EQ(software, 40);
}
