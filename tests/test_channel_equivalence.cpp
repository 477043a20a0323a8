// Spatial-index equivalence: the grid-indexed channel must deliver exactly
// what a brute-force scan would — every radio within `range` of the
// transmitter, visited in ascending NodeId order — because that order fixes
// the RNG draw sequence (one fading draw per in-range listener) and so keeps
// every run reproducible. The reference scan lives here, in the test.
// Topologies are randomized; traffic is dense enough to exercise
// hidden-terminal collisions and same-tick batched deliveries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "tcplp/phy/channel.hpp"
#include "tcplp/phy/radio.hpp"
#include "tcplp/sim/simulator.hpp"

using namespace tcplp;
using namespace tcplp::phy;

namespace {

constexpr double kRange = 12.0;
constexpr double kDefaultLoss = 0.05;

double ambientLoss(sim::Time now, NodeId dst) {
    return ((now / 1000) % 7 == dst % 7) ? 0.5 : 0.0;
}

/// One carrier the test put on the medium itself.
struct Carrier {
    NodeId transmitter;
    Position at;
    sim::Time start;
    sim::Time end;
};

/// One delivery-tap call, in the order the channel made it.
struct TapRecord {
    sim::Time at;
    NodeId transmitter;
    NodeId listener;
    bool faded;
};

/// Every listener a brute-force scan finds within range of `c`, ascending
/// NodeId order.
std::vector<NodeId> scanListeners(const Carrier& c,
                                  const std::vector<std::unique_ptr<Radio>>& radios) {
    std::vector<NodeId> listeners;
    for (const auto& r : radios) {
        if (r->id() == c.transmitter) continue;
        const double dx = r->position().x - c.at.x;
        const double dy = r->position().y - c.at.y;
        if (std::sqrt(dx * dx + dy * dy) <= kRange) listeners.push_back(r->id());
    }
    std::sort(listeners.begin(), listeners.end());
    return listeners;
}

/// `n` radios at topology-RNG-chosen positions, every radio periodically
/// transmitting directly onto the medium, so all randomness flows through
/// the channel's loss draws. Records each carrier, every delivery-tap call
/// and a clearAt() verdict per radio at probe instants between carrier
/// edges; then checks all three against the brute-force reference.
void checkWorld(std::uint64_t seed, std::size_t n, double area) {
    sim::Simulator simulator(seed);
    Channel channel(simulator, kRange);
    channel.setDefaultLoss(kDefaultLoss);
    channel.setAmbientLoss(ambientLoss);

    std::vector<TapRecord> taps;
    channel.setDeliveryTap([&taps](sim::Time now, NodeId src, NodeId dst, std::size_t,
                                   bool faded) {
        taps.push_back(TapRecord{now, src, dst, faded});
    });

    // Positions from a dedicated RNG, so placement never touches the
    // simulation RNG.
    sim::Rng topo(seed * 1315423911ULL + 17);
    std::vector<std::unique_ptr<Radio>> radios;
    for (std::size_t i = 0; i < n; ++i) {
        const Position pos{double(topo.uniformInt(std::uint64_t(area * 100))) / 100.0,
                           double(topo.uniformInt(std::uint64_t(area * 100))) / 100.0};
        radios.push_back(
            std::make_unique<Radio>(simulator, channel, NodeId(i + 1), pos));
        radios.back()->setAutoAck(false);
    }

    // Dense periodic broadcast traffic. Staggered but overlapping: stretches
    // of equal frame sizes make same-tick endings (batched deliveries)
    // common, and close transmitters exercise collisions. Carriers are
    // listed in start order, which is also the channel's txId order.
    std::vector<Carrier> carriers;
    std::set<sim::Time> edges;
    for (std::size_t i = 0; i < n; ++i) {
        const sim::Time start = sim::Time(137 * (i % 11));
        const std::size_t len = 20 + (i % 3) * 40;
        for (int burst = 0; burst < 6; ++burst) {
            Frame f;
            f.src = radios[i]->id();
            f.dst = kBroadcast;
            f.seq = std::uint8_t(burst);
            f.payload = patternBytes(i, len);
            const sim::Time at = start + sim::Time(burst) * 9000;
            carriers.push_back(Carrier{f.src, radios[i]->position(), at,
                                       at + channel.frameAirTime(f)});
            edges.insert(carriers.back().start);
            edges.insert(carriers.back().end);
            simulator.schedule(at, [&channel, &radios, i, f] {
                channel.startTransmission(radios[i].get(), f);
            });
        }
    }
    std::stable_sort(carriers.begin(), carriers.end(),
                     [](const Carrier& a, const Carrier& b) { return a.start < b.start; });
    std::vector<std::vector<NodeId>> heard;
    for (const Carrier& c : carriers) heard.push_back(scanListeners(c, radios));

    // CCA probes at instants no carrier starts or ends on: a radio is clear
    // iff no carrier in the air at `t` reaches it.
    std::size_t probes = 0;
    for (sim::Time t = 11; t < *edges.rbegin(); t += 97) {
        if (edges.count(t) != 0) continue;
        ++probes;
        simulator.schedule(t, [&, t] {
            std::set<NodeId> busy;
            for (std::size_t c = 0; c < carriers.size(); ++c) {
                if (carriers[c].start < t && t < carriers[c].end)
                    busy.insert(heard[c].begin(), heard[c].end());
            }
            for (const auto& r : radios) {
                ASSERT_EQ(channel.clearAt(r.get()), busy.count(r->id()) == 0)
                    << "radio " << r->id() << " at t=" << t << " seed " << seed
                    << " n " << n;
            }
        });
    }
    ASSERT_GT(probes, 100u);

    simulator.run();
    ASSERT_EQ(channel.framesTransmitted(), carriers.size());
    EXPECT_EQ(channel.activeTransmissionCount(), 0u);

    // Expected tap stream: carriers by end tick, same-tick ends in start
    // order, each carrier's in-range listeners in ascending NodeId order.
    std::vector<const Carrier*> byEnd;
    for (const Carrier& c : carriers) byEnd.push_back(&c);
    std::stable_sort(byEnd.begin(), byEnd.end(),
                     [](const Carrier* a, const Carrier* b) { return a->end < b->end; });
    std::size_t next = 0;
    for (const Carrier* c : byEnd) {
        for (const NodeId listener : heard[std::size_t(c - carriers.data())]) {
            ASSERT_LT(next, taps.size()) << "seed " << seed << " n " << n;
            const TapRecord& tap = taps[next++];
            ASSERT_EQ(tap.at, c->end) << "tap " << next - 1 << " seed " << seed;
            ASSERT_EQ(tap.transmitter, c->transmitter) << "tap " << next - 1;
            ASSERT_EQ(tap.listener, listener) << "tap " << next - 1;
        }
    }
    EXPECT_EQ(next, taps.size()) << "seed " << seed << " n " << n;

    // Replaying one Bernoulli draw per tap call, in tap order, from a fresh
    // RNG reproduces every fading verdict and the final generator state.
    sim::Rng replay(seed);
    std::uint64_t faded = 0;
    for (const TapRecord& tap : taps) {
        const double p = 1.0 - (1.0 - kDefaultLoss) * (1.0 - ambientLoss(tap.at, tap.listener));
        ASSERT_EQ(replay.chance(p), tap.faded);
        faded += tap.faded ? 1 : 0;
    }
    EXPECT_EQ(faded, channel.framesLostToFading());
    EXPECT_EQ(replay.stateDigest(), simulator.rng().stateDigest());
}

}  // namespace

TEST(ChannelEquivalence, DenseRandomTopologiesMatchLinearReference) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 99ULL}) {
        for (const std::size_t n : {15ULL, 40ULL, 80ULL}) {
            checkWorld(seed, n, 60.0);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(ChannelEquivalence, SpatialModeDoesFarLessWork) {
    const std::size_t n = 80;
    sim::Simulator simulator(5);
    Channel channel(simulator, kRange);
    sim::Rng topo(42);
    std::vector<std::unique_ptr<Radio>> radios;
    for (std::size_t i = 0; i < n; ++i) {
        radios.push_back(std::make_unique<Radio>(
            simulator, channel, NodeId(i + 1),
            Position{double(topo.uniformInt(8000)) / 100.0,
                     double(topo.uniformInt(8000)) / 100.0}));
    }
    Frame f;
    f.dst = kBroadcast;
    f.payload = patternBytes(1, 30);
    for (std::size_t i = 0; i < n; ++i) {
        f.src = radios[i]->id();
        simulator.schedule(sim::Time(i) * 7001, [&, i, f] {
            channel.startTransmission(radios[i].get(), f);
        });
    }
    simulator.run();
    const std::uint64_t frames = channel.framesTransmitted();
    ASSERT_EQ(frames, n);
    // A linear scan examines every other radio twice per frame: once as
    // the carrier rises and once at delivery.
    const std::uint64_t linear = 2 * frames * (n - 1);
    // 80 radios spread over an 80x80 m area with 12 m cells: the 3x3
    // neighborhood holds a small fraction of the network.
    EXPECT_LT(channel.channelStats().listenerVisits * 4, linear);
}

TEST(ChannelEquivalence, MovedRadioIsReindexed) {
    sim::Simulator simulator;
    Channel channel(simulator, 12.0);
    Radio a(simulator, channel, 1, {0, 0});
    Radio b(simulator, channel, 2, {100, 100});  // far outside a's neighborhood

    int got = 0;
    b.setReceiveCallback([&](const Frame&) { ++got; });

    Frame f;
    f.src = 1;
    f.dst = kBroadcast;
    f.payload = toBytes("x");
    a.transmit(f, nullptr);
    simulator.run();
    EXPECT_EQ(got, 0);

    b.setPosition({10, 0});  // walks into range; the grid must re-file it
    a.transmit(f, nullptr);
    simulator.run();
    EXPECT_EQ(got, 1);

    b.setPosition({100, 100});  // walks away again
    a.transmit(f, nullptr);
    simulator.run();
    EXPECT_EQ(got, 1);
}

// Regression for the retired (transmitter, end-time) erase: transmissions
// are keyed by txId, so two frames from ONE transmitter whose carriers drop
// at the same tick retire independently and both deliver. (The old linear
// erase matched the first entry with that transmitter+end pair.)
TEST(ChannelRegression, SameTransmitterSameEndTickRetiresBoth) {
    sim::Simulator simulator;
    Channel channel(simulator, 12.0);
    Radio tx(simulator, channel, 1, {0, 0});
    Radio rx(simulator, channel, 2, {10, 0});

    Frame f1;
    f1.src = 1;
    f1.dst = kBroadcast;
    f1.seq = 10;
    f1.payload = patternBytes(0, 24);
    Frame f2 = f1;
    f2.seq = 11;

    // Drive the medium directly: same instant, same air time -> same end
    // tick, one transmitter. (The radio state machine cannot produce this,
    // which is exactly why the bookkeeping must not rely on it.)
    channel.startTransmission(&tx, f1);
    channel.startTransmission(&tx, f2);
    EXPECT_EQ(channel.activeTransmissionCount(), 2u);
    EXPECT_FALSE(channel.clearAt(&rx));

    simulator.run();
    // Both entries retired — nothing leaks in the active list, and the
    // overlapping carriers were observed as a collision at the receiver.
    EXPECT_EQ(channel.activeTransmissionCount(), 0u);
    EXPECT_TRUE(channel.clearAt(&rx));
    EXPECT_EQ(channel.framesTransmitted(), 2u);
    EXPECT_EQ(channel.framesCollided(), 1u);
    // The pair shared one pooled delivery event (batched by end tick).
    EXPECT_EQ(channel.channelStats().deliveryEvents, 1u);
}

TEST(ChannelRegression, BackToBackFramesStaggeredEndsRetireInOrder) {
    sim::Simulator simulator;
    Channel channel(simulator, 12.0);
    Radio tx(simulator, channel, 1, {0, 0});
    Radio rx(simulator, channel, 2, {10, 0});

    Frame shortFrame;
    shortFrame.src = 1;
    shortFrame.dst = kBroadcast;
    shortFrame.payload = patternBytes(0, 8);
    Frame longFrame = shortFrame;
    longFrame.payload = patternBytes(0, 80);

    channel.startTransmission(&tx, longFrame);
    channel.startTransmission(&tx, shortFrame);
    EXPECT_EQ(channel.activeTransmissionCount(), 2u);

    simulator.runUntil(shortFrame.airTime());
    // The short frame's entry (started second) retired first — the txId
    // keying picked the right one even though transmitter+start matched.
    EXPECT_EQ(channel.activeTransmissionCount(), 1u);
    EXPECT_FALSE(channel.clearAt(&rx));

    simulator.run();
    EXPECT_EQ(channel.activeTransmissionCount(), 0u);
    EXPECT_TRUE(channel.clearAt(&rx));
}
