// city_scale scenario + datapath plumbing: reduced-scale determinism
// (serial == threaded, pinned RNG digest), the datapath counters, the
// epoch-diffed neighbor-cache revalidation, and the prepend slow path
// routing its storage through the slab recycler.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tcplp/common/packet_buffer.hpp"
#include "tcplp/common/slab_pool.hpp"
#include "tcplp/phy/channel.hpp"
#include "tcplp/phy/radio.hpp"
#include "tcplp/scenario/campaign.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/sim/simulator.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

/// The reduced city grid the tests (and, at 120 nodes, the golden corpus)
/// exercise: small enough for CI, large enough that the slab pool and the
/// spatial index carry real load.
ScenarioSpec reducedCitySpec() { return cityScaleSpec(10 * sim::kSecond, 96); }

std::uint64_t rngDigestOf(const MetricRow& row) {
    for (const auto& [key, value] : row.fields()) {
        if (key == "rng_digest") return value.asUint();
    }
    return 0;
}

}  // namespace

TEST(CityScale, ReducedRunIsDeterministicAndPinned) {
    const MetricRow a = runScenario(reducedCitySpec(), 1);
    const MetricRow b = runScenario(reducedCitySpec(), 1);
    EXPECT_EQ(toJsonLine(a), toJsonLine(b));
    // Pinned replay: any engine change that perturbs the RNG draw order
    // (slab pool, batched delivery, cache revalidation are all required to
    // be draw-neutral) moves this digest.
    EXPECT_EQ(rngDigestOf(a), 4847400228719065429ULL);
}

TEST(CityScale, SerialAndShardedSweepsMatch) {
    ScenarioDef d;
    d.name = "city_scale_test";
    d.base = reducedCitySpec();
    d.seeds = {1, 2};
    const CampaignResult serial = runCampaign({d}, {.jobs = 1});
    const CampaignResult sharded = runCampaign({d}, {.jobs = 4});
    ASSERT_TRUE(serial.ok);
    ASSERT_TRUE(sharded.ok);
    EXPECT_EQ(serial.jsonLines(), sharded.jsonLines());
}

TEST(CityScale, DatapathCounters) {
    const DatapathCounters d = runMultiFlow(reducedCitySpec(), 1).datapath;
    // Steady-state storage comes from the recycler, not the heap: the pool
    // warms up with a bounded set of fresh blocks, then serves from free
    // lists for the rest of the run.
    EXPECT_GT(d.poolRecycled, 0u);
    EXPECT_GT(d.poolFresh, 0u);
    EXPECT_GT(d.poolRecycled, 2 * d.poolFresh);
    EXPECT_GT(d.poolBytesRecycled, d.poolBytesFresh);
    // Event closures all fit inline. Prepend fallbacks are nonzero by
    // design here: relays re-encode single-frame datagrams whose storage
    // the upstream sender still holds for link retries — a mandatory
    // copy-on-write, counted and slab-served (so it never reaches the
    // heap; see the steady-state alloc bound in tcplp_steady_alloc).
    EXPECT_EQ(d.smallFnHeapFallbacks, 0u);
    EXPECT_GT(d.prependFallbacks, 0u);
    // Static grid: each transmitter's candidate cache builds at most once.
    EXPECT_GT(d.neighborRebuilds, 0u);
    EXPECT_LE(d.neighborRebuilds, 96u);
}

TEST(ChannelEpoch, RevalidationSkipsRebuildWhenWindowUnchanged) {
    sim::Simulator simulator(7);
    phy::Channel channel(simulator, 12.0);
    std::vector<std::unique_ptr<phy::Radio>> radios;
    auto add = [&](phy::NodeId id, double x, double y) {
        radios.push_back(
            std::make_unique<phy::Radio>(simulator, channel, id, phy::Position{x, y}));
        radios.back()->setAutoAck(false);
    };
    auto transmit = [&](std::size_t i) {
        phy::Frame f;
        f.src = radios[i]->id();
        f.dst = phy::kBroadcast;
        f.payload = patternBytes(1, 20);
        channel.startTransmission(radios[i].get(), f);
        simulator.run();
    };
    add(1, 0.0, 0.0);
    add(2, 5.0, 0.0);

    transmit(0);
    EXPECT_EQ(channel.channelStats().neighborRebuilds, 1u);
    EXPECT_EQ(channel.channelStats().neighborRevalidations, 0u);

    // A radio far outside node 1's 3x3 cell window bumps the global grid
    // epoch, but every cell in the window is untouched: the cached
    // candidate set revalidates without a rebuild.
    add(3, 1000.0, 1000.0);
    transmit(0);
    EXPECT_EQ(channel.channelStats().neighborRebuilds, 1u);
    EXPECT_EQ(channel.channelStats().neighborRevalidations, 1u);

    // A radio inside the window (same cell as node 1: cell side = 12 m)
    // invalidates the snapshot and forces a real rebuild.
    add(4, 10.0, 0.0);
    transmit(0);
    EXPECT_EQ(channel.channelStats().neighborRebuilds, 2u);
    EXPECT_EQ(channel.channelStats().neighborRevalidations, 1u);
}

TEST(PacketBufferPool, PrependFallbackRoutesThroughSlabRecycler) {
    SlabPool pool;
    pool.install();
    const std::uint8_t hdr[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const Bytes body = patternBytes(3, 100);
    const std::uint64_t fallbacks0 = PacketBuffer::stats().prependFallbacks;
    for (int round = 0; round < 2; ++round) {
        // Zero headroom forces the prepend slow path: new storage, one copy.
        PacketBuffer b = PacketBuffer::copyOf(BytesView(body.data(), body.size()),
                                              /*headroom=*/0);
        b.prepend(BytesView(hdr, sizeof hdr));
        ASSERT_EQ(b.size(), body.size() + sizeof hdr);
        EXPECT_EQ(b.data()[0], 1);
        EXPECT_EQ(b.data()[sizeof hdr], body[0]);
    }
    EXPECT_EQ(PacketBuffer::stats().prependFallbacks, fallbacks0 + 2);
    // Round 2's storage was served from round 1's returned blocks.
    EXPECT_GT(pool.stats().recycled, 0u);
    EXPECT_GT(pool.stats().returned, 0u);
    pool.uninstall();
}
