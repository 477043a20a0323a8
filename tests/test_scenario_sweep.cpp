// Scenario engine + runner coverage.
//
// The two load-bearing guarantees of the PR 3 refactor are pinned here:
//
//  1. Sweep determinism: the same spec + seed list produces byte-identical
//     metric JSON at --jobs 1 and --jobs 8 (the merge must be in grid
//     order), and rows read back from a resume manifest round-trip exactly.
//
//  2. Path equivalence: the declarative engine replays the exact
//     simulations the hand-rolled pre-refactor bench drivers ran. The
//     reference below is a frozen inline copy of bench/common.hpp's
//     runBulkTransfer as it stood before the refactor; Rng::stateDigest
//     equality proves the engine consumed the identical RNG stream on the
//     bench_sec72_hops path. The bench_fig10_table8_day path goes through
//     harness::runAnemometer on both sides; equality there proves the spec
//     binds the exact same options.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "tcplp/app/bulk.hpp"
#include "tcplp/harness/anemometer.hpp"
#include "tcplp/harness/testbed.hpp"
#include "tcplp/scenario/campaign.hpp"
#include "tcplp/scenario/metrics.hpp"
#include "tcplp/scenario/registry.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/sim/rng.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

// --- Frozen pre-refactor reference (bench/common.hpp as of PR 2) -----------

namespace reference {

struct BulkOptions {
    std::size_t hops = 1;
    std::size_t totalBytes = 150000;
    sim::Time retryDelayMax = sim::fromMillis(40);
    std::uint16_t mss = 462;
    std::size_t windowSegments = 4;
    bool uplink = true;
    std::uint64_t seed = 1;
    double linkLoss = 0.0;
    sim::Time timeLimit = 40 * sim::kMinute;
};

struct BulkResult {
    double goodputKbps = 0.0;
    std::uint64_t framesTransmitted = 0;
    std::size_t bytes = 0;
    bool contentOk = false;
    std::uint64_t rngDigest = 0;
};

BulkResult runBulkTransfer(const BulkOptions& opt) {
    harness::TestbedConfig cfg;
    cfg.seed = opt.seed;
    cfg.linkLoss = opt.linkLoss;
    cfg.nodeDefaults.macConfig.retryDelayMax = opt.retryDelayMax;
    cfg.nodeDefaults.queueConfig.capacityPackets = 24;
    auto tb = harness::Testbed::line(opt.hops, cfg);

    mesh::Node& mote = *tb->findNode(phy::NodeId(9 + opt.hops));
    tcp::TcpStack moteStack(mote);
    tcp::TcpStack cloudStack(tb->cloud());

    app::GoodputMeter meter(tb->simulator());
    tcp::TcpStack& senderStack = opt.uplink ? moteStack : cloudStack;
    tcp::TcpStack& receiverStack = opt.uplink ? cloudStack : moteStack;
    const auto mote_cfg = [&] {
        tcp::TcpConfig c;
        c.mss = opt.mss;
        c.sendBufferBytes = opt.windowSegments * opt.mss;
        c.recvBufferBytes = opt.windowSegments * opt.mss;
        return c;
    };
    const auto server_cfg = [&] {
        tcp::TcpConfig c;
        c.mss = opt.mss;
        c.sendBufferBytes = 16384;
        c.recvBufferBytes = 16384;
        return c;
    };
    const tcp::TcpConfig senderCfg = opt.uplink ? mote_cfg() : server_cfg();
    const tcp::TcpConfig receiverCfg = opt.uplink ? server_cfg() : mote_cfg();

    receiverStack.listen(80, receiverCfg, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& sender = senderStack.createSocket(senderCfg);
    app::BulkSender bulk(sender, opt.totalBytes);
    const ip6::Address dst = opt.uplink ? tb->cloud().address() : mote.address();
    sender.connect(dst, 80);
    tb->simulator().runUntil(opt.timeLimit);

    BulkResult r;
    r.goodputKbps = meter.goodputKbps();
    r.bytes = meter.bytes();
    r.contentOk = meter.contentOk();
    r.framesTransmitted = tb->channel().framesTransmitted();
    r.rngDigest = tb->simulator().rng().stateDigest();
    return r;
}

}  // namespace reference

// --- Metric rows + JSON ----------------------------------------------------

TEST(ScenarioMetrics, RowKeepsInsertionOrderAndOverwritesInPlace) {
    MetricRow row;
    row.set("b", 1).set("a", 2.5).set("b", 7);
    EXPECT_EQ(toJsonLine(row), "{\"b\":7,\"a\":2.5}");
}

TEST(ScenarioMetrics, JsonEscapesStringsAndRendersTypes) {
    MetricRow row;
    row.set("s", "a\"b\\c\nd").set("t", true).set("u", std::uint64_t(18446744073709551615ULL));
    EXPECT_EQ(toJsonLine(row),
              "{\"s\":\"a\\\"b\\\\c\\nd\",\"t\":true,\"u\":18446744073709551615}");
}

TEST(ScenarioMetrics, DoubleFormatRoundTrips) {
    // Shortest-round-trip rendering: reparsing yields the identical bits.
    for (double v : {0.1, 1.0 / 3.0, 63.77937438811663, 1e-300, 12345678.9}) {
        const std::string text = formatDouble(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    EXPECT_EQ(formatDouble(std::nan("")), "null");
}

// --- Grid expansion + stream derivation ------------------------------------

TEST(ScenarioSweep, ExpandsAxesOuterToInnerWithSeedsInnermost) {
    ScenarioDef def;
    def.name = "expand";
    def.axes = {{"a", {10, 20}}, {"b", {1, 2, 3}}};
    def.seeds = {5, 6};
    const auto points = expandPoints(def, def.seeds);
    ASSERT_EQ(points.size(), 12u);
    EXPECT_EQ(points[0].value("a"), 10);
    EXPECT_EQ(points[0].value("b"), 1);
    EXPECT_EQ(points[0].seed, 5u);
    EXPECT_EQ(points[1].seed, 6u);  // seeds innermost
    EXPECT_EQ(points[2].value("b"), 2);
    EXPECT_EQ(points[6].value("a"), 20);  // axis a flips after b completes
    EXPECT_EQ(points[11].value("b"), 3);
}

TEST(ScenarioSweep, DeriveStreamIsDeterministicAndPositionKeyed) {
    EXPECT_EQ(sim::Rng::deriveStream(42, 7), sim::Rng::deriveStream(42, 7));
    EXPECT_NE(sim::Rng::deriveStream(42, 7), sim::Rng::deriveStream(42, 8));
    EXPECT_NE(sim::Rng::deriveStream(42, 7), sim::Rng::deriveStream(43, 7));

    ScenarioDef def;
    def.name = "derive";
    def.deriveSeeds = true;
    def.baseSeed = 42;
    def.seeds = {1, 1};  // two replications per cell; values unused
    const auto points = expandPoints(def, def.seeds);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].seed, sim::Rng::deriveStream(42, 0));
    EXPECT_EQ(points[1].seed, sim::Rng::deriveStream(42, 1));
}

// --- Sweep determinism: serial vs sharded ----------------------------------

namespace {

ScenarioDef smallBulkSweep() {
    ScenarioDef def;
    def.name = "test_sweep";
    def.base.topology.retryDelayMax = sim::fromMillis(40);
    def.base.topology.queueCapacityPackets = 24;
    def.base.workload.totalBytes = 8000;
    def.base.workload.timeLimit = 5 * sim::kMinute;
    def.axes = {{"hops", {1, 2}}};
    def.seeds = {1, 2, 3, 4};
    def.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.hops = std::size_t(p.value("hops"));
    };
    return def;
}

}  // namespace

TEST(ScenarioSweep, ParallelMergeIsByteIdenticalToSerial) {
    const ScenarioDef def = smallBulkSweep();
    const CampaignResult serialRun = runCampaign({def}, {.jobs = 1});
    const CampaignResult parallelRun = runCampaign({def}, {.jobs = 8});
    ASSERT_TRUE(serialRun.ok) << serialRun.error;
    ASSERT_TRUE(parallelRun.ok) << parallelRun.error;
    const SweepResult& serial = serialRun.scenarios.front();
    const SweepResult& parallel = parallelRun.scenarios.front();
    ASSERT_EQ(serial.records.size(), 8u);
    ASSERT_EQ(parallel.records.size(), 8u);
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        EXPECT_EQ(serial.records[i].point.seed, parallel.records[i].point.seed);
        EXPECT_TRUE(serial.records[i].row == parallel.records[i].row) << "row " << i;
    }
    EXPECT_EQ(serial.jsonLines(), parallel.jsonLines());
    // The digests are live (a real simulation ran in every worker).
    for (const auto& record : serial.records)
        EXPECT_NE(record.row.number("rng_digest"), 0.0);
}

TEST(ScenarioSweep, OddJobCountsAndSeedOverridesStayIdentical) {
    const ScenarioDef def = smallBulkSweep();
    const CampaignResult serialRun =
        runCampaign({def}, {.jobs = 1, .seedOverride = {7, 9}});
    const CampaignResult parallelRun =
        runCampaign({def}, {.jobs = 3, .seedOverride = {7, 9}});
    ASSERT_TRUE(serialRun.ok && parallelRun.ok);
    const SweepResult& serial = serialRun.scenarios.front();
    const SweepResult& parallel = parallelRun.scenarios.front();
    ASSERT_EQ(serial.records.size(), 4u);  // 2 hops x 2 override seeds
    EXPECT_EQ(serial.records[0].point.seed, 7u);
    EXPECT_EQ(serial.jsonLines(), parallel.jsonLines());
}

TEST(ScenarioSweep, NonFiniteMetricsSurviveTheManifest) {
    ScenarioDef def;
    def.name = "test_nonfinite";
    def.axes = {{"i", {0, 1}}};
    def.measure = [](const ScenarioSpec&, const Point& p) {
        MetricRow row;
        row.set("inf", std::numeric_limits<double>::infinity())
            .set("neg_inf", -std::numeric_limits<double>::infinity())
            .set("nan", std::nan(""))
            .set("i", p.value("i"));
        return row;
    };
    const std::string dir = std::string(::testing::TempDir()) + "tcplp_nonfinite_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    const CampaignResult ranRun = runCampaign({def}, {.jobs = 2, .outDir = dir});
    // Every point is recorded, so the resumed run reads all of its rows
    // back from the manifest.
    const CampaignResult resumedRun =
        runCampaign({def}, {.jobs = 2, .outDir = dir, .resume = true});
    ASSERT_TRUE(ranRun.ok && resumedRun.ok);
    EXPECT_EQ(resumedRun.pointsResumed, 2u);
    EXPECT_EQ(resumedRun.pointsRun, 0u);
    const SweepResult& ran = ranRun.scenarios.front();
    const SweepResult& resumed = resumedRun.scenarios.front();
    for (std::size_t i = 0; i < ran.records.size(); ++i) {
        // Decoded rows must match exactly (inf stays inf, not NaN), so
        // presenter arithmetic cannot diverge between a run and its resume.
        EXPECT_TRUE(ran.records[i].row == resumed.records[i].row) << i;
        EXPECT_TRUE(std::isinf(resumed.records[i].row.number("inf")));
    }
    EXPECT_EQ(ran.jsonLines(), resumed.jsonLines());
    std::filesystem::remove_all(dir);
}

TEST(ScenarioSweep, WorkerFailureSurfacesAsError) {
    ScenarioDef def;
    def.name = "test_failure";
    def.axes = {{"i", {0, 1, 2, 3}}};
    def.measure = [](const ScenarioSpec&, const Point& p) -> MetricRow {
        if (p.value("i") == 2) throw std::runtime_error("boom");
        MetricRow row;
        row.set("ok", true);
        return row;
    };
    const CampaignResult parallel = runCampaign({def}, {.jobs = 4});
    EXPECT_FALSE(parallel.ok);
    EXPECT_FALSE(parallel.error.empty());
    // The diagnostic names the failing scenario + grid point and carries
    // the exception text.
    EXPECT_NE(parallel.error.find("test_failure"), std::string::npos) << parallel.error;
    EXPECT_NE(parallel.error.find("i=2"), std::string::npos) << parallel.error;
    EXPECT_NE(parallel.error.find("boom"), std::string::npos) << parallel.error;
    EXPECT_NE(parallel.error.find("point 2/4"), std::string::npos) << parallel.error;
}

// --- Path equivalence vs the pre-refactor drivers --------------------------

TEST(ScenarioEquivalence, BulkEngineReplaysPreRefactorRngStream_Sec72Path) {
    // bench_sec72_hops points (reduced byte counts keep the suite fast; the
    // engine sees the same reduction, so stream equality is exact).
    for (const std::size_t hops : {std::size_t(1), std::size_t(3)}) {
        for (const std::uint64_t seed : {std::uint64_t(1), std::uint64_t(2)}) {
            reference::BulkOptions old;
            old.hops = hops;
            old.totalBytes = 15000;
            old.retryDelayMax = sim::fromMillis(40);
            old.mss = mssForFrames(5);
            old.windowSegments = 4;
            old.seed = seed;
            const reference::BulkResult expected = reference::runBulkTransfer(old);

            ScenarioSpec spec;
            spec.topology.hops = hops;
            spec.topology.retryDelayMax = sim::fromMillis(40);
            spec.topology.queueCapacityPackets = 24;
            spec.workload.totalBytes = 15000;
            const BulkRunResult actual = runBulk(spec, seed);

            EXPECT_EQ(actual.rngDigest, expected.rngDigest)
                << "hops=" << hops << " seed=" << seed;
            EXPECT_EQ(actual.framesTransmitted, expected.framesTransmitted);
            EXPECT_EQ(actual.bytes, expected.bytes);
            EXPECT_DOUBLE_EQ(actual.goodputKbps, expected.goodputKbps);
            EXPECT_TRUE(actual.contentOk);
        }
    }
}

TEST(ScenarioEquivalence, BulkEngineReplaysPreRefactorRngStream_Downlink) {
    reference::BulkOptions old;
    old.hops = 1;
    old.totalBytes = 12000;
    old.retryDelayMax = 0;
    old.mss = mssForFrames(5);
    old.uplink = false;
    old.seed = 3;
    const reference::BulkResult expected = reference::runBulkTransfer(old);

    ScenarioSpec spec;
    spec.topology.hops = 1;
    spec.topology.retryDelayMax = sim::Time(0);
    spec.topology.queueCapacityPackets = 24;
    spec.workload.totalBytes = 12000;
    spec.workload.uplink = false;
    const BulkRunResult actual = runBulk(spec, 3);
    EXPECT_EQ(actual.rngDigest, expected.rngDigest);
    EXPECT_DOUBLE_EQ(actual.goodputKbps, expected.goodputKbps);
}

TEST(ScenarioEquivalence, AnemometerSpecBindsPreRefactorOptions_Fig10Path) {
    // bench_fig10_table8_day's runDay() options (duration cut to 1 h so the
    // suite stays fast; both sides see the same cut).
    harness::AnemometerOptions old;
    old.protocol = harness::SensorProtocol::kTcp;
    old.batching = true;
    old.diurnal = true;
    old.duration = 1 * sim::kHour;
    old.warmup = 2 * sim::kMinute;
    old.mssFrames = 3;
    old.seed = 7;
    const harness::AnemometerResult expected = harness::runAnemometer(old);

    ScenarioSpec spec;
    spec.workload.kind = WorkloadKind::kAnemometer;
    spec.workload.anemometer.protocol = harness::SensorProtocol::kTcp;
    spec.workload.anemometer.batching = true;
    spec.workload.anemometer.diurnal = true;
    spec.workload.anemometer.duration = 1 * sim::kHour;
    spec.workload.anemometer.warmup = 2 * sim::kMinute;
    spec.workload.anemometer.mssFrames = 3;
    const harness::AnemometerResult actual = runAnemometerSpec(spec, 7);

    EXPECT_NE(expected.rngDigest, 0u);
    EXPECT_EQ(actual.rngDigest, expected.rngDigest);
    EXPECT_EQ(actual.generated, expected.generated);
    EXPECT_EQ(actual.delivered, expected.delivered);
    EXPECT_EQ(actual.hourlyRadioDutyCycle.size(), expected.hourlyRadioDutyCycle.size());
}

// --- New topologies --------------------------------------------------------

TEST(ScenarioTopology, GridRoutesReachTheCloudFromTheFarCorner) {
    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::kGrid;
    spec.topology.nodes = 9;
    spec.topology.retryDelayMax = sim::fromMillis(40);
    spec.topology.queueCapacityPackets = 24;
    spec.workload.totalBytes = 5000;
    spec.workload.timeLimit = 5 * sim::kMinute;
    const BulkRunResult r = runBulk(spec, 1);
    EXPECT_TRUE(r.contentOk);
    EXPECT_EQ(r.bytes, 5000u);
    EXPECT_GT(r.goodputKbps, 0.0);
}

TEST(ScenarioTopology, StarIsSingleHopEverywhere) {
    auto tb = buildTestbed(
        [] {
            TopologySpec t;
            t.kind = TopologyKind::kStar;
            t.nodes = 6;
            return t;
        }(),
        1);
    ASSERT_EQ(tb->nodeCount(), 6u);
    // Every spoke is within radio range of the border router.
    for (std::size_t i = 1; i < tb->nodeCount(); ++i) {
        EXPECT_TRUE(
            tb->channel().inRange(tb->node(0).radio(), tb->node(i).radio()));
    }
}

TEST(ScenarioTopology, MultiFlowRunsMixedDirectionsOnTheOfficeTree) {
    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::kOffice;
    spec.topology.retryDelayMax = sim::fromMillis(40);
    spec.workload.kind = WorkloadKind::kMultiFlow;
    spec.workload.multiFlowDuration = 30 * sim::kSecond;
    spec.workload.flows = {{12, true, 4000}, {13, false, 4000}};
    const MultiFlowResult r = runMultiFlow(spec, 1);
    ASSERT_EQ(r.flows.size(), 2u);
    EXPECT_GT(r.flows[0].goodputKbps, 0.0);
    EXPECT_GT(r.flows[1].goodputKbps, 0.0);
    EXPECT_GT(r.jainFairness, 0.0);
    EXPECT_LE(r.jainFairness, 1.0);
}

// --- Registry ---------------------------------------------------------------

TEST(ScenarioRegistry, AddAndFind) {
    Registry registry;  // fresh instance (not the global singleton)
    ScenarioDef def;
    def.name = "x";
    registry.add(def);
    EXPECT_NE(registry.find("x"), nullptr);
    EXPECT_EQ(registry.find("y"), nullptr);
}
