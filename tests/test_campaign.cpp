// Campaign orchestrator + golden corpus coverage.
//
// The load-bearing guarantees pinned here:
//
//  1. Cross-scenario determinism: one worker pool executing points from
//     DIFFERENT scenarios back-to-back produces canonical output
//     byte-identical to the serial run, merged registry-order across
//     scenarios and grid-order within.
//
//  2. Resumability: a campaign interrupted by a dying worker resumes from
//     its manifest (completed points skipped, their recorded rows merged)
//     and the final output is byte-identical to an uninterrupted run.
//
//  3. Golden regression: --golden writes canonical per-scenario artifacts,
//     --check passes against an unchanged tree, and a deliberate knob
//     perturbation (an MSS change on a real bulk scenario) fails the check
//     with the first diverging row named.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tcplp/scenario/campaign.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratchDir(const char* name) {
    const std::string dir =
        std::string(::testing::TempDir()) + "tcplp_campaign_" + name + "_" +
        std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// Mechanical scenario: rows are pure functions of (axes, seed) — fast, and
/// any machinery bug (dropped row, reordered merge, worker-state leak)
/// shows up as a byte diff.
ScenarioDef mechanicalDef(const std::string& name, double scale) {
    ScenarioDef def;
    def.name = name;
    def.axes = {{"i", {0, 1, 2}}, {"j", {10, 20}}};
    def.seeds = {1, 2};
    def.measure = [scale](const ScenarioSpec&, const Point& p) {
        MetricRow row;
        row.set("value", scale * p.value("i") + p.value("j") + double(p.seed) / 8.0)
            .set("wall_ms", 123.456)  // timing field: must never reach output
            .set("tag", "mech");
        return row;
    };
    return def;
}

/// Real (simulated) bulk scenario, small enough for a test suite: the
/// golden perturbation check below uses it so an MSS knob change flows
/// through the full engine into the corpus diff.
ScenarioDef smallBulkDef() {
    ScenarioDef def;
    def.name = "camp_bulk";
    def.base.topology.retryDelayMax = sim::fromMillis(40);
    def.base.topology.queueCapacityPackets = 24;
    def.base.workload.totalBytes = 8000;
    def.base.workload.timeLimit = 5 * sim::kMinute;
    def.axes = {{"hops", {1, 2}}};
    def.seeds = {1, 2};
    def.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.hops = std::size_t(p.value("hops"));
    };
    return def;
}

}  // namespace

// --- Timing-field canonicalization -----------------------------------------

TEST(CampaignCanonical, TimingFieldListMatchesTheDocumentedConvention) {
    EXPECT_TRUE(isTimingField("wall_ms"));
    EXPECT_TRUE(isTimingField("cores"));
    EXPECT_TRUE(isTimingField("speedup"));
    EXPECT_TRUE(isTimingField("auto_speedup"));
    EXPECT_TRUE(isTimingField("pooled_events_per_sec"));
    EXPECT_TRUE(isTimingField("legacy_ns_per_event"));
    EXPECT_TRUE(isTimingField("serial_wall_ms"));
    // Simulated-time metrics are NOT timing fields: they must stay pinned.
    EXPECT_FALSE(isTimingField("rtt_median_ms"));
    EXPECT_FALSE(isTimingField("goodput_kbps"));
    EXPECT_FALSE(isTimingField("rng_digest"));
    EXPECT_FALSE(isTimingField("lln_tx_time_ms"));
}

TEST(CampaignCanonical, StripKeepsOrderAndDropsOnlyTimingFields) {
    MetricRow row;
    row.set("a", 1).set("wall_ms", 2.5).set("b", "x").set("events_per_sec", 9.0);
    const MetricRow stripped = stripTimingFields(row);
    EXPECT_EQ(toJsonLine(stripped), "{\"a\":1,\"b\":\"x\"}");
    EXPECT_EQ(toCanonicalJsonLine(row), "{\"a\":1,\"b\":\"x\"}");
}

// --- Cross-scenario sharding ------------------------------------------------

TEST(Campaign, CrossScenarioShardingIsByteIdenticalToSerial) {
    const std::vector<ScenarioDef> defs = {mechanicalDef("camp_a", 2.0),
                                           mechanicalDef("camp_b", 5.0),
                                           smallBulkDef()};
    CampaignOptions serialOpt;
    serialOpt.jobs = 1;
    CampaignOptions parallelOpt;
    parallelOpt.jobs = 5;  // odd, non-divisor: points from different
                           // scenarios interleave within one worker
    const CampaignResult serial = runCampaign(defs, serialOpt);
    const CampaignResult parallel = runCampaign(defs, parallelOpt);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_TRUE(parallel.ok) << parallel.error;
    ASSERT_EQ(serial.scenarios.size(), 3u);
    EXPECT_EQ(serial.pointsRun, 12u + 12u + 4u);
    EXPECT_EQ(serial.canonicalLines(), parallel.canonicalLines());
    // Merge order: selection order across scenarios, grid order within.
    EXPECT_EQ(serial.scenarios[0].def.name, "camp_a");
    EXPECT_EQ(serial.scenarios[2].def.name, "camp_bulk");
    for (std::size_t i = 0; i < serial.scenarios[2].records.size(); ++i)
        EXPECT_EQ(serial.scenarios[2].records[i].point.index, i);
    // Timing fields never reach canonical output.
    EXPECT_EQ(serial.canonicalLines().find("wall_ms"), std::string::npos);
    // The real scenario's digests are live in both runs.
    for (const RunRecord& r : parallel.scenarios[2].records)
        EXPECT_NE(r.row.number("rng_digest"), 0.0);
}

TEST(Campaign, SeedOverrideAppliesToEveryScenario) {
    const std::vector<ScenarioDef> defs = {mechanicalDef("camp_a", 2.0),
                                           mechanicalDef("camp_b", 5.0)};
    CampaignOptions opt;
    opt.seedOverride = {7};
    const CampaignResult result = runCampaign(defs, opt);
    ASSERT_TRUE(result.ok) << result.error;
    for (const CampaignScenario& s : result.scenarios) {
        ASSERT_EQ(s.records.size(), 6u);  // 3x2 axes, one override seed
        for (const RunRecord& r : s.records) EXPECT_EQ(r.point.seed, 7u);
    }
}

// --- Resume -----------------------------------------------------------------

namespace {

/// Def whose measure kills the worker (hard _exit, no exception path) on
/// any point with i >= 2 while the poison flag file exists.
ScenarioDef poisonedDef(const std::string& flagPath) {
    ScenarioDef def;
    def.name = "camp_poison";
    def.axes = {{"i", {0, 1, 2, 3, 4, 5}}};
    def.seeds = {3};
    def.measure = [flagPath](const ScenarioSpec&, const Point& p) {
        if (p.value("i") >= 2 && fs::exists(flagPath)) {
            std::fprintf(stderr, "poisoned point %d\n", int(p.value("i")));
            std::fflush(stderr);
            ::_exit(7);
        }
        MetricRow row;
        row.set("value", 100.0 * p.value("i") + double(p.seed));
        return row;
    };
    return def;
}

}  // namespace

TEST(Campaign, ResumeAfterWorkerAbortIsByteIdenticalToUninterrupted) {
    const std::string dir = scratchDir("resume");
    const std::string flag = dir + "/poison.flag";
    const std::vector<ScenarioDef> defs = {mechanicalDef("camp_a", 2.0),
                                           poisonedDef(flag)};

    // Interrupt: the poisoned points kill their workers partway through.
    std::ofstream(flag) << "1";
    CampaignOptions opt;
    opt.jobs = 2;
    opt.outDir = dir + "/out";
    const CampaignResult interrupted = runCampaign(defs, opt);
    ASSERT_FALSE(interrupted.ok);
    EXPECT_NE(interrupted.error.find("camp_poison"), std::string::npos)
        << interrupted.error;
    EXPECT_NE(interrupted.error.find("poisoned point"), std::string::npos)
        << interrupted.error;
    ASSERT_GT(interrupted.pointsRun, 0u);  // some points landed in the manifest

    // Resume with the poison cleared: completed points are skipped, the
    // rest run, and the merged output matches a fresh uninterrupted run.
    fs::remove(flag);
    opt.resume = true;
    const CampaignResult resumed = runCampaign(defs, opt);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_GT(resumed.pointsResumed, 0u);
    EXPECT_LT(resumed.pointsRun, 12u + 6u);

    CampaignOptions freshOpt;
    freshOpt.jobs = 2;
    freshOpt.outDir = dir + "/fresh";
    const CampaignResult fresh = runCampaign(defs, freshOpt);
    ASSERT_TRUE(fresh.ok) << fresh.error;
    EXPECT_EQ(resumed.canonicalLines(), fresh.canonicalLines());

    // The per-scenario artifacts on disk are byte-identical too.
    for (const char* name : {"camp_a", "camp_poison"}) {
        std::ifstream a(opt.outDir + "/" + name + ".jsonl");
        std::ifstream b(freshOpt.outDir + "/" + name + ".jsonl");
        std::stringstream sa, sb;
        sa << a.rdbuf();
        sb << b.rdbuf();
        EXPECT_EQ(sa.str(), sb.str()) << name;
        EXPECT_FALSE(sa.str().empty()) << name;
    }
}

TEST(Campaign, ResumeSalvagesAManifestWithATruncatedTailFrame) {
    // The recorder can die mid-fwrite, leaving a partial ROW frame at the
    // manifest tail. Resume must salvage every complete frame before it,
    // rewrite the manifest clean, and still produce byte-identical output.
    const std::string dir = scratchDir("truncated");
    const std::vector<ScenarioDef> defs = {mechanicalDef("camp_a", 2.0)};
    CampaignOptions opt;
    opt.outDir = dir;
    const CampaignResult full = runCampaign(defs, opt);
    ASSERT_TRUE(full.ok);

    // Chop the manifest mid-way through its final frame.
    const std::string path = dir + "/MANIFEST";
    std::stringstream ss;
    {
        std::ifstream in(path, std::ios::binary);
        ss << in.rdbuf();
    }
    const std::string content = ss.str();
    const std::size_t lastFrame = content.rfind("ROW ");
    ASSERT_NE(lastFrame, std::string::npos);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << content.substr(0, lastFrame + 9);  // partial header line

    opt.resume = true;
    const CampaignResult resumed = runCampaign(defs, opt);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_GT(resumed.pointsResumed, 0u);   // the salvage was used
    EXPECT_GT(resumed.pointsRun, 0u);       // the chopped point re-ran
    EXPECT_EQ(resumed.canonicalLines(), full.canonicalLines());

    // The rewritten manifest is clean: resuming again skips everything.
    const CampaignResult again = runCampaign(defs, opt);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.pointsRun, 0u);
    EXPECT_EQ(again.pointsResumed, 12u);
    EXPECT_EQ(again.canonicalLines(), full.canonicalLines());
}

TEST(Campaign, ResumeIgnoresAManifestFromADifferentPlan) {
    const std::string dir = scratchDir("plan_change");
    const std::vector<ScenarioDef> defsA = {mechanicalDef("camp_a", 2.0)};
    CampaignOptions opt;
    opt.outDir = dir;
    const CampaignResult first = runCampaign(defsA, opt);
    ASSERT_TRUE(first.ok);

    // Same outDir, different plan (extra scenario): the stale manifest must
    // not poison the run — everything executes fresh.
    const std::vector<ScenarioDef> defsB = {mechanicalDef("camp_a", 2.0),
                                            mechanicalDef("camp_b", 5.0)};
    opt.resume = true;
    const CampaignResult second = runCampaign(defsB, opt);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.pointsResumed, 0u);
    EXPECT_EQ(second.pointsRun, 24u);
}

// --- Golden corpus ----------------------------------------------------------

TEST(Campaign, GoldenWriteThenCheckIsClean) {
    const std::string dir = scratchDir("golden_clean");
    const std::vector<ScenarioDef> defs = {mechanicalDef("camp_a", 2.0), smallBulkDef()};
    const CampaignResult result = runCampaign(defs, {});
    ASSERT_TRUE(result.ok) << result.error;
    std::string error;
    ASSERT_TRUE(writeGoldenCorpus(result, dir, error)) << error;
    EXPECT_TRUE(fs::exists(goldenArtifactPath(dir, "camp_a")));
    EXPECT_TRUE(fs::exists(goldenArtifactPath(dir, "camp_bulk")));

    // A re-run of the unchanged tree checks clean — including at a
    // different job count (artifacts are canonical, not run-shaped).
    CampaignOptions parallelOpt;
    parallelOpt.jobs = 3;
    const CampaignResult rerun = runCampaign(defs, parallelOpt);
    ASSERT_TRUE(rerun.ok);
    EXPECT_TRUE(checkGoldenCorpus(rerun, dir).empty());
}

TEST(Campaign, GoldenCheckFailsOnAKnobPerturbation) {
    const std::string dir = scratchDir("golden_perturb");
    std::vector<ScenarioDef> defs = {smallBulkDef()};
    const CampaignResult baseline = runCampaign(defs, {});
    ASSERT_TRUE(baseline.ok);
    std::string error;
    ASSERT_TRUE(writeGoldenCorpus(baseline, dir, error)) << error;

    // The acceptance perturbation: shrink the MSS by one 6LoWPAN frame.
    // Every simulated byte now takes a different path; the corpus must
    // catch it and name the first diverging row.
    defs[0].base.workload.mssFrames = 4;
    const CampaignResult perturbed = runCampaign(defs, {});
    ASSERT_TRUE(perturbed.ok);
    const std::vector<GoldenDiff> diffs = checkGoldenCorpus(perturbed, dir);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].scenario, "camp_bulk");
    EXPECT_NE(diffs[0].detail.find("diverged"), std::string::npos) << diffs[0].detail;
    EXPECT_NE(diffs[0].detail.find("rng_digest"), std::string::npos) << diffs[0].detail;
}

TEST(Campaign, GoldenCheckReportsMissingArtifactsAndCountChanges) {
    const std::string dir = scratchDir("golden_missing");
    const std::vector<ScenarioDef> defs = {mechanicalDef("camp_a", 2.0)};
    const CampaignResult result = runCampaign(defs, {});
    ASSERT_TRUE(result.ok);

    // No corpus at all -> missing artifact.
    std::vector<GoldenDiff> diffs = checkGoldenCorpus(result, dir);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].detail.find("missing"), std::string::npos);

    // Corpus written from a SMALLER grid -> point-count diff.
    std::vector<ScenarioDef> trimmed = defs;
    trimmed[0].seeds = {1};
    const CampaignResult small = runCampaign(trimmed, {});
    ASSERT_TRUE(small.ok);
    std::string error;
    ASSERT_TRUE(writeGoldenCorpus(small, dir, error)) << error;
    diffs = checkGoldenCorpus(result, dir);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].detail.find("point count changed"), std::string::npos)
        << diffs[0].detail;
}

// --- Golden subset registration --------------------------------------------

TEST(Campaign, GoldenSubsetCoversTheCuratedScenariosWhenLinked) {
    // The test binary links no bench drivers, so the registry is empty here
    // and the subset is too — but the helper must not crash, and the
    // registryDefs filter must behave.
    EXPECT_TRUE(goldenSubset().empty() ||
                goldenSubset().front().name == "sweep_smoke");
    const std::vector<ScenarioDef> none = registryDefs("no_such_scenario_name");
    EXPECT_TRUE(none.empty());
    // The curated name list is independent of what is linked: the campaign
    // CLI diffs the registered subset against it so a dropped driver fails
    // loudly instead of silently shrinking the corpus check.
    const std::vector<std::string> names = goldenSubsetNames();
    ASSERT_EQ(names.size(), 15u);
    EXPECT_EQ(names.front(), "sweep_smoke");
    EXPECT_EQ(names.back(), "bdp_line");
}
