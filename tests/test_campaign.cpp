// Campaign orchestrator + golden corpus coverage.
//
// The load-bearing guarantees pinned here:
//
//  1. Cross-scenario determinism: worker threads executing points from
//     DIFFERENT scenarios back-to-back produce output byte-identical to
//     the serial run, merged registry-order across scenarios and
//     grid-order within.
//
//  2. Resumability: a campaign aborted by a failed invariant names the
//     point it was running, resumes from its manifest (completed points
//     skipped, their recorded rows merged), and the final output is
//     byte-identical to an uninterrupted run.
//
//  3. Golden regression: --golden writes per-scenario artifacts, --check
//     passes against an unchanged tree, a deliberate knob perturbation (an
//     MSS change on a real bulk scenario) fails the check with the first
//     diverging row named, and no row field is exempt from the check.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "tcplp/common/assert.hpp"
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
/// any machinery bug (dropped row, reordered merge, state leaking between
/// points)
/// shows up as a byte diff.
ScenarioDef mechanicalDef(const std::string& name, double scale) {
    ScenarioDef def;
    def.name = name;
    def.axes = {{"i", {0, 1, 2}}, {"j", {10, 20}}};
    def.seeds = {1, 2};
    def.measure = [scale](const ScenarioSpec&, const Point& p) {
        MetricRow row;
        row.set("value", scale * p.value("i") + p.value("j") + double(p.seed) / 8.0)
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

// --- Cross-scenario sharding ------------------------------------------------

TEST(Campaign, CrossScenarioShardingIsByteIdenticalToSerial) {
    const std::vector<ScenarioDef> defs = {mechanicalDef("camp_a", 2.0),
                                           mechanicalDef("camp_b", 5.0),
                                           smallBulkDef()};
    CampaignOptions serialOpt;
    serialOpt.jobs = 1;
    CampaignOptions parallelOpt;
    parallelOpt.jobs = 5;  // odd, non-divisor: points from different
                           // scenarios interleave within one thread
    const CampaignResult serial = runCampaign(defs, serialOpt);
    const CampaignResult parallel = runCampaign(defs, parallelOpt);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_TRUE(parallel.ok) << parallel.error;
    ASSERT_EQ(serial.scenarios.size(), 3u);
    EXPECT_EQ(serial.pointsRun, 12u + 12u + 4u);
    EXPECT_EQ(serial.jsonLines(), parallel.jsonLines());
    // Merge order: selection order across scenarios, grid order within.
    EXPECT_EQ(serial.scenarios[0].def.name, "camp_a");
    EXPECT_EQ(serial.scenarios[2].def.name, "camp_bulk");
    for (std::size_t i = 0; i < serial.scenarios[2].records.size(); ++i)
        EXPECT_EQ(serial.scenarios[2].records[i].point.index, i);
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
    for (const SweepResult& s : result.scenarios) {
        ASSERT_EQ(s.records.size(), 6u);  // 3x2 axes, one override seed
        for (const RunRecord& r : s.records) EXPECT_EQ(r.point.seed, 7u);
    }
}

// --- Resume -----------------------------------------------------------------

namespace {

/// Def whose measure fails an invariant (TCPLP_ASSERT aborts the process)
/// on any point with i >= 2 while the poison flag file exists.
ScenarioDef poisonedDef(const std::string& flagPath) {
    ScenarioDef def;
    def.name = "camp_poison";
    def.axes = {{"i", {0, 1, 2, 3, 4, 5}}};
    def.seeds = {3};
    def.measure = [flagPath](const ScenarioSpec&, const Point& p) {
        TCPLP_ASSERT(p.value("i") < 2 || !fs::exists(flagPath));
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

    // Interrupt: the first poisoned point aborts the process partway
    // through, and the abort message names that point.
    std::ofstream(flag) << "1";
    CampaignOptions opt;
    opt.jobs = 2;
    opt.outDir = dir + "/out";
    EXPECT_DEATH(runCampaign(defs, opt),
                 "invariant failed.* while running scenario 'camp_poison' point [2-5]/6");

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
    EXPECT_EQ(resumed.jsonLines(), fresh.jsonLines());

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
    EXPECT_EQ(resumed.jsonLines(), full.jsonLines());

    // The rewritten manifest is clean: resuming again skips everything.
    const CampaignResult again = runCampaign(defs, opt);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.pointsRun, 0u);
    EXPECT_EQ(again.pointsResumed, 12u);
    EXPECT_EQ(again.jsonLines(), full.jsonLines());
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

    // A re-run of the unchanged tree checks clean, also at a different
    // job count.
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

TEST(Campaign, GoldenCheckPinsEveryRowField) {
    // Rows carry only simulation outputs, so no key is exempt from the
    // check — not even one spelled like a host-side rate.
    const std::string dir = scratchDir("golden_every_field");
    const auto rateDef = [](double rate) {
        ScenarioDef def;
        def.name = "camp_rate";
        def.measure = [rate](const ScenarioSpec&, const Point&) {
            MetricRow row;
            row.set("frames_per_sec", rate);
            return row;
        };
        return def;
    };
    const CampaignResult baseline = runCampaign({rateDef(100.0)});
    ASSERT_TRUE(baseline.ok) << baseline.error;
    std::string error;
    ASSERT_TRUE(writeGoldenCorpus(baseline, dir, error)) << error;
    EXPECT_TRUE(checkGoldenCorpus(baseline, dir).empty());

    const CampaignResult changed = runCampaign({rateDef(101.0)});
    ASSERT_TRUE(changed.ok) << changed.error;
    const std::vector<GoldenDiff> diffs = checkGoldenCorpus(changed, dir);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].detail.find("frames_per_sec"), std::string::npos)
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
