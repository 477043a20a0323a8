// Scenario runner + golden-run regression corpus.
//
// runCampaign is the one way scenarios run. It flattens EVERY selected
// scenario's axis grid x seeds into one global run-point list, and `jobs`
// threads (the calling one included) each take the next pending point until
// none is left — a thread executes points from different scenarios
// back-to-back, so a registry full of small grids keeps all cores busy
// instead of draining one scenario at a time. Each point builds, runs and
// tears down its simulation on the thread that took it, and its row goes
// into the point's own slot, so the merge is deterministic (selection
// order across scenarios, grid order within) and campaign output is
// byte-identical for any --jobs N.
//
// Rows carry only simulation outputs — deterministic functions of
// (spec, seed); host timing and host work counters belong to the
// repository benchmark (benchmark/). That is what makes the output a
// cross-refactor determinism oracle, every field of every row included:
//
//  * --golden DIR writes one JSON-lines artifact per scenario (every
//    MetricRow, including each point's rng_digest).
//  * --check re-runs the campaign and diffs against the corpus; any drift
//    — a changed goodput, a shifted RNG stream, a reordered merge — fails
//    loudly with the first diverging line.
//  * The checked-in golden/ corpus pins a curated fast subset
//    (goldenSubset()), which CI re-checks on every push.
//
// Failures: the first point that throws fails the run with an error naming
// that point, and no further point starts. A failed TCPLP_ASSERT aborts the
// process, and its message names the point the thread was running.
//
// Resumability: with an output directory configured, every completed point
// is appended to MANIFEST (the exact row-frame encoding) as it lands, so a
// run killed by a signal keeps its finished points. Resuming skips
// completed points and merges their recorded rows — the final output is
// byte-identical to an uninterrupted run.
#pragma once

#include "tcplp/scenario/sweep.hpp"

namespace tcplp::scenario {

struct CampaignOptions {
    /// Threads running points, the calling one included (<= 1: the
    /// calling thread alone); clamped to the number of pending points.
    int jobs = 1;
    /// Directory for artifacts + the resume manifest ("" = keep in memory).
    std::string outDir{};
    bool resume = false;
    /// Non-empty: replaces every scenario's seed list.
    std::vector<std::uint64_t> seedOverride{};
    /// Per-scenario progress lines on stderr.
    bool progress = false;
};

struct CampaignResult {
    bool ok = false;
    std::string error;  // "failed while running <point>: <what()>", or I/O
    std::vector<SweepResult> scenarios;   // selection order
    std::size_t pointsRun = 0;
    std::size_t pointsResumed = 0;  // skipped via the manifest

    /// All scenarios' jsonLines() concatenated in selection order — the
    /// campaign's stdout rendering.
    std::string jsonLines() const;
};

/// Runs every def's full grid on `options.jobs` threads. Defs are copied
/// in (the golden subset trims registered defs); selection order is
/// preserved in the result. A def's bind and measure hooks run on those
/// threads, so they must not share mutable state between points.
CampaignResult runCampaign(const std::vector<ScenarioDef>& defs,
                           const CampaignOptions& options = {});

/// Registered defs whose name contains `filter` (all, when empty), in
/// registry order.
std::vector<ScenarioDef> registryDefs(const std::string& filter = {});

/// The curated golden-corpus subset, 15 scenarios: sweep_smoke,
/// sec72_hops, office_multiflow, grid200_dense, fig10_table8_day trimmed
/// from 24 to 1 simulated hour, the chaos scenarios line_blackout,
/// office_reboot_storm and border_router_restart, the self-healing
/// scenarios relay_failover and partition_heal, the congestion-control
/// shootouts fairness_cc_shootout and lossy_line_cc_shootout, city_scale
/// trimmed to a 120-node 15 s grid, and the high-BDP sweeps bdp_pipe and
/// bdp_line trimmed to 5 s and 8 s. Fast enough for CI, wide enough to
/// cover the bulk line path, the office tree, the dense grid, the runner
/// itself, the anemometer application study, fault injection, routing
/// failover, the congestion-control strategies, the megascale datapath and
/// window scaling. Regenerate golden/ with this exact subset (see
/// docs/SCENARIOS.md). Curated names missing from the registry are
/// skipped here (a test binary links no drivers); the campaign CLI compares
/// against goldenSubsetNames() and fails loudly, so a dropped driver cannot
/// silently shrink the corpus check.
std::vector<ScenarioDef> goldenSubset();

/// Every curated scenario name, whether or not it is linked/registered.
std::vector<std::string> goldenSubsetNames();

// --- Golden corpus ----------------------------------------------------------

/// DIR/<scenario>.jsonl
std::string goldenArtifactPath(const std::string& dir, const std::string& scenario);

/// Writes one artifact per scenario (its jsonLines()) into `dir` (created
/// if needed). Returns false with `error` set on I/O failure.
bool writeGoldenCorpus(const CampaignResult& result, const std::string& dir,
                       std::string& error);

struct GoldenDiff {
    std::string scenario;
    std::string detail;  // first diverging line (expected vs got), or a
                         // missing/short-artifact explanation
};

/// Diffs the result against the corpus in `dir`; empty = clean.
std::vector<GoldenDiff> checkGoldenCorpus(const CampaignResult& result,
                                          const std::string& dir);

}  // namespace tcplp::scenario
