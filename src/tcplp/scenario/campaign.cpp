#include "tcplp/scenario/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>

#include "tcplp/common/assert.hpp"
#include "tcplp/scenario/workloads.hpp"

namespace tcplp::scenario {

namespace {

/// One expanded cross-scenario run point: which def, which grid point, and
/// its position in the campaign's flat task list.
struct FlatPoint {
    std::size_t defIndex = 0;
    Point point;
};

struct FlatPlan {
    std::vector<FlatPoint> points;            // global task order
    std::vector<std::size_t> defOffsets;      // first global index per def
    std::vector<std::size_t> defPointCounts;  // points per def
};

FlatPlan expandPlan(const std::vector<ScenarioDef>& defs,
                    const std::vector<std::uint64_t>& seedOverride) {
    FlatPlan plan;
    for (std::size_t d = 0; d < defs.size(); ++d) {
        const std::vector<std::uint64_t>& seeds =
            seedOverride.empty() ? defs[d].seeds : seedOverride;
        std::vector<Point> points = expandPoints(defs[d], seeds);
        plan.defOffsets.push_back(plan.points.size());
        plan.defPointCounts.push_back(points.size());
        for (Point& p : points) plan.points.push_back({d, std::move(p)});
    }
    return plan;
}

constexpr const char* kManifestName = "MANIFEST";

std::string manifestHeader(const std::vector<ScenarioDef>& defs, const FlatPlan& plan) {
    std::string out = "CAMPAIGN v1 " + std::to_string(plan.points.size()) + "\n";
    for (std::size_t d = 0; d < defs.size(); ++d)
        out += "SCEN " + defs[d].name + ' ' + std::to_string(plan.defPointCounts[d]) + "\n";
    out += "PLAN-END\n";
    return out;
}

/// Completed rows recorded by an interrupted run whose plan header matches
/// the current one; an unreadable or mismatching manifest yields an empty
/// result (the campaign then starts fresh). The file tail may hold a
/// partial or malformed frame (the recording process died mid-write) —
/// every complete frame before it is salvaged; the campaign rewrites the
/// manifest from the salvage on resume, so corruption never compounds.
std::vector<std::pair<std::size_t, MetricRow>> loadManifestRows(
    const std::string& path, const std::string& expectedHeader) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    std::stringstream ss;
    ss << in.rdbuf();
    std::string content = ss.str();
    if (content.rfind(expectedHeader, 0) != 0) return {};
    content.erase(0, expectedHeader.size());
    std::vector<std::pair<std::size_t, MetricRow>> rows;
    drainRowFrames(content, rows);  // malformed tail: keep the salvage
    return rows;
}

}  // namespace

std::string CampaignResult::jsonLines() const {
    std::string out;
    for (const SweepResult& s : scenarios) out += s.jsonLines();
    return out;
}

CampaignResult runCampaign(const std::vector<ScenarioDef>& defs,
                           const CampaignOptions& options) {
    CampaignResult result;
    const FlatPlan plan = expandPlan(defs, options.seedOverride);
    // Row i lands in slot i whichever thread ran it, so the merge below
    // does not depend on scheduling.
    std::vector<MetricRow> rows(plan.points.size());
    std::vector<bool> resumed(plan.points.size(), false);

    // --- Resume manifest -------------------------------------------------
    FILE* manifest = nullptr;
    if (!options.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.outDir, ec);
        if (ec) {
            result.error = "cannot create output directory '" + options.outDir +
                           "': " + ec.message();
            return result;
        }
        const std::string path = options.outDir + "/" + kManifestName;
        const std::string header = manifestHeader(defs, plan);
        std::vector<std::pair<std::size_t, MetricRow>> recorded;
        if (options.resume) recorded = loadManifestRows(path, header);
        // Always rewrite header + salvaged rows from scratch: this
        // normalizes a manifest whose tail holds a partial frame (the
        // recorder died mid-write), so a later resume never trips over it.
        manifest = std::fopen(path.c_str(), "wb");
        if (manifest == nullptr) {
            result.error = "cannot open campaign manifest '" + path + "'";
            return result;
        }
        std::fwrite(header.data(), 1, header.size(), manifest);
        for (auto& [index, row] : recorded) {
            if (index >= rows.size() || resumed[index]) continue;
            const std::string frame = encodeRowFrame(index, row);
            std::fwrite(frame.data(), 1, frame.size(), manifest);
            rows[index] = std::move(row);
            resumed[index] = true;
            ++result.pointsResumed;
        }
        std::fflush(manifest);
    }

    std::vector<std::size_t> pending;
    std::vector<std::size_t> done(defs.size(), 0);  // per-scenario progress
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        if (resumed[i]) {
            ++done[plan.points[i].defIndex];
        } else {
            pending.push_back(i);
        }
    }

    // --- Run the pending points --------------------------------------------
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex recordMutex;  // guards manifest, done, result.pointsRun/error
    const auto fail = [&](const std::string& task, const char* what) {
        detail::runningTask = nullptr;
        failed = true;
        const std::lock_guard lock(recordMutex);
        if (result.error.empty())
            result.error = "failed while running " + task + ": " + what;
    };
    // Every thread, the calling one included, takes the next pending point
    // until none is left or one has failed.
    const auto runPoints = [&] {
        std::string task;
        try {
            for (std::size_t p = next++; p < pending.size() && !failed; p = next++) {
                const std::size_t i = pending[p];
                const std::size_t d = plan.points[i].defIndex;
                task = describePoint(defs[d], plan.points[i].point, plan.defPointCounts[d]);
                detail::runningTask = task.c_str();
                rows[i] = runPointRow(defs[d], plan.points[i].point);
                detail::runningTask = nullptr;

                const std::lock_guard lock(recordMutex);
                if (manifest != nullptr) {
                    const std::string frame = encodeRowFrame(i, rows[i]);
                    std::fwrite(frame.data(), 1, frame.size(), manifest);
                    std::fflush(manifest);  // crash-durable: resume picks it up
                }
                ++result.pointsRun;
                if (++done[d] == plan.defPointCounts[d] && options.progress) {
                    std::fprintf(stderr, "[campaign] %-24s done (%zu points)\n",
                                 defs[d].name.c_str(), plan.defPointCounts[d]);
                }
            }
        } catch (const std::exception& e) {
            fail(task, e.what());
        } catch (...) {
            fail(task, "non-standard exception");
        }
    };
    const std::size_t threads =
        std::min<std::size_t>(std::size_t(std::max(options.jobs, 1)),
                              std::max<std::size_t>(pending.size(), 1));
    {
        std::vector<std::jthread> helpers;  // joined when this scope ends
        for (std::size_t t = 1; t < threads; ++t) {
            try {
                helpers.emplace_back(runPoints);
            } catch (const std::system_error&) {
                break;  // no more threads: the running ones share the rest
            }
        }
        runPoints();
    }
    if (manifest != nullptr) std::fclose(manifest);
    if (failed) {
        if (options.progress)
            std::fprintf(stderr, "[campaign] FAILED: %s\n", result.error.c_str());
        return result;
    }

    // --- Registry-order scenario assembly --------------------------------
    for (std::size_t d = 0; d < defs.size(); ++d) {
        SweepResult scenario;
        scenario.def = defs[d];
        scenario.records.reserve(plan.defPointCounts[d]);
        for (std::size_t k = 0; k < plan.defPointCounts[d]; ++k) {
            const std::size_t global = plan.defOffsets[d] + k;
            scenario.records.push_back(
                RunRecord{plan.points[global].point, std::move(rows[global])});
        }
        result.scenarios.push_back(std::move(scenario));
    }

    // Per-scenario artifacts next to the manifest (same rendering as the
    // golden corpus, on purpose: an --out tree can serve as a corpus).
    if (!options.outDir.empty() &&
        !writeGoldenCorpus(result, options.outDir, result.error)) {
        return result;
    }

    result.ok = true;
    return result;
}

std::vector<ScenarioDef> registryDefs(const std::string& filter) {
    std::vector<ScenarioDef> defs;
    for (const ScenarioDef& def : Registry::instance().all()) {
        if (filter.empty() || def.name.find(filter) != std::string::npos)
            defs.push_back(def);
    }
    return defs;
}

namespace {

struct GoldenEntry {
    const char* name;
    void (*trim)(ScenarioDef&);
};

constexpr GoldenEntry kGoldenEntries[] = {
    {"sweep_smoke", nullptr},
    {"sec72_hops", nullptr},
    {"office_multiflow", nullptr},
    {"grid200_dense", nullptr},
    {"fig10_table8_day",
     +[](ScenarioDef& d) {
         // The full figure simulates 24 hours (~50 s wall); one diurnal
         // hour exercises the identical code paths and keeps the CI
         // check fast. The corpus pins this trimmed variant.
         d.base.workload.anemometer.duration = 1 * sim::kHour;
     }},
    // Chaos scenarios: pinning these proves fault expansion, reboot/blackout
    // scheduling, reconnect backoff and the recovery metrics are all
    // deterministic functions of (spec, seed).
    {"line_blackout", nullptr},
    {"office_reboot_storm", nullptr},
    {"border_router_restart", nullptr},
    // Self-healing routing scenarios: pin liveness detection, alternate
    // failover/failback and permanent-failure injection end to end.
    {"relay_failover", nullptr},
    {"partition_heal", nullptr},
    // Congestion-control shootout scenarios: pin the pluggable-CC strategy
    // rows (per-cc goodput, loss_cuts / cuts_skipped, cwnd dynamics) so a
    // behavior change in any strategy — or in the ccMetrics schema — is a
    // deliberate golden update.
    {"fairness_cc_shootout", nullptr},
    {"lossy_line_cc_shootout", nullptr},
    {"city_scale",
     +[](ScenarioDef& d) {
         // The full scenario is a 1,024-node grid; the corpus pins a
         // 120-node, 15-second run — same code paths (slab pool, batched
         // delivery, 24 flows), CI-sized wall cost.
         d.base = cityScaleSpec(15 * sim::kSecond, 120);
     }},
    // High-BDP frontier scenarios: pin RFC 7323 negotiation, shift-aware
    // window codec, receive-buffer autotuning, the ESP32-class link preset
    // and MAC frame aggregation end to end — a byte change in any of them
    // is a deliberate golden update.
    {"bdp_pipe",
     +[](ScenarioDef& d) {
         // The full ceiling curve runs 15 s per point; the corpus pins a
         // 5-second slice of the same grid — identical code paths
         // (negotiation, autotune growth, scaled adverts), CI-sized cost.
         d.base.workload.timeLimit = 5 * sim::kSecond;
     }},
    {"bdp_line",
     +[](ScenarioDef& d) { d.base.workload.timeLimit = 8 * sim::kSecond; }},
};

}  // namespace

std::vector<ScenarioDef> goldenSubset() {
    std::vector<ScenarioDef> defs;
    for (const GoldenEntry& entry : kGoldenEntries) {
        const ScenarioDef* def = Registry::instance().find(entry.name);
        if (def == nullptr) continue;  // binary without that driver linked
        defs.push_back(*def);
        if (entry.trim != nullptr) entry.trim(defs.back());
    }
    return defs;
}

std::vector<std::string> goldenSubsetNames() {
    std::vector<std::string> names;
    for (const GoldenEntry& entry : kGoldenEntries) names.emplace_back(entry.name);
    return names;
}

// --- Golden corpus ----------------------------------------------------------

std::string goldenArtifactPath(const std::string& dir, const std::string& scenario) {
    return dir + "/" + scenario + ".jsonl";
}

bool writeGoldenCorpus(const CampaignResult& result, const std::string& dir,
                       std::string& error) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        error = "cannot create golden directory '" + dir + "': " + ec.message();
        return false;
    }
    for (const SweepResult& s : result.scenarios) {
        const std::string path = goldenArtifactPath(dir, s.def.name);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            error = "cannot write golden artifact '" + path + "'";
            return false;
        }
        out << s.jsonLines();
    }
    return true;
}

std::vector<GoldenDiff> checkGoldenCorpus(const CampaignResult& result,
                                          const std::string& dir) {
    std::vector<GoldenDiff> diffs;
    const auto splitLines = [](const std::string& text) {
        std::vector<std::string> lines;
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t end = text.find('\n', pos);
            if (end == std::string::npos) end = text.size();
            lines.push_back(text.substr(pos, end - pos));
            pos = end + 1;
        }
        return lines;
    };
    for (const SweepResult& s : result.scenarios) {
        const std::string path = goldenArtifactPath(dir, s.def.name);
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            diffs.push_back({s.def.name, "missing golden artifact " + path});
            continue;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        const std::vector<std::string> expected = splitLines(ss.str());
        const std::vector<std::string> actual = splitLines(s.jsonLines());
        if (expected.size() != actual.size()) {
            diffs.push_back({s.def.name,
                             "point count changed: golden has " +
                                 std::to_string(expected.size()) + " rows, run produced " +
                                 std::to_string(actual.size())});
            continue;
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
            if (expected[i] == actual[i]) continue;
            diffs.push_back({s.def.name, "row " + std::to_string(i) +
                                             " diverged\n  golden: " + expected[i] +
                                             "\n  run:    " + actual[i]});
            break;  // first diverging row per scenario is enough
        }
    }
    return diffs;
}

}  // namespace tcplp::scenario
