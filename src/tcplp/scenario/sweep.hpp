// Grid expansion and the per-scenario result.
//
// A scenario's axis grid × seed list expands into run points
// (expandPoints); runCampaign (campaign.hpp) executes the points of every
// selected scenario on its worker threads and hands each scenario's rows
// back as a SweepResult in grid order. Each point's RNG stream is keyed on
// its grid position (sim::Rng::deriveStream), never on the thread that ran
// it, so the rows are byte-identical for any job count.
#pragma once

#include "tcplp/scenario/registry.hpp"

namespace tcplp::scenario {

/// One scenario's merged rows: what a presenter reads.
struct SweepResult {
    ScenarioDef def;                 // the def that ran (incl. trims)
    std::vector<RunRecord> records;  // grid order

    /// Records whose point matches every (axis, value) pair.
    std::vector<const RunRecord*> select(
        std::initializer_list<std::pair<const char*, double>> match) const;
    const RunRecord* first(
        std::initializer_list<std::pair<const char*, double>> match) const;
    /// Mean of a numeric metric over the matching records (e.g. seed-mean
    /// at one axis point).
    double mean(const char* key,
                std::initializer_list<std::pair<const char*, double>> match) const;
    /// One JSON object per record, grid order, trailing newline each: the
    /// campaign's artifact and golden-corpus rendering.
    std::string jsonLines() const;
};

/// Expands the def's grid (axes outermost in declaration order, seeds
/// innermost — the loop nesting of the pre-refactor drivers).
std::vector<Point> expandPoints(const ScenarioDef& def,
                                const std::vector<std::uint64_t>& seeds);

/// Executes one expanded run point: bind -> measure (or runScenario) ->
/// standard row prefix (scenario/index/seed/axes) + the measured fields.
MetricRow runPointRow(const ScenarioDef& def, const Point& point);

/// "scenario 'name' point 3/8 (hops=2, seed=1)" — used in diagnostics.
std::string describePoint(const ScenarioDef& def, const Point& point,
                          std::size_t totalPoints);

}  // namespace tcplp::scenario
