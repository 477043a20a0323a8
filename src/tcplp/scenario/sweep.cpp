#include "tcplp/scenario/sweep.hpp"

#include "tcplp/common/assert.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/sim/rng.hpp"

namespace tcplp::scenario {

std::vector<const RunRecord*> SweepResult::select(
    std::initializer_list<std::pair<const char*, double>> match) const {
    std::vector<const RunRecord*> out;
    for (const RunRecord& r : records) {
        bool ok = true;
        for (const auto& [axis, value] : match) {
            if (r.point.value(axis) != value) {
                ok = false;
                break;
            }
        }
        if (ok) out.push_back(&r);
    }
    return out;
}

const RunRecord* SweepResult::first(
    std::initializer_list<std::pair<const char*, double>> match) const {
    const auto matches = select(match);
    return matches.empty() ? nullptr : matches.front();
}

double SweepResult::mean(
    const char* key,
    std::initializer_list<std::pair<const char*, double>> match) const {
    const auto matches = select(match);
    if (matches.empty()) return 0.0;
    double sum = 0.0;
    for (const RunRecord* r : matches) sum += r->row.number(key);
    return sum / double(matches.size());
}

std::string SweepResult::jsonLines() const {
    std::string out;
    for (const RunRecord& r : records) {
        out += toJsonLine(r.row);
        out += '\n';
    }
    return out;
}

std::vector<Point> expandPoints(const ScenarioDef& def,
                                const std::vector<std::uint64_t>& seeds) {
    TCPLP_ASSERT(!seeds.empty());
    std::size_t total = seeds.size();
    for (const Axis& a : def.axes) {
        TCPLP_ASSERT(!a.values.empty());
        total *= a.values.size();
    }
    // Stride of axis k = product of all sizes to its right (seeds innermost).
    std::vector<std::size_t> strides(def.axes.size());
    std::size_t stride = seeds.size();
    for (std::size_t k = def.axes.size(); k-- > 0;) {
        strides[k] = stride;
        stride *= def.axes[k].values.size();
    }
    std::vector<Point> points;
    points.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        Point p;
        p.index = i;
        for (std::size_t k = 0; k < def.axes.size(); ++k) {
            const std::size_t vi = (i / strides[k]) % def.axes[k].values.size();
            p.values.emplace_back(def.axes[k].name, def.axes[k].values[vi]);
        }
        p.seed = def.deriveSeeds ? sim::Rng::deriveStream(def.baseSeed, i)
                                 : seeds[i % seeds.size()];
        points.push_back(std::move(p));
    }
    return points;
}

MetricRow runPointRow(const ScenarioDef& def, const Point& point) {
    ScenarioSpec spec = def.base;
    if (def.bind) def.bind(spec, point);
    const MetricRow metrics =
        def.measure ? def.measure(spec, point) : runScenario(spec, point.seed);
    MetricRow row;
    row.set("scenario", def.name)
        .set("index", std::uint64_t(point.index))
        .set("seed", point.seed);
    for (const auto& [axis, value] : point.values) row.set(axis, value);
    for (const auto& [key, value] : metrics.fields()) row.set(key, value);
    return row;
}

std::string describePoint(const ScenarioDef& def, const Point& point,
                          std::size_t totalPoints) {
    std::string out = "scenario '" + def.name + "' point " +
                      std::to_string(point.index) + "/" + std::to_string(totalPoints) +
                      " (";
    for (const auto& [axis, value] : point.values)
        out += axis + "=" + formatDouble(value) + ", ";
    out += "seed=" + std::to_string(point.seed) + ")";
    return out;
}

}  // namespace tcplp::scenario
