// Shared conveniences for the bench driver translation units.
//
// Each driver registers one or more ScenarioDefs (a ~15-line declarative
// spec + an optional paper-style presenter) and contains no main(); CMake
// compiles every driver once, into `tcplp_campaign`, whose CLI
// (bench/campaign_main.cpp) runs any selection of them.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "tcplp/scenario/registry.hpp"
#include "tcplp/scenario/sweep.hpp"
#include "tcplp/scenario/workloads.hpp"

namespace bench {

using namespace tcplp;
using scenario::Axis;
using scenario::Point;
using scenario::Registration;
using scenario::ScenarioDef;
using scenario::ScenarioSpec;
using scenario::SweepResult;
using scenario::TopologyKind;
using scenario::WorkloadKind;

inline void printHeader(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
}

/// Parses the comma-separated doubles a row stores for vector-valued
/// metrics (e.g. fig10's hourly duty cycles).
inline std::vector<double> splitCsv(const std::string& csv) {
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string tok =
            csv.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!tok.empty()) out.push_back(std::strtod(tok.c_str(), nullptr));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

/// Sum of a numeric metric over the matching records (seed totals).
inline double sumAt(const SweepResult& r, const char* key,
                    std::initializer_list<std::pair<const char*, double>> match) {
    double sum = 0.0;
    for (const scenario::RunRecord* rec : r.select(match)) sum += rec->row.number(key);
    return sum;
}

}  // namespace bench
