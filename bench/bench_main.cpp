// Shared CLI for every scenario bench binary.
//
// Each per-figure binary links exactly one driver TU (whose static
// Registration populates the registry) plus this main; `tcplp_bench` links
// all of them. Usage:
//
//   bench [--list] [--filter SUBSTR] [--jobs N] [--json] [--seeds a,b,c]
//         [--campaign]
//
//   --list      print registered scenarios and exit
//   --filter    run only scenarios whose name contains SUBSTR
//   --jobs N    shard each sweep across N worker processes (default 1);
//               merged output is byte-identical to N=1
//   --json      emit one JSON object per run point on stdout (suppresses the
//               human-readable paper tables); CI's sweep smoke parses this
//   --seeds     override every scenario's seed list
//   --campaign  cross-scenario sharding: flatten every selected scenario's
//               grid into one task list for a single worker pool (instead
//               of one pool per scenario); with --json, rows render
//               canonically (timing fields stripped — see tcplp_campaign)
//
// Exit status is nonzero if any sweep fails (including any worker process
// exiting abnormally), which is what the CI smoke keys on.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/driver.hpp"
#include "tcplp/scenario/campaign.hpp"

namespace {

bool parseSeedList(const char* text, std::vector<std::uint64_t>& out) {
    const char* p = text;
    while (*p) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(p, &end, 10);
        if (end == p) return false;
        out.push_back(v);
        p = *end == ',' ? end + 1 : end;
        if (*end != '\0' && *end != ',') return false;
    }
    return !out.empty();
}

void printDefaultTable(const bench::SweepResult& result) {
    for (const auto& record : result.records)
        std::printf("%s\n", tcplp::scenario::toJsonLine(record.row).c_str());
}

}  // namespace

int main(int argc, char** argv) {
    using namespace tcplp::scenario;

    bool list = false, json = false, campaign = false;
    std::string filter;
    SweepOptions options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&](const char* name) -> const char* {
            const std::string prefix = std::string(name) + "=";
            if (arg.rfind(prefix, 0) == 0) return argv[i] + prefix.size();
            if (arg == name && i + 1 < argc) return argv[++i];
            return nullptr;
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--campaign") {
            campaign = true;
        } else if (const char* v = valueOf("--filter")) {
            filter = v;
        } else if (const char* v = valueOf("--jobs")) {
            options.jobs = std::atoi(v);
        } else if (const char* v = valueOf("--seeds")) {
            options.seedOverride.clear();
            if (!parseSeedList(v, options.seedOverride)) {
                std::fprintf(stderr, "bad --seeds list: %s\n", v);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--list] [--filter SUBSTR] [--jobs N] [--json] "
                         "[--seeds a,b,c] [--campaign]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<const ScenarioDef*> selected;
    for (const ScenarioDef& def : Registry::instance().all()) {
        if (filter.empty() || def.name.find(filter) != std::string::npos)
            selected.push_back(&def);
    }
    if (list) {
        for (const ScenarioDef* def : selected) {
            std::size_t points = def->seeds.size();
            for (const Axis& a : def->axes) points *= a.values.size();
            std::printf("%-24s %4zu points  %s\n", def->name.c_str(), points,
                        def->title.c_str());
        }
        return 0;
    }
    if (selected.empty()) {
        std::fprintf(stderr, "no scenario matches filter '%s'\n", filter.c_str());
        return 1;
    }

    if (campaign) {
        // One shared worker pool over the whole selection: points from
        // different scenarios interleave across workers, and the merge is
        // registry order across scenarios / grid order within.
        CampaignOptions campaignOptions;
        campaignOptions.jobs = options.jobs;
        campaignOptions.seedOverride = options.seedOverride;
        std::vector<ScenarioDef> defs;
        for (const ScenarioDef* def : selected) defs.push_back(*def);
        const CampaignResult result = runCampaign(defs, campaignOptions);
        if (!result.ok) {
            std::fprintf(stderr, "campaign failed: %s\n", result.error.c_str());
            return 1;
        }
        for (const CampaignScenario& s : result.scenarios) {
            if (json) {
                const std::string lines = s.canonicalLines();
                std::fwrite(lines.data(), 1, lines.size(), stdout);
                continue;
            }
            bench::printHeader(s.def.title);
            SweepResult view;
            view.def = &s.def;
            view.records = s.records;
            view.ok = true;
            if (s.def.present) {
                s.def.present(view);
            } else {
                printDefaultTable(view);
            }
        }
        return 0;
    }

    for (const ScenarioDef* def : selected) {
        const SweepResult result = runSweep(*def, options);
        if (!result.ok) {
            std::fprintf(stderr, "[%s] sweep failed: %s\n", def->name.c_str(),
                         result.error.c_str());
            return 1;
        }
        if (json) {
            const std::string lines = result.jsonLines();
            std::fwrite(lines.data(), 1, lines.size(), stdout);
        } else {
            bench::printHeader(def->title);
            if (def->present) {
                def->present(result);
            } else {
                printDefaultTable(result);
            }
        }
    }
    return 0;
}
