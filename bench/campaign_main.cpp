// tcplp_campaign: the scenario CLI.
//
// Every bench/bench_*.cpp driver is linked in. Expands the selected
// scenarios' axis grids x seeds into one flat run-point list, runs it on
// --jobs threads, and emits one JSON object per point (byte-identical for
// any --jobs N). Usage:
//
//   tcplp_campaign [--list] [--filter SUBSTR] [--subset golden] [--jobs N]
//                  [--out DIR] [--resume] [--golden DIR] [--check]
//                  [--present-golden DIR] [--seeds a,b,c] [--quiet]
//
//   --list      print the selected scenarios with their point counts, exit
//   --filter    run only scenarios whose name contains SUBSTR
//   --subset    'golden': the curated fast corpus subset (scenario::goldenSubset)
//   --jobs N    threads running points across the whole campaign (N >= 1,
//               default 1); output is byte-identical to N=1
//   --out DIR   write per-scenario artifacts + a resume manifest to DIR
//   --resume    skip points already recorded in DIR's manifest
//   --golden D  write the golden corpus to D — or, with --check, diff
//               against it instead (exit 1 on any drift)
//   --check     verify mode: diff against --golden / --present-golden DIR
//   --present-golden D
//               write each scenario's paper table (its presenter output) to
//               D/<name>.txt — or diff against the snapshots with --check
//   --seeds     override every scenario's seed list (unsigned 64-bit
//               integers, comma-separated)
//   --quiet     suppress per-scenario progress on stderr
//
// A malformed option value exits with status 2. CI runs
// `tcplp_campaign --subset golden --golden golden --check` as the
// cross-refactor determinism oracle; see docs/SCENARIOS.md.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tcplp/scenario/campaign.hpp"

namespace {

/// Parses all of `text` as a base-10 integer: no sign on unsigned types, no
/// whitespace, no overflow.
template <typename T>
bool parseInteger(std::string_view text, T& out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

/// "a,b,c" -> seeds; every item must be a whole unsigned 64-bit integer.
bool parseSeedList(std::string_view text, std::vector<std::uint64_t>& out) {
    out.clear();
    for (;;) {
        const std::size_t comma = text.find(',');
        std::uint64_t seed = 0;
        if (!parseInteger(text.substr(0, comma), seed)) return false;
        out.push_back(seed);
        if (comma == std::string_view::npos) return true;
        text.remove_prefix(comma + 1);
    }
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--list] [--filter SUBSTR] [--subset golden] [--jobs N]\n"
                 "          [--out DIR] [--resume] [--golden DIR] [--check]\n"
                 "          [--present-golden DIR] [--seeds a,b,c] [--quiet]\n",
                 argv0);
    return 2;
}

/// The scenario's presenter output, captured from stdout. Rows hold only
/// simulation outputs, so the text is a deterministic function of
/// (spec, seed) and can be golden-pinned like the JSONL artifacts.
std::string capturePresentation(const tcplp::scenario::SweepResult& s) {
    std::fflush(stdout);
    FILE* sink = std::tmpfile();
    if (sink == nullptr) return {};
    const int saved = dup(fileno(stdout));
    dup2(fileno(sink), fileno(stdout));
    s.def.present(s);
    std::fflush(stdout);
    dup2(saved, fileno(stdout));
    close(saved);

    std::fseek(sink, 0, SEEK_END);
    const long size = std::ftell(sink);
    std::fseek(sink, 0, SEEK_SET);
    std::string text(size > 0 ? std::size_t(size) : 0, '\0');
    if (!text.empty() && std::fread(text.data(), 1, text.size(), sink) != text.size())
        text.clear();
    std::fclose(sink);
    return text;
}

std::string presentArtifactPath(const std::string& dir, const std::string& scenario) {
    return dir + "/" + scenario + ".txt";
}

/// "" on success, else a description of the first mismatch.
std::string diffPresentation(const std::string& path, const std::string& actual) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return "missing presenter snapshot " + path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string expected = ss.str();
    if (expected == actual) return {};
    // Name the first diverging line for the failure message.
    std::size_t line = 1, pos = 0;
    const std::size_t n = std::min(expected.size(), actual.size());
    while (pos < n && expected[pos] == actual[pos]) {
        if (expected[pos] == '\n') ++line;
        ++pos;
    }
    return "presenter output diverged at line " + std::to_string(line);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace tcplp::scenario;

    bool list = false, check = false, quiet = false;
    std::string filter, subset, goldenDir, presentDir;
    CampaignOptions options;
    options.progress = true;

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
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (const char* v = valueOf("--filter")) {
            filter = v;
        } else if (const char* v = valueOf("--subset")) {
            subset = v;
        } else if (const char* v = valueOf("--jobs")) {
            if (!parseInteger(v, options.jobs) || options.jobs < 1) {
                std::fprintf(stderr, "bad --jobs value: %s (want an integer >= 1)\n", v);
                return 2;
            }
        } else if (const char* v = valueOf("--out")) {
            options.outDir = v;
        } else if (const char* v = valueOf("--golden")) {
            goldenDir = v;
        } else if (const char* v = valueOf("--present-golden")) {
            presentDir = v;
        } else if (const char* v = valueOf("--seeds")) {
            if (!parseSeedList(v, options.seedOverride)) {
                std::fprintf(stderr,
                             "bad --seeds list: %s (want unsigned 64-bit integers, "
                             "comma-separated)\n",
                             v);
                return 2;
            }
        } else {
            return usage(argv[0]);
        }
    }
    options.progress = !quiet;
    if (check && goldenDir.empty() && presentDir.empty()) {
        std::fprintf(stderr,
                     "--check requires --golden DIR and/or --present-golden DIR "
                     "(the corpus to diff)\n");
        return 2;
    }
    if (options.resume && options.outDir.empty()) {
        std::fprintf(stderr, "--resume requires --out DIR (where the manifest lives)\n");
        return 2;
    }
    if (!subset.empty() && subset != "golden") {
        std::fprintf(stderr, "unknown --subset '%s' (only 'golden')\n", subset.c_str());
        return 2;
    }

    std::vector<ScenarioDef> defs =
        subset == "golden" ? goldenSubset() : registryDefs(filter);
    if (subset == "golden") {
        // A curated scenario whose driver stopped being linked must fail
        // loudly — otherwise the corpus check silently shrinks and the
        // "oracle" goes green while checking less than it claims.
        for (const std::string& name : goldenSubsetNames()) {
            bool found = false;
            for (const ScenarioDef& def : defs) found |= (def.name == name);
            if (!found) {
                std::fprintf(stderr,
                             "golden subset scenario '%s' is not registered in this "
                             "binary — corpus check would be incomplete\n",
                             name.c_str());
                return 1;
            }
        }
    }
    if (subset == "golden" && !filter.empty()) {
        std::erase_if(defs, [&filter](const ScenarioDef& d) {
            return d.name.find(filter) == std::string::npos;
        });
    }
    if (list) {
        for (const ScenarioDef& def : defs) {
            std::size_t points = options.seedOverride.empty()
                                     ? def.seeds.size()
                                     : options.seedOverride.size();
            for (const Axis& a : def.axes) points *= a.values.size();
            std::printf("%-24s %4zu points  %s\n", def.name.c_str(), points,
                        def.title.c_str());
        }
        return 0;
    }
    if (defs.empty()) {
        std::fprintf(stderr, "no scenario matches filter '%s'\n", filter.c_str());
        return 1;
    }

    const CampaignResult result = runCampaign(defs, options);
    if (!result.ok) {
        std::fprintf(stderr, "campaign failed: %s\n", result.error.c_str());
        return 1;
    }
    if (!quiet) {
        std::fprintf(stderr, "[campaign] %zu points run, %zu resumed, %zu scenarios\n",
                     result.pointsRun, result.pointsResumed, result.scenarios.size());
    }

    // --- Presenter snapshots ----------------------------------------------
    int presentFailures = 0;
    if (!presentDir.empty() && check) {
        std::size_t checked = 0;
        for (const SweepResult& s : result.scenarios) {
            if (!s.def.present) continue;
            const std::string detail = diffPresentation(
                presentArtifactPath(presentDir, s.def.name), capturePresentation(s));
            if (detail.empty()) {
                ++checked;
                continue;
            }
            std::fprintf(stderr, "[campaign] PRESENT DIFF in %s: %s\n",
                         s.def.name.c_str(), detail.c_str());
            ++presentFailures;
        }
        if (presentFailures == 0)
            std::fprintf(stderr, "[campaign] presenter check OK: %zu snapshots match %s\n",
                         checked, presentDir.c_str());
    } else if (!presentDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(presentDir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create present-golden directory '%s': %s\n",
                         presentDir.c_str(), ec.message().c_str());
            return 1;
        }
        std::size_t written = 0;
        for (const SweepResult& s : result.scenarios) {
            if (!s.def.present) continue;
            const std::string path = presentArtifactPath(presentDir, s.def.name);
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            if (!out) {
                std::fprintf(stderr, "cannot write presenter snapshot '%s'\n",
                             path.c_str());
                return 1;
            }
            out << capturePresentation(s);
            ++written;
        }
        std::fprintf(stderr, "[campaign] %zu presenter snapshots written to %s\n",
                     written, presentDir.c_str());
    }

    if (!goldenDir.empty() && check) {
        const std::vector<GoldenDiff> diffs = checkGoldenCorpus(result, goldenDir);
        if (diffs.empty()) {
            std::fprintf(stderr, "[campaign] golden check OK: %zu scenarios match %s\n",
                         result.scenarios.size(), goldenDir.c_str());
            return presentFailures == 0 ? 0 : 1;
        }
        for (const GoldenDiff& diff : diffs)
            std::fprintf(stderr, "[campaign] GOLDEN DIFF in %s: %s\n",
                         diff.scenario.c_str(), diff.detail.c_str());
        return 1;
    }
    if (check) return presentFailures == 0 ? 0 : 1;
    if (!goldenDir.empty()) {
        std::string error;
        if (!writeGoldenCorpus(result, goldenDir, error)) {
            std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr, "[campaign] golden corpus written: %zu scenarios -> %s\n",
                     result.scenarios.size(), goldenDir.c_str());
    }

    const std::string lines = result.jsonLines();
    std::fwrite(lines.data(), 1, lines.size(), stdout);
    return 0;
}
