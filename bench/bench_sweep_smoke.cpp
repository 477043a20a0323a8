// A small registered scenario grid used as the parallel-runner smoke test:
// cheap enough for CI to run at --jobs 4, real enough to exercise the full
// line-topology bulk path on every worker thread. CI runs
//
//   tcplp_campaign --filter sweep_smoke --jobs 4 --quiet
//
// and fails on a nonzero exit, on output that differs from the --jobs 1
// run, or on a malformed JSON line; a ThreadSanitizer build runs it too,
// and the golden corpus pins its rows.
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "sweep_smoke";
    d.title = "Sweep smoke: 2x2 bulk grid x seeds (parallel-runner exerciser)";
    d.base.topology.retryDelayMax = sim::fromMillis(40);
    d.base.topology.queueCapacityPackets = 24;
    d.base.workload.totalBytes = 20000;
    d.base.workload.timeLimit = 10 * sim::kMinute;
    d.axes = {{"hops", {1, 2}}, {"uplink", {1, 0}}};
    d.seeds = {1, 2};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.hops = std::size_t(p.value("hops"));
        s.workload.uplink = p.value("uplink") != 0;
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-6s %-8s %-6s %14s %12s\n", "Hops", "Uplink", "Seed", "Goodput kb/s",
                    "ContentOK");
        for (const auto& record : r.records) {
            std::printf("%-6.0f %-8.0f %-6llu %14.1f %12s\n", record.point.value("hops"),
                        record.point.value("uplink"),
                        static_cast<unsigned long long>(record.point.seed),
                        record.row.number("goodput_kbps"),
                        record.row.number("content_ok") != 0 ? "yes" : "NO");
        }
    };
    return d;
}

Registration reg{def()};
}  // namespace
