// tcplp_benchmark: the repository benchmark program.
//
//   tcplp_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--trace-dir DIR]
//   tcplp_benchmark --check [--seed N]
//   tcplp_benchmark --list
//
// An untraced run measures the end-to-end metrics: it runs round(S / 2.5)
// episodes of the workload (episode k simulates seed deriveStream(N, k)),
// pools their simulated outcomes, and reports host speed as the median over
// episodes and set-up time as the median of batched set-ups timed before
// the episodes. A traced run (--trace 1) re-runs episode 0 cut into 10 s
// simulated slices, snapshots the public layer counters after each slice,
// times the benchmark's own callbacks, runs the layer probes and reports the
// per-layer metrics; it also runs episode 0 untraced to print the tracing
// overhead and to prove slicing left the simulation unchanged.
//
// Output: one "workload metric value unit" line per metric, then one JSON
// line {"correct","attempted","failed","metrics"} — always the last line.
// The exit code is nonzero if any output check failed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "probes.hpp"
#include "stats.hpp"
#include "tcplp/sim/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace tcplp::bm {
namespace {

/// Host seconds one episode takes on the reference machine: --seconds S
/// buys round(S / kEpisodeSeconds) episodes.
constexpr double kEpisodeSeconds = 2.5;
/// setup_s is the median of kSetupReps batched set-up timings, taken
/// before the episodes run.
constexpr int kSetupReps = 7;
constexpr std::int64_t kSetupBatchNs = 50'000'000;
constexpr sim::Time kSlice = 10 * sim::kSecond;
/// --check runs every workload at this fraction of its measurement window.
constexpr double kCheckScale = 1.0 / 20.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir;
    bool check = false;
    bool list = false;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct EpisodeRun {
    SimMetrics sim;
    double runS = 0.0;  // every runUntil, set-up excluded
    // Traced episodes only.
    Counters counters{};  // layer-counter deltas over the run phase
    HookTotals hooks;
    std::int64_t sliceNs = 0;
    std::size_t pendingMax = 0;

    double framesPerS() const { return ratio(double(sim.frames), runS); }
};

std::uint64_t episodeSeed(std::uint64_t seed, std::uint64_t k) {
    return sim::Rng::deriveStream(seed, k);
}

class PhaseClock : public Clock {
public:
    explicit PhaseClock(sim::Simulator& sim) : sim_(sim) {}
    void runUntil(sim::Time until) override { sim_.runUntil(until); }

private:
    sim::Simulator& sim_;
};

/// Cuts every phase into slices ending on multiples of 10 simulated seconds;
/// each slice is one span carrying the layer-counter and hook deltas.
class SliceClock : public Clock {
public:
    SliceClock(Episode& ep, Tracer& tracer, int parent)
        : ep_(ep), tracer_(tracer), parent_(parent), last_(ep.counters()) {}

    void runUntil(sim::Time until) override {
        sim::Simulator& sim = ep_.testbed().simulator();
        do {
            const sim::Time next = std::min(until, (sim.now() / kSlice + 1) * kSlice);
            const HookTotals h0 = tracer_.hooks();
            const int span = tracer_.begin("sim.slice", parent_);
            sim.runUntil(next);
            tracer_.end(span);
            const Span& s = tracer_.spans()[std::size_t(span)];
            sliceNs_ += s.endNs - s.startNs;
            const Counters now = ep_.counters();
            const Counters d = now - last_;
            last_ = now;
            const HookTotals h = tracer_.hooks() - h0;
            tracer_.arg(span, "sim_time_s", sim::toSeconds(next));
            tracer_.arg(span, "sim.pending", double(sim.pendingEvents()));
            for (std::size_t i = 0; i < kCounterCount; ++i) {
                if (d[i] != 0) tracer_.arg(span, kCounterNames[i], double(d[i]));
            }
            for (std::size_t i = 0; i < kHookCount; ++i) {
                if (h.count[i] == 0) continue;
                tracer_.arg(span, std::string(kHookNames[i]) + ".count", double(h.count[i]));
                tracer_.arg(span, std::string(kHookNames[i]) + ".ns", double(h.ns[i]));
            }
            pendingMax_ = std::max(pendingMax_, sim.pendingEvents());
        } while (sim.now() < until);
    }

    std::int64_t sliceNs() const { return sliceNs_; }
    std::size_t pendingMax() const { return pendingMax_; }

private:
    Episode& ep_;
    Tracer& tracer_;
    int parent_;
    Counters last_;
    std::int64_t sliceNs_ = 0;
    std::size_t pendingMax_ = 0;
};

/// One episode: set up, run (timed), collect, tear down.
EpisodeRun runEpisode(const WorkloadDef& def, std::uint64_t seed, double scale,
                      Tracer* tracer) {
    EpisodeRun out;
    g_tracer = tracer;
    const int root = tracer ? tracer->begin("workload", -1) : -1;
    int span = tracer ? tracer->begin("harness.build", root) : -1;
    std::unique_ptr<Episode> ep = def.make(seed, scale);
    if (tracer) {
        tracer->end(span);
        span = tracer->begin("tcp.open", root);
    }
    ep->open();
    if (tracer) tracer->end(span);

    const Counters c0 = tracer ? ep->counters() : Counters{};
    const HookTotals h0 = tracer ? tracer->hooks() : HookTotals{};
    const std::int64_t t0 = nowNs();
    if (tracer) {
        SliceClock clock(*ep, *tracer, root);
        ep->run(clock);
        out.sliceNs = clock.sliceNs();
        out.pendingMax = clock.pendingMax();
    } else {
        PhaseClock clock(ep->testbed().simulator());
        ep->run(clock);
    }
    out.runS = double(nowNs() - t0) / 1e9;
    if (tracer) {
        out.counters = ep->counters() - c0;
        out.hooks = tracer->hooks() - h0;
    }
    out.sim = ep->finish();
    ep.reset();
    if (tracer) tracer->end(root);
    g_tracer = nullptr;
    return out;
}

struct SetupTime {
    double buildS = 0.0;
    double setupS = 0.0;
};

/// Host seconds per set-up (build + open; teardown untimed), averaged over
/// a batch of at least kSetupBatchNs so that microsecond set-ups are not
/// lost in timer noise.
SetupTime timeSetups(const WorkloadDef& def, std::uint64_t seed) {
    std::int64_t build = 0, total = 0;
    int n = 0;
    do {
        const std::int64_t t0 = nowNs();
        std::unique_ptr<Episode> ep = def.make(seed, 1.0);
        const std::int64_t t1 = nowNs();
        ep->open();
        const std::int64_t t2 = nowNs();
        build += t1 - t0;
        total += t2 - t0;
        ++n;
    } while (total < kSetupBatchNs);
    return {double(build) / n / 1e9, double(total) / n / 1e9};
}

/// Pools the simulated outcomes of a run's episodes.
SimMetrics pool(const std::vector<EpisodeRun>& runs) {
    SimMetrics p;
    p.perFlowBytes.assign(runs.front().sim.perFlowBytes.size(), 0.0);
    std::size_t rtt = 0, ops = 0;
    for (const EpisodeRun& r : runs) {
        rtt += r.sim.rttMs.size();
        ops += r.sim.opLatencyS.size();
    }
    p.rttMs.reserve(rtt);
    p.opLatencyS.reserve(ops);
    for (const EpisodeRun& r : runs) {
        const SimMetrics& s = r.sim;
        p.frames += s.frames;
        p.windowS += s.windowS;
        p.bytesVerified += s.bytesVerified;
        for (std::size_t i = 0; i < s.perFlowBytes.size(); ++i)
            p.perFlowBytes[i] += s.perFlowBytes[i];
        p.rttMs.insert(p.rttMs.end(), s.rttMs.begin(), s.rttMs.end());
        p.opLatencyS.insert(p.opLatencyS.end(), s.opLatencyS.begin(), s.opLatencyS.end());
        p.attempted += s.attempted;
        p.failed += s.failed;
        p.radioDc += s.radioDc / double(runs.size());
        if (!s.correct) p.fail(s.error);
    }
    return p;
}

/// Peak resident set in MiB, from VmHWM: unlike getrusage's ru_maxrss it
/// starts afresh at exec, so the footprint of whatever launched the
/// benchmark cannot leak into it.
double peakRssMiB() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

std::string number(double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

/// The human lines, then the JSON result as the last line of stdout.
void report(const std::string& workload, const std::vector<Metric>& metrics,
            const std::vector<Metric>& extra, const SimMetrics& outcome) {
    for (const Metric& m : metrics)
        std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(), number(m.value).c_str(),
                    m.unit.c_str());
    for (const Metric& m : extra)
        std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(), number(m.value).c_str(),
                    m.unit.c_str());
    if (!outcome.correct)
        std::printf("%s check_failed %s\n", workload.c_str(), outcome.error.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
                outcome.correct ? "true" : "false", (unsigned long long)outcome.attempted,
                (unsigned long long)outcome.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", i ? "," : "",
                    metrics[i].name.c_str(), number(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

int runMeasured(const Options& o, const WorkloadDef& def) {
    const int episodes = std::max(1, int(std::lround(o.seconds / kEpisodeSeconds)));
    std::vector<double> setups;
    for (int r = 0; r < kSetupReps; ++r)
        setups.push_back(timeSetups(def, episodeSeed(o.seed, std::uint64_t(r % episodes))).setupS);
    std::vector<EpisodeRun> runs;
    std::vector<double> fps;
    for (int k = 0; k < episodes; ++k) {
        runs.push_back(runEpisode(def, episodeSeed(o.seed, std::uint64_t(k)), 1.0, nullptr));
        fps.push_back(runs.back().framesPerS());
    }
    const double rss = peakRssMiB();  // before pooling adds the benchmark's own copies
    const SimMetrics p = pool(runs);
    const std::vector<Metric> metrics = {
        {"frames_per_s", median(fps), "frames/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"goodput_kbps", ratio(double(p.bytesVerified) * 8.0 / 1000.0, p.windowS), "kb/s"},
        {"jain_fairness", jain(p.perFlowBytes), "ratio"},
        {"rtt_mean_ms", mean(p.rttMs), "ms"},
        {"rtt_tail_ms", tailMean(p.rttMs, 0.10), "ms"},
        {"op_latency_mean_s", mean(p.opLatencyS), "s"},
        {"op_latency_p90_s", quantile(p.opLatencyS, 0.90), "s"},
        {"radio_dc", p.radioDc, "ratio"},
    };
    const std::vector<Metric> extra = {
        {"rtt_p50_ms", binnedQuantile(p.rttMs, 0.50), "ms"},
        {"rtt_p99_ms", binnedQuantile(p.rttMs, 0.99), "ms"},
        {"rtt_n", double(p.rttMs.size()), "count"},
        {"op_latency_p50_s", quantile(p.opLatencyS, 0.50), "s"},
        {"op_latency_p99_s", quantile(p.opLatencyS, 0.99), "s"},
        {"ops", double(p.opLatencyS.size()), "count"},
        {"fail_ratio", ratio(double(p.failed), double(p.attempted)), "ratio"},
        {"episodes", double(episodes), "count"},
        {"sim_frames", double(p.frames), "count"},
    };
    report(def.name, metrics, extra, p);
    return p.correct && p.attempted > 0 ? 0 : 1;
}

int runTraced(const Options& o, const WorkloadDef& def) {
    const std::uint64_t seed = episodeSeed(o.seed, 0);
    const EpisodeRun plain = runEpisode(def, seed, 1.0, nullptr);
    const std::string traceId = std::string(def.name) + "-seed" + std::to_string(o.seed);
    Tracer tracer(traceId);
    EpisodeRun t = runEpisode(def, seed, 1.0, &tracer);
    // Slicing must not perturb the simulation: same RNG digest, same metrics.
    if (!(t.sim == plain.sim)) t.sim.fail("the traced run diverged from the untraced run");

    std::vector<double> builds;
    for (int r = 0; r < kSetupReps; ++r) builds.push_back(timeSetups(def, seed).buildS);
    const double schedNs = probeSchedulerNsPerEvent(t.pendingMax);
    const double lowpanNs = probeLowpanNsPerDatagram(def.probe);
    const double segNs = probeSegmentNsPerSegment(def.probe);

    const Counters& c = t.counters;
    const double frames = double(c[kPhyFrames]);
    const double events = double(c[kSimFired]);
    const double appSelfS = double(t.hooks.appSelfNs) / 1e9;
    const double simSelfS = double(t.sliceNs) / 1e9 - appSelfS;
    const auto sendIdx = std::size_t(Hook::kTcpSend);
    const SimMetrics& s = t.sim;
    const std::vector<Metric> metrics = {
        {"harness.build_s", median(builds), "s"},
        {"sim.events", events, "count"},
        {"sim.events_per_frame", ratio(events, frames), "ratio"},
        {"sim.reschedules", double(c[kSimRescheduled]), "count"},
        {"sim.pending_max", double(t.pendingMax), "count"},
        {"sim.self_s", simSelfS, "s"},
        {"sim.ns_per_event", ratio(simSelfS * 1e9, events), "ns"},
        {"sim.probe_ns_per_event", schedNs, "ns"},
        {"phy.frames", frames, "count"},
        {"phy.listener_visits_per_frame", ratio(double(c[kPhyListenerVisits]), frames), "ratio"},
        {"phy.delivery_events_per_frame", ratio(double(c[kPhyDeliveryEvents]), frames), "ratio"},
        {"phy.neighbor_rebuilds", double(c[kPhyNeighborRebuilds]), "count"},
        {"phy.collision_ratio", ratio(double(c[kPhyCollided]), frames), "ratio"},
        {"phy.fade_ratio", ratio(double(c[kPhyFaded]), frames), "ratio"},
        {"mac.payloads", double(c[kMacPayloads]), "count"},
        {"mac.tx_per_payload", ratio(double(c[kMacTransmissions]), double(c[kMacPayloads])),
         "ratio"},
        {"mac.retries", double(c[kMacRetries]), "count"},
        {"mac.cca_failures", double(c[kMacCcaFailures]), "count"},
        {"mac.payload_fail_ratio", ratio(double(c[kMacFailed]), double(c[kMacPayloads])),
         "ratio"},
        {"mac.aggregated_frames", double(c[kMacAggregated]), "count"},
        {"mac.polls", double(c[kMacPolls]), "count"},
        {"lowpan.frames_per_datagram", double(framesPerDatagram(def.probe)), "ratio"},
        {"lowpan.reassembled", double(c[kLowpanReassembled]), "count"},
        {"lowpan.reassembly_drops", double(c[kLowpanReassemblyDrops]), "count"},
        {"lowpan.prepend_fallbacks", double(c[kLowpanPrependFallbacks]), "count"},
        {"lowpan.probe_ns_per_datagram", lowpanNs, "ns"},
        {"mesh.forwarded", double(c[kMeshForwarded]), "count"},
        {"mesh.forwards_per_delivered",
         ratio(double(c[kMeshForwarded]), double(c[kMeshDelivered])), "ratio"},
        {"mesh.forward_drops", double(c[kMeshForwardDrops]), "count"},
        {"mesh.no_route_drops", double(c[kMeshNoRouteDrops]), "count"},
        {"mesh.deep_copies", double(c[kMeshDeepCopies]), "count"},
        {"ip6.queue_enqueued", double(c[kIp6Enqueued]), "count"},
        {"ip6.queue_tail_drops", double(c[kIp6TailDrops]), "count"},
        {"tcp.segs_sent", double(c[kTcpSegsSent]), "count"},
        {"tcp.rexmit_ratio", ratio(double(c[kTcpRexmits]), double(c[kTcpSegsSent])), "ratio"},
        {"tcp.timeouts", double(c[kTcpTimeouts]), "count"},
        {"tcp.fast_rexmits", double(c[kTcpFastRexmits]), "count"},
        {"tcp.sack_rexmits", double(c[kTcpSackRexmits]), "count"},
        {"tcp.dup_acks", double(c[kTcpDupAcks]), "count"},
        {"tcp.loss_cuts", double(c[kTcpLossCuts]), "count"},
        {"tcp.conns_opened", double(s.connsOpened), "count"},
        {"tcp.conns_failed", double(s.connsFailed), "count"},
        {"tcp.live_sockets_max", double(s.liveSocketsMax), "count"},
        {"tcp.handshake_ms_p50", quantile(s.handshakeMs, 0.50), "ms"},
        {"tcp.handshake_ms_p99", quantile(s.handshakeMs, 0.99), "ms"},
        {"tcp.teardown_resets", double(s.teardownResets), "count"},
        {"tcp.header_prediction_ratio",
         ratio(double(c[kTcpHeaderPredictions]), double(c[kTcpSegsReceived])), "ratio"},
        {"tcp.send_calls", double(t.hooks.count[sendIdx]), "count"},
        {"tcp.send_ns_per_call",
         ratio(double(t.hooks.ns[sendIdx]), double(t.hooks.count[sendIdx])), "ns"},
        {"tcp.probe_ns_per_segment", segNs, "ns"},
        {"common.heap_allocs_per_frame", ratio(double(c[kHeapAllocs]), frames), "ratio"},
        {"common.pool_hit_ratio",
         ratio(double(c[kPoolRecycled]), double(c[kPoolRecycled] + c[kPoolFresh])), "ratio"},
        {"common.pbuf_deep_copies", double(c[kPbufDeepCopies]), "count"},
        {"common.pbuf_copied_bytes_per_frame", ratio(double(c[kPbufCopiedBytes]), frames),
         "B"},
        {"common.smallfn_heap_fallbacks", double(c[kSmallFnHeapFallbacks]), "count"},
        {"app.callback_s", appSelfS, "s"},
        {"app.bytes_verified", double(s.bytesVerified), "B"},
        {"app.queue_drops", double(s.queueDrops), "count"},
        {"app.fail_ratio", ratio(double(s.failed), double(s.attempted)), "ratio"},
    };
    std::vector<Metric> extra = {
        {"trace_overhead", ratio(plain.framesPerS(), t.framesPerS()) - 1.0, "ratio"},
        {"untraced_frames_per_s", plain.framesPerS(), "frames/s"},
        {"traced_frames_per_s", t.framesPerS(), "frames/s"},
        {"slices", double(tracer.spans().size() - 3), "count"},
    };
    if (!o.traceDir.empty()) {
        const std::string path = o.traceDir + "/" + traceId + ".json";
        if (!tracer.writeChromeJson(path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "%s: trace written to %s\n", def.name, path.c_str());
    }
    report(def.name, metrics, extra, s);
    return s.correct && s.attempted > 0 ? 0 : 1;
}

/// Every workload at 1/20 length: twice untraced and once traced. The three
/// runs must agree exactly, and every output check must pass.
int runCheck(const Options& o) {
    bool ok = true;
    for (const WorkloadDef& def : workloads()) {
        const EpisodeRun a = runEpisode(def, o.seed, kCheckScale, nullptr);
        const EpisodeRun b = runEpisode(def, o.seed, kCheckScale, nullptr);
        Tracer tracer(std::string(def.name) + "-check");
        const EpisodeRun t = runEpisode(def, o.seed, kCheckScale, &tracer);
        std::string problem;
        if (!a.sim.correct) problem = a.sim.error;
        else if (!(a.sim == b.sim)) problem = "two untraced runs disagree";
        else if (!(a.sim == t.sim)) problem = "the traced run diverged from the untraced run";
        else if (a.sim.attempted == 0) problem = "no operation was attempted";
        else if (a.sim.failed > a.sim.attempted) problem = "more failures than attempts";
        ok = ok && problem.empty();
        std::printf("check %s %s digest=%016llx attempted=%llu failed=%llu fail_ratio=%s "
                    "trace_overhead=%s%s%s\n",
                    def.name, problem.empty() ? "ok" : "FAIL",
                    (unsigned long long)a.sim.rngDigest, (unsigned long long)a.sim.attempted,
                    (unsigned long long)a.sim.failed,
                    number(ratio(double(a.sim.failed), double(a.sim.attempted))).c_str(),
                    number(ratio(b.framesPerS(), t.framesPerS()) - 1.0).c_str(),
                    problem.empty() ? "" : ": ", problem.c_str());
    }
    return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "%s\nusage: tcplp_benchmark --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-dir DIR]\n"
                 "       tcplp_benchmark --check [--seed N]\n"
                 "       tcplp_benchmark --list\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
            if (!(o.seconds > 0.0)) usage("--seconds must be positive");
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--trace-dir") {
            o.traceDir = value();
        } else if (a == "--check") {
            o.check = true;
        } else if (a == "--list") {
            o.list = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    return o;
}

}  // namespace
}  // namespace tcplp::bm

int main(int argc, char** argv) {
    using namespace tcplp::bm;
    const Options o = parse(argc, argv);
    if (o.list) {
        for (const WorkloadDef& d : workloads()) std::printf("%s\n", d.name);
        return 0;
    }
    if (o.check) return runCheck(o);
    const WorkloadDef* def = findWorkload(o.workload);
    if (def == nullptr) usage(("unknown workload '" + o.workload + "'").c_str());
    return o.trace ? runTraced(o, *def) : runMeasured(o, *def);
}
