// The scenario engine: turns a ScenarioSpec + seed into a deterministic run.
//
// These functions absorb the recurring setup that bench/common.hpp,
// bench/sleepy_common.hpp and the per-figure drivers each hand-rolled: mote
// and server TCP profiles, the frames->MSS computation, testbed construction
// from a TopologySpec, and one runner per workload kind. Each runner
// replicates the exact construction and event-scheduling order of the
// pre-refactor bench path, so a given (spec, seed) replays the identical
// RNG stream — tests/test_scenario_sweep.cpp pins this with
// Rng::stateDigest against frozen inline copies of the old code.
#pragma once

#include <memory>

#include "tcplp/common/stats.hpp"
#include "tcplp/scenario/metrics.hpp"
#include "tcplp/scenario/spec.hpp"

namespace tcplp::scenario {

/// Mote-side TCP profile: small symmetric buffers of `segments` segments.
tcp::TcpConfig moteTcpConfig(std::uint16_t mss = 462, std::size_t segments = 4);
/// Cloud/server profile: 16 KiB buffers.
tcp::TcpConfig serverTcpConfig(std::uint16_t mss = 462);

/// MSS (payload bytes) that makes a mote->cloud TCP segment occupy exactly
/// `frames` 802.15.4 frames (§6.1's sweep axis).
std::uint16_t mssForFrames(std::size_t frames);

/// Resolves the spec's MSS knobs (mssFrames wins over mssBytes).
std::uint16_t resolveMss(const WorkloadSpec& w);

/// Builds the testbed a TopologySpec describes (kPipe has no testbed).
std::unique_ptr<harness::Testbed> buildTestbed(const TopologySpec& t,
                                               std::uint64_t seed);

/// The mote endpoint of a single-flow workload: the far end of the line,
/// one of the pair, or the farthest grid/star/office node from the border
/// router. Shared with the chaos runner (scenario/chaos.cpp).
mesh::Node& senderMote(harness::Testbed& tb, const TopologySpec& t);

// --- Shared scenario presets ---------------------------------------------
// The canonical multiflow workloads, used by the registered drivers
// (bench_office_multiflow, bench_grid200, bench_city_scale) — one
// definition, so a tuning change propagates to every consumer. Only the run
// duration varies per consumer.

/// Mixed uplink/downlink over the Fig. 3 office tree: sensors 12/14 stream
/// up while 13/15 receive bulk downlink (3-5 hops out), all saturating.
ScenarioSpec officeMultiflowSpec(sim::Time duration = 3 * sim::kMinute);

/// 200-node dense grid, six saturating mixed-direction flows spread across
/// the grid (the PR 2 spatial-index stress).
ScenarioSpec grid200DenseSpec(sim::Time duration = 90 * sim::kSecond);

/// City-scale grid: `nodes` mesh nodes (default 1,024) with 24 saturating
/// mixed-direction flows spread evenly across the grid — the megascale
/// single-core stress the slab-pooled datapath was built for. Emits the
/// datapath counter row keys (datapathCounters=true).
ScenarioSpec cityScaleSpec(sim::Time duration = 30 * sim::kSecond,
                           std::size_t nodes = 1024);

// --- Structured per-workload results (custom measures/presenters use the
// --- raw forms; runScenario flattens them into a MetricRow) --------------

/// Mesh-layer routing/repair counters summed over every mesh node of a
/// testbed. Self-healing scenario rows surface these; counters stay zero
/// under the legacy static-route regime.
struct MeshRouteTotals {
    std::uint64_t noRouteDrops = 0;
    std::uint64_t forwardDrops = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t failbacks = 0;
    std::uint64_t blackholeDrops = 0;
};
MeshRouteTotals meshRouteTotals(const harness::Testbed& tb);

/// Congestion-window dynamics of one sender over a run: summary stats from
/// the cwnd tracer hook plus the strategy's loss-response counters.
/// Collected (and surfaced as row keys) only when TopologySpec::ccMetrics,
/// so legacy rows and their golden artifacts are unchanged.
struct CcDynamics {
    std::uint32_t cwndMin = 0;
    std::uint32_t cwndMax = 0;
    double cwndMean = 0.0;
    std::uint32_t ssthreshFinal = 0;
    std::uint64_t lossCuts = 0;      // multiplicative decreases taken
    std::uint64_t cutsSkipped = 0;   // noise-classified losses (CERL)
};

struct BulkRunResult {
    double goodputKbps = 0.0;
    double rttMedianMs = 0.0;
    double segmentLoss = 0.0;  // TCP-level loss (not masked by link retries)
    std::uint64_t framesTransmitted = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t fastRetransmissions = 0;
    std::size_t bytes = 0;
    bool contentOk = false;
    MeshRouteTotals mesh{};
    CcDynamics cc{};
    std::uint64_t rngDigest = 0;
};

struct SleepyRunResult {
    double goodputKbps = 0.0;
    std::size_t bytes = 0;
    Summary rttMs;             // sender-side RTT samples
    double idleRadioDc = 0.0;  // duty cycle over the quiet tail
    std::uint64_t rngDigest = 0;
};

struct TwoFlowResult {
    double goodputA = 0.0, goodputB = 0.0;
    double rttA = 0.0, rttB = 0.0;
    double lossA = 0.0, lossB = 0.0;  // rexmit %
    CcDynamics ccA{}, ccB{};
    std::uint64_t rngDigest = 0;
};

/// Datapath perf counters collected over one run (deltas for the
/// process-wide counters, so sequential runs in one process don't bleed
/// into each other). Surfaced as row keys when datapathCounters is set.
struct DatapathCounters {
    std::uint64_t poolRecycled = 0;        // storage blocks served from free lists
    std::uint64_t poolFresh = 0;           // storage blocks that hit the heap
    std::uint64_t poolBytesRecycled = 0;
    std::uint64_t poolBytesFresh = 0;
    std::uint64_t smallFnHeapFallbacks = 0;  // event closures too big to inline
    std::uint64_t prependFallbacks = 0;      // PacketBuffer::prepend slow paths
    std::uint64_t neighborRebuilds = 0;      // candidate-cache full rebuilds
    std::uint64_t neighborRevalidations = 0; // epoch-diff hits (no rebuild)
};

struct MultiFlowResult {
    struct Flow {
        phy::NodeId node = 0;
        bool uplink = true;
        double goodputKbps = 0.0;
        double rttMedianMs = 0.0;
    };
    std::vector<Flow> flows;
    double aggregateKbps = 0.0;
    double jainFairness = 0.0;
    std::uint64_t framesTransmitted = 0;
    std::uint64_t listenerVisits = 0;
    DatapathCounters datapath{};
    std::uint64_t rngDigest = 0;
};

struct PipeRunResult {
    double goodputKbps = 0.0;
    double rttSeconds = 0.0;
    double lossMeasured = 0.0;
    std::uint64_t rngDigest = 0;
};

BulkRunResult runBulk(const ScenarioSpec& spec, std::uint64_t seed);
SleepyRunResult runSleepyBulk(const ScenarioSpec& spec, std::uint64_t seed);
TwoFlowResult runTwoFlow(const ScenarioSpec& spec, std::uint64_t seed);
MultiFlowResult runMultiFlow(const ScenarioSpec& spec, std::uint64_t seed);
BulkRunResult runEmbeddedBulk(const ScenarioSpec& spec, std::uint64_t seed);
PipeRunResult runPipeBulk(const ScenarioSpec& spec, std::uint64_t seed);
harness::AnemometerResult runAnemometerSpec(const ScenarioSpec& spec,
                                            std::uint64_t seed);

/// Runs the spec's workload and flattens the result into standardized
/// metric keys (goodput_kbps, reliability, ..., rng_digest).
MetricRow runScenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace tcplp::scenario
