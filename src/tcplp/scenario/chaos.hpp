// Chaos-campaign machinery: installs an expanded FaultPlan onto a testbed
// and runs the fault-aware bulk workload with recovery metrics.
//
// Determinism contract (same as every other runner): the expanded schedule
// depends only on (plan, seed) — sim::expandFaultPlan draws from a dedicated
// derived stream, never from the simulation's own Rng — and the reconnect
// policy draws no randomness at all, so a chaos (spec, seed) replays the
// identical byte stream serial or sharded, and its canonical rows join the
// golden corpus.
#pragma once

#include "tcplp/harness/testbed.hpp"
#include "tcplp/scenario/metrics.hpp"
#include "tcplp/scenario/spec.hpp"
#include "tcplp/sim/fault.hpp"

namespace tcplp::scenario {

/// The expanded, installed fault schedule of one run — consulted by the
/// watchdog (an outage is not a stall) and the recovery metrics.
struct FaultTimeline {
    std::vector<sim::FaultEvent> events;

    bool any() const { return !events.empty(); }
    /// True while at least one injected outage window covers `t`.
    bool outageActive(sim::Time t) const;
    /// End of the latest outage window that has fully ended by `t`
    /// (0 when none has) — the watchdog's stall anchor.
    sim::Time lastOutageEndBefore(sim::Time t) const;
    /// End of the final outage window of the whole schedule.
    sim::Time lastOutageEnd() const;
    /// Union of the outage windows, in seconds (overlaps counted once).
    double outageSeconds() const;
};

/// Expands `plan` with the run seed and schedules every event onto the
/// testbed: node reboots call mesh::Node::reboot, blackout windows toggle
/// the channel's blackout counters at both edges (target==peer==0 = global,
/// target==peer = every link at that node, else the one link), and
/// corruption bursts map to global blackouts (see sim/fault.hpp). Call
/// before runUntil, at simulated time 0.
FaultTimeline installFaults(harness::Testbed& testbed, const sim::FaultPlan& plan,
                            std::uint64_t seed);

/// One fault-aware bulk run's structured result.
struct ChaosBulkResult {
    double goodputKbps = 0.0;   // over unique delivered bytes
    std::uint64_t bytes = 0;    // unique delivered (high-water mark)
    bool contentOk = true;
    bool complete = false;      // every requested byte delivered
    int reconnects = 0;         // completed re-establishments
    int reconnectAttempts = 0;
    std::uint64_t giveUps = 0;  // R2 + persist + keep-alive aborts
    std::uint64_t timeouts = 0;
    std::uint64_t faultEvents = 0;
    double outageSeconds = 0.0;
    std::uint64_t faultBytes = 0;       // fresh bytes landed inside outages
    double faultGoodputKbps = 0.0;      // faultBytes over the outage union
    /// Last outage end -> first fresh byte after it; -1 = never recovered
    /// (or no progress was pending), 0-ish = the flow never stalled.
    double timeToRecoverS = -1.0;
    std::uint64_t framesTransmitted = 0;
    /// Mesh routing-repair totals (all zero without topology.selfHealing).
    std::uint64_t reroutes = 0;
    std::uint64_t failbacks = 0;
    std::uint64_t blackholeDrops = 0;
    std::uint64_t noRouteDrops = 0;
    std::uint64_t forwardDrops = 0;
    std::uint64_t rngDigest = 0;
};

/// The chaos bulk runner: uplink mote -> cloud transfer with the spec's
/// FaultSpec installed (when enabled), app-level reconnect, and the progress
/// watchdog. A stalled flow throws std::runtime_error, which the campaign
/// runner converts into an attributed failure.
ChaosBulkResult runChaosBulk(const ScenarioSpec& spec, std::uint64_t seed);

/// runChaosBulk flattened into the standardized chaos metric keys.
MetricRow chaosBulkRow(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace tcplp::scenario
