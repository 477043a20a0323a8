// Declarative scenario descriptions.
//
// A ScenarioSpec names everything the 23 bench drivers used to hand-roll:
// the topology (line / pair / office / grid / star / pipe, with link loss,
// spacing and queue knobs), the workload (bulk transfer, duty-cycled sleepy
// transfer, two-flow fairness, embedded-stack baseline, in-memory pipe,
// anemometer fleet, multi-flow mix), and the TCP-level knobs the paper
// sweeps (segment size, window, feature ablations). The engine in
// workloads.cpp turns a spec + seed into a deterministic run; sweep.hpp
// expands axis grids over specs, and the campaign runner (campaign.hpp)
// runs the points on worker threads.
//
// Adding a paper figure used to mean a ~150-line driver; with a spec it is
// a ~15-line registration (see bench/bench_*.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tcplp/harness/anemometer.hpp"
#include "tcplp/harness/testbed.hpp"
#include "tcplp/sim/fault.hpp"
#include "tcplp/tcp/tcp.hpp"
#include "tcplp/transport/embedded_tcp.hpp"

namespace tcplp::scenario {

enum class TopologyKind : std::uint8_t {
    kPair,        // two motes one hop apart (§6.3)
    kLine,        // mote — relays — border router — cloud (§6/§7)
    kOffice,      // 15-node Fig. 3 tree (§9)
    kGrid,        // n-node dense grid, border router in the corner
    kStar,        // border router + n leaves one hop out
    kSleepyLeaf,  // one duty-cycled leaf on the border router (Appendix C)
    kPipe,        // in-memory lossy pipe, no radio (§8 model validation)
};

/// Radio-link class for radio topologies. k802154 is the paper's stock
/// 250 kb/s AT86RF233 profile; kEsp32 models an ESP32-class high-rate SoC
/// link (tens of Mb/s air rate, microsecond CSMA slots, fast frame bus,
/// 1.5 KiB frames) — the regime where the static 16-bit window binds and
/// RFC 7323 scaling starts to matter. Bound from the `link` sweep axis
/// (see linkPresetFromAxis).
enum class LinkPreset : std::uint8_t {
    k802154,
    kEsp32,
};

struct TopologySpec {
    TopologyKind kind = TopologyKind::kLine;
    std::size_t hops = 1;    // kLine
    std::size_t nodes = 16;  // kGrid / kStar: mesh nodes incl. border router
    double spacingMeters = 10.0;
    double rangeMeters = 12.0;
    double linkLoss = 0.0;
    std::optional<sim::Time> wiredOneWayDelay;  // default: TestbedConfig's

    // Node knobs (applied to every mesh node; nullopt = NodeConfig default).
    std::optional<sim::Time> retryDelayMax;
    std::optional<std::size_t> queueCapacityPackets;
    std::optional<bool> softwareCsma;
    std::optional<int> maxFrameRetries;
    std::optional<std::size_t> macPayloadBudget;  // §6.3 stack profiles
    std::optional<sim::Time> txProcessingDelay;
    bool perHopReassembly = false;  // Appendix A RED/ECN regime
    bool redQueue = false;
    bool ecnMarking = false;
    /// Self-healing mesh routing: link-liveness tracking on every router
    /// plus ranked loop-free alternate next hops (tree topologies). Off by
    /// default so legacy scenarios keep their static-route byte streams;
    /// rows of self-healing scenarios additionally carry the routing-repair
    /// metric keys (reroutes / failbacks / blackhole and route drops).
    bool selfHealing = false;
    /// Dead-neighbor probe cadence override (selfHealing only; nullopt =
    /// mesh::NeighborConfig's default, 0 = probing off — then only organic
    /// traffic revives a dead neighbor).
    std::optional<sim::Time> probeInterval;
    /// Surface congestion-control dynamics as extra row keys (cwnd summary
    /// stats from the tracer hook plus the strategy's loss_cuts /
    /// cuts_skipped counters). Off by default so legacy rows — and their
    /// golden artifacts — are unchanged (same pattern as selfHealing).
    bool ccMetrics = false;
    /// Radio-link class (air rate, CSMA slot timings, frame bus, MAC
    /// payload budget). k802154 keeps every legacy byte stream.
    LinkPreset linkPreset = LinkPreset::k802154;
    /// A-MPDU-style MAC aggregation: frames per channel acquisition (the
    /// `agg` sweep axis; see aggFramesFromAxis). nullopt/1 = stock
    /// 802.15.4 one-ladder-per-frame behavior, byte-identical.
    std::optional<int> macAggFrames;
    /// Per-node TCP receive-memory budget (mesh::NodeConfig's
    /// tcpRecvBudgetBytes): caps how far autotuning may grow a mote-side
    /// receive buffer. nullopt = the preset's default (0 = unbudgeted).
    std::optional<std::size_t> tcpRecvBudgetBytes;

    // kPipe parameters (§8).
    sim::Time pipeOneWayDelay = 50 * sim::kMillisecond;
    double pipeBandwidthBps = 125000.0;
    double pipeLossForward = 0.0;
    double pipeLossReverse = 0.0;
};

enum class WorkloadKind : std::uint8_t {
    kBulk,          // single saturating TCP transfer (the §6/§7 workhorse)
    kTwoFlow,       // two simultaneous flows sharing the path (Table 9)
    kMultiFlow,     // n concurrent flows, mixed directions (office/grid)
    kSleepyBulk,    // bulk over a duty-cycled link (Appendix C)
    kEmbeddedBulk,  // uIP/BLIP stop-and-wait baseline (Table 7)
    kAnemometer,    // §9 sensor application study
};

/// One flow of a kMultiFlow workload.
struct FlowSpec {
    phy::NodeId node = 0;  // mesh endpoint; the peer is the cloud host
    bool uplink = true;    // node -> cloud, else cloud -> node
    std::size_t totalBytes = 50000;
};

struct WorkloadSpec {
    WorkloadKind kind = WorkloadKind::kBulk;

    std::size_t totalBytes = 150000;
    bool uplink = true;
    /// MSS as a 6LoWPAN frame count (§6.1's sweep axis); 0 = use mssBytes.
    std::size_t mssFrames = 5;
    std::uint16_t mssBytes = 0;
    std::size_t windowSegments = 4;
    /// kPair receiver window; 0 = same as windowSegments.
    std::size_t recvWindowSegments = 0;
    sim::Time timeLimit = 40 * sim::kMinute;

    // TCP feature ablations (Table 1 features).
    bool sack = true;
    bool delayedAck = true;
    bool timestamps = true;
    bool dropOutOfOrder = false;
    bool ecn = false;
    /// Congestion-control strategy for every TCP endpoint of the workload
    /// (the `cc` shootout axis; see ccFromAxis). kNewReno is the paper's
    /// stock behavior and keeps legacy scenarios byte-identical.
    tcp::CcKind cc = tcp::CcKind::kNewReno;

    // High-BDP knobs (RFC 7323). All default off: legacy scenarios keep
    // their 16-bit adverts, fixed buffers and golden byte streams.
    /// RFC 7323 window scaling on every TCP endpoint of the workload (the
    /// `wscale` sweep axis; see wscaleFromAxis).
    bool windowScaling = false;
    /// Receive-buffer autotuning budget for the receiving endpoint
    /// (TcpConfig::recvBufferMaxBytes): the buffer starts at its profile
    /// size and grows toward the measured delivered x RTT product, never
    /// past this. 0 = fixed buffer (the `rcvAutotune` axis). Clamped by the
    /// receiving node's NodeConfig::tcpRecvBudgetBytes when that is set.
    std::size_t recvAutotuneBudgetBytes = 0;
    /// Static buffer override for the BDP ceiling sweeps: the sender's send
    /// buffer (and, when autotuning is off, the receiver's receive buffer)
    /// in bytes. 0 = the legacy mote/server profile sizes.
    std::size_t bdpBufferBytes = 0;

    /// Non-declarative escape hatch for the Fig. 7 cwnd trace.
    tcp::TcpSocket::CwndTracer cwndTracer;
    /// Non-declarative escape hatch: installed on the testbed's channel for
    /// radio workloads. Benches and the steady-state allocation test count
    /// or fingerprint the delivery stream with it.
    phy::Channel::DeliveryTap deliveryTap;

    // kEmbeddedBulk (Table 7).
    transport::EmbeddedProfile embeddedProfile = transport::EmbeddedProfile::kUip;
    std::uint16_t embeddedMss = 60;

    // kSleepyBulk (Appendix C).
    mac::SleepyConfig sleepy{};
    sim::Time idleTail = 0;  // quiet tail to measure idle duty cycle

    // kAnemometer (§9): the full option block, seed overridden per point.
    harness::AnemometerOptions anemometer{};

    // kMultiFlow.
    std::vector<FlowSpec> flows{};
    sim::Time multiFlowDuration = 5 * sim::kMinute;
};

/// Fault-injection layer of a scenario (the chaos campaigns).
///
/// `chaos` marks the scenario as a chaos scenario: bulk runs go through the
/// fault-aware runner (scenario/chaos.hpp) — recovery metrics, reconnect
/// policy, progress watchdog — even when no faults are injected, so the
/// fault=0 baseline rows share the chaos schema. `enabled` arms the plan and
/// is bound from the canonical `fault` sweep axis (0 = clean baseline,
/// 1 = faults injected; see faultFromAxis).
struct FaultSpec {
    bool chaos = false;
    bool enabled = false;
    sim::FaultPlan plan{};

    /// App-level reconnect-with-backoff: when the sender's connection fails
    /// (R2/persist/keep-alive give-up, or an endpoint crash), open a fresh
    /// connection after a deterministic exponential backoff and resume the
    /// transfer at the acked high-water mark. No RNG draws — backoff is
    /// initial, 2x, 4x, ... capped at `reconnectBackoffMax`.
    bool reconnect = true;
    sim::Time reconnectBackoffInitial = 2 * sim::kSecond;
    sim::Time reconnectBackoffMax = 30 * sim::kSecond;
    int maxReconnects = 8;

    /// Mote-side TCP survival overrides (applied whenever `chaos` is set, so
    /// the fault axis toggles only the injection, never the TCP config).
    std::optional<int> maxRetransmits;       // lower R2 = faster dead-peer detection
    std::optional<sim::Time> keepAliveIdle;  // nonzero enables keep-alive probes

    /// Progress watchdog: fail the run (std::runtime_error, attributed by
    /// the campaign runner) if the flow delivers nothing fresh for
    /// this long while no injected outage is active. 0 disables — but every
    /// registered chaos scenario keeps it on, so no chaos run can hang.
    sim::Time watchdogStall = 2 * sim::kMinute;
};

struct ScenarioSpec {
    TopologySpec topology{};
    WorkloadSpec workload{};
    FaultSpec fault{};
};

/// Canonical mapping of the `fault` sweep axis: 0 = clean baseline,
/// 1 = inject the plan. Bind hooks use this so every chaos scenario spells
/// the axis the same way.
inline bool faultFromAxis(double value) { return value >= 0.5; }

/// Canonical mapping of the `cc` sweep axis onto the strategy enum:
/// 0 = NewReno (the paper's stock behavior), 1 = CERL-style loss
/// differentiation, 2 = Westwood-style bandwidth estimation. Bind hooks use
/// this so every shootout scenario spells the axis the same way.
inline tcp::CcKind ccFromAxis(double value) {
    if (value >= 1.5) return tcp::CcKind::kWestwood;
    if (value >= 0.5) return tcp::CcKind::kCerl;
    return tcp::CcKind::kNewReno;
}

/// Canonical mapping of the `wscale` sweep axis: 0 = 16-bit adverts (the
/// paper's stock stack), 1 = RFC 7323 window scaling negotiated on both
/// ends. Bind hooks use this so every BDP scenario spells the axis the
/// same way.
inline bool wscaleFromAxis(double value) { return value >= 0.5; }

/// Canonical mapping of the `agg` sweep axis onto CsmaConfig::aggFrames:
/// the axis value IS the burst size (1 = stock one-CSMA-ladder-per-frame).
inline int aggFramesFromAxis(double value) {
    return value >= 1.5 ? int(value + 0.5) : 1;
}

/// Canonical mapping of the `link` sweep axis onto the radio-link preset:
/// 0 = 802.15.4 (stock), 1 = ESP32-class high-rate link.
inline LinkPreset linkPresetFromAxis(double value) {
    return value >= 0.5 ? LinkPreset::kEsp32 : LinkPreset::k802154;
}

}  // namespace tcplp::scenario
