// Link-liveness tracking for self-healing mesh routing.
//
// The paper's testbed leans on the routing layer (RPL / OpenThread MLE)
// to notice dead links and repair around them; Ayers et al. make the
// protocol-design argument that LLN stacks should surface link-failure
// feedback upward instead of letting every layer time out on its own.
// This table is that feedback path: mac::CsmaMac reports the final verdict
// of every direct unicast payload (acked / exhausted retries), and K
// consecutive failures mark the neighbor unreachable. Any later success —
// usually one of the low-rate probes this table emits toward dead
// neighbors — marks it live again.
//
// Determinism rules: in a fault-free run no neighbor ever goes dead, so the
// table draws no randomness and schedules no events — runs with liveness
// enabled are byte-identical to runs without it. Probe-interval jitter for
// dead-neighbor probing draws from a dedicated stream derived from
// (run seed, kLivenessStreamId + node id), never from the simulation's own
// Rng, so probing perturbs nothing and chaos runs stay shardable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "tcplp/phy/radio.hpp"
#include "tcplp/sim/rng.hpp"
#include "tcplp/sim/simulator.hpp"

namespace tcplp::mesh {

/// Stream id for per-node probe jitter (disjoint from kFaultStreamId and the
/// sweep runner's grid-position streams by magnitude; the node id is added).
constexpr std::uint64_t kLivenessStreamId = 0x11FE'0000'0000'0100ULL;

struct NeighborConfig {
    /// Master switch: off = the table ignores outcomes and reports every
    /// neighbor live (the pre-self-healing behavior, byte-for-byte).
    bool enabled = false;
    /// K: consecutive exhausted-retry failures before a neighbor is marked
    /// unreachable. Each failure already represents a full CSMA retry
    /// ladder, so small K detects fast without tripping on single
    /// collisions.
    int failureThreshold = 2;
    /// Probe cadence toward dead neighbors (0 disables probing — then only
    /// organic traffic can revive a neighbor). Probes are empty MAC
    /// payloads; the receiver's 6LoWPAN parser discards them, but the MAC
    /// ACK is the liveness signal.
    sim::Time probeInterval = 2 * sim::kSecond;
    /// Uniform extra delay added to each probe, drawn from the dedicated
    /// stream (decorrelates probes from synchronized retry schedules).
    sim::Time probeJitterMax = 500 * sim::kMillisecond;
    /// Seed of the probe-jitter stream; the testbed stamps
    /// Rng::deriveStream(runSeed, kLivenessStreamId + nodeId) here.
    std::uint64_t probeSeed = 0;
};

struct NeighborTableStats {
    std::uint64_t deadMarks = 0;   // live -> unreachable transitions
    std::uint64_t revivals = 0;    // unreachable -> live transitions
    std::uint64_t probesSent = 0;  // liveness probes emitted
};

class NeighborTable {
public:
    using ProbeSender = std::function<void(phy::NodeId neighbor)>;

    NeighborTable(sim::Simulator& simulator, NeighborConfig config)
        : simulator_(simulator), config_(config), probeRng_(config.probeSeed) {}

    const NeighborConfig& config() const { return config_; }
    const NeighborTableStats& stats() const { return stats_; }

    /// Unknown neighbors are live: liveness is learned only from failures.
    bool isLive(phy::NodeId neighbor) const {
        if (!config_.enabled) return true;
        const auto it = entries_.find(neighbor);
        return it == entries_.end() || !it->second.dead;
    }

    /// The MAC's per-payload verdict (via CsmaMac::setTxOutcomeCallback).
    void onTxOutcome(phy::NodeId neighbor, bool acked);

    /// How this table emits probes (the Node routes them into its MAC).
    void setProbeSender(ProbeSender sender) { probeSender_ = std::move(sender); }

    /// Reboot semantics: liveness is volatile state — learned verdicts and
    /// armed probe timers die with the power rail (each entry's probe Timer
    /// stops as the entry is destroyed).
    void reset() { entries_.clear(); }

private:
    struct Entry {
        Entry(NeighborTable& table, phy::NodeId neighbor)
            : probe(table.simulator_, [&table, neighbor] { table.onProbeTimer(neighbor); }) {}

        int consecutiveFailures = 0;
        bool dead = false;
        sim::Timer probe;  // next liveness probe while the neighbor is dead
    };

    Entry& entry(phy::NodeId neighbor) {
        return entries_.try_emplace(neighbor, *this, neighbor).first->second;
    }
    void armProbe(Entry& e);
    void onProbeTimer(phy::NodeId neighbor);

    sim::Simulator& simulator_;
    NeighborConfig config_;
    sim::Rng probeRng_;
    NeighborTableStats stats_;
    ProbeSender probeSender_;
    std::map<phy::NodeId, Entry> entries_;
};

}  // namespace tcplp::mesh
