// Shared wireless medium.
//
// Unit-disk propagation: a transmission is audible at every radio within
// `range` meters of the transmitter. Two overlapping audible transmissions
// corrupt each other at a listener — which is exactly how hidden terminals
// damage TCP flows in the paper's multihop experiments (§7.1): two nodes out
// of carrier-sense range of each other transmit to a common relay and their
// frames collide there.
//
// On top of geometry the channel supports per-link Bernoulli loss and a
// time-varying ambient loss function, used to model the office testbed's
// daytime interference (Fig. 10) and the injected-loss experiment (Fig. 9).
//
// ## Spatial index (uniform grid)
//
// Radios are indexed by a uniform grid whose cell side equals the radio
// range. Invariants the implementation relies on:
//
//  * cell(p) = (floor(p.x / range), floor(p.y / range)). Because the cell
//    side is exactly `range`, every radio within range of a transmitter lies
//    in the 3×3 cell neighborhood of the transmitter's cell; conversely any
//    radio whose cell differs by >= 2 in either axis is strictly farther
//    than `range` and can be rejected without a distance computation.
//  * The grid is maintained eagerly: addRadio() inserts, and a radio that
//    moves (Radio::setPosition) re-files itself via radioMoved(). There is
//    no deferred rebuild — startTransmission/clearAt may trust the grid at
//    any instant.
//  * Per-transmitter neighbor lists (the 3×3 candidate set, self excluded,
//    sorted by NodeId) are cached and invalidated by a global epoch that
//    bumps whenever grid membership changes. Candidate sets still require
//    the exact inRange() test at use; the cache only bounds who is examined.
//  * Delivery iterates listeners in ascending NodeId order, so the RNG draw
//    sequence (one Bernoulli draw per in-range listener) is exactly the one
//    a brute-force scan over every radio in NodeId order would make — and
//    reproducible run to run. tests/test_channel_equivalence.cpp checks the
//    index against such a scan on dense random topologies.
//
// ## Batched delivery
//
// Transmissions whose air time ends at the same tick are coalesced into one
// pooled delivery event per end tick (instead of one event per frame). Each
// batch retires its transmissions from the active list first — so CCA during
// delivery callbacks sees every same-tick carrier down — then delivers them
// in transmission-id order. Active transmissions are keyed by a unique txId;
// the old (transmitter, end-time) linear erase could match the wrong entry
// when one transmitter had two frames ending at the same tick.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "tcplp/phy/frame.hpp"
#include "tcplp/sim/simulator.hpp"

namespace tcplp::phy {

class Radio;

struct Position {
    double x = 0.0;
    double y = 0.0;
};

/// Counters exposing how much work the medium performs per frame: listener
/// visits grow with the 3x3 neighborhood, not with the number of radios.
struct ChannelStats {
    std::uint64_t deliveryEvents = 0;   // pooled end-of-air events fired
    std::uint64_t listenerVisits = 0;   // candidate radios examined
    std::uint64_t neighborRebuilds = 0; // neighbor-cache misses (full rebuild)
    /// Cache refreshes that compared the 3x3 cell epochs and found the
    /// window untouched — a grid change elsewhere cost 9 integer compares
    /// instead of a rebuild.
    std::uint64_t neighborRevalidations = 0;
};

class Channel {
public:
    explicit Channel(sim::Simulator& simulator, double range = 12.0)
        : simulator_(simulator), range_(range) {}

    sim::Simulator& simulator() { return simulator_; }
    double range() const { return range_; }

    /// Air bit rate of this medium. The 802.15.4 default replays
    /// Frame::airTime() to the microsecond (frameAirTime short-circuits to
    /// it), so every existing scenario is byte-identical; higher rates model
    /// ESP32-class links (tens of Mb/s) for the high-BDP sweeps.
    double bitsPerSecond() const { return bitsPerSecond_; }
    void setBitsPerSecond(double bps) { bitsPerSecond_ = bps; }
    /// Time `frame` keeps the carrier up at this channel's bit rate.
    sim::Time frameAirTime(const Frame& frame) const {
        if (bitsPerSecond_ == kBitsPerSecond) return frame.airTime();
        const double us = double(frame.mpduBytes() + kPhySyncHeaderBytes) * 8.0 *
                          1e6 / bitsPerSecond_;
        return std::max<sim::Time>(1, sim::Time(us));
    }

    void addRadio(Radio* radio);
    /// Re-files `radio` under its new position (called by Radio::setPosition
    /// after the position is updated; `oldPos` is where it was indexed).
    void radioMoved(Radio* radio, Position oldPos);

    /// Per-link frame error probability (applied after geometry/collisions),
    /// set symmetrically.
    void setLinkLoss(NodeId a, NodeId b, double probability);
    /// One-direction loss (src -> dst only), e.g. asymmetric links.
    void setLinkLossDirectional(NodeId src, NodeId dst, double probability) {
        linkLoss_[{src, dst}] = probability;
    }
    /// Baseline frame error probability for all links.
    void setDefaultLoss(double probability) { defaultLoss_ = probability; }
    /// Ambient time/node dependent extra loss (diurnal interference model).
    void setAmbientLoss(std::function<double(sim::Time, NodeId)> fn) {
        ambientLoss_ = std::move(fn);
    }

    // --- Blackouts (fault injection) ----------------------------------
    // A blacked-out link fades every frame (loss 1.0) while leaving the
    // carrier geometry — and hence the RNG fading-draw order — untouched:
    // a chaos run consumes exactly the draws a clean run does, which keeps
    // fault schedules from perturbing the simulation's RNG stream. Each
    // entry is a counter so overlapping windows compose (deactivation
    // decrements; the blackout lifts when the count returns to zero).
    void setLinkBlackout(NodeId a, NodeId b, bool active);
    void setNodeBlackout(NodeId node, bool active);
    void setGlobalBlackout(bool active);
    bool anyBlackoutActive() const { return blackoutEntries_ > 0; }

    /// Optional delivery log tap: invoked once per in-range listener at
    /// delivery time — (now, transmitter, listener, MPDU bytes, faded) — in
    /// exactly the order the RNG fading draws are made, so a hash of the
    /// stream fingerprints a run's frame sequence.
    using DeliveryTap =
        std::function<void(sim::Time, NodeId, NodeId, std::size_t, bool)>;
    void setDeliveryTap(DeliveryTap tap) { deliveryTap_ = std::move(tap); }

    /// Called by a radio when its carrier actually starts radiating.
    void startTransmission(Radio* transmitter, const Frame& frame);

    /// Clear-channel assessment at `listener`: true if no audible carrier.
    bool clearAt(const Radio* listener) const;

    /// True when `a` can hear `b` (distance within range).
    bool inRange(const Radio* a, const Radio* b) const;

    // Aggregate statistics for Fig. 6(d) (total frames transmitted).
    std::uint64_t framesTransmitted() const { return framesTransmitted_; }
    std::uint64_t framesCollided() const { return framesCollided_; }
    std::uint64_t framesLostToFading() const { return framesLostToFading_; }
    const ChannelStats& channelStats() const { return channelStats_; }

    /// Carriers currently in the air (test/diagnostic hook).
    std::size_t activeTransmissionCount() const { return active_.size(); }

    /// Receiver-side collision report (called by Radio).
    void noteCollision() { ++framesCollided_; }

private:
    struct Transmission {
        std::uint64_t txId;
        Radio* transmitter;
        Frame frame;
        sim::Time end;
    };
    /// Transmissions whose carriers drop at the same tick share one pooled
    /// delivery event; the txIds are appended in ascending order.
    struct Batch {
        sim::Time end;
        std::vector<std::uint64_t> txIds;
    };
    struct CellKey {
        std::int32_t cx;
        std::int32_t cy;
        bool operator==(const CellKey& o) const { return cx == o.cx && cy == o.cy; }
    };
    struct CellKeyHash {
        std::size_t operator()(const CellKey& k) const {
            return std::size_t((std::uint64_t(std::uint32_t(k.cx)) << 32) |
                               std::uint32_t(k.cy));
        }
    };
    /// One grid cell: its members plus the global-epoch value at the last
    /// membership change — the unit of incremental cache revalidation.
    struct Cell {
        std::vector<Radio*> radios;
        std::uint64_t epoch = 0;
    };

    struct NeighborCache {
        std::uint64_t epoch = 0;
        bool built = false;
        std::vector<Radio*> radios;  // 3x3-cell candidates, NodeId-ascending
        // Snapshot for incremental revalidation: the window the cache was
        // built over and the per-cell epochs of its 9 cells (row-major,
        // 0 for a cell absent from the grid at build time). On a global
        // epoch bump, an unchanged snapshot proves the candidate set is
        // still exact — no rebuild needed.
        CellKey center{0, 0};
        std::uint64_t cellEpochs[9] = {};
    };
    /// NodeId pairs hash into a perfect 32-bit key (ids are 16-bit).
    struct LinkKeyHash {
        std::size_t operator()(const std::pair<NodeId, NodeId>& k) const {
            return std::size_t((std::uint32_t(k.first) << 16) | k.second);
        }
    };

    CellKey cellOf(Position p) const;
    void insertIntoGrid(Radio* radio, CellKey key);
    /// Epoch of the cell at `key` (0 when the grid has no such cell).
    std::uint64_t cellEpoch(CellKey key) const {
        const auto it = grid_.find(key);
        return it == grid_.end() ? 0 : it->second.epoch;
    }
    const std::vector<Radio*>& neighborsOf(Radio* transmitter);
    /// Calls fn(listener) for each radio in the transmitter's cached 3x3
    /// neighborhood, in ascending NodeId order; callers still apply inRange().
    template <typename Fn>
    void forEachCandidate(Radio* transmitter, Fn&& fn);

    double lossFor(NodeId src, NodeId dst, sim::Time now) const;
    bool blackedOut(NodeId src, NodeId dst) const;
    Transmission retireActive(std::uint64_t txId);
    void deliverTransmission(const Transmission& tx);
    void deliverBatch(sim::Time end);

    sim::Simulator& simulator_;
    double range_;
    double bitsPerSecond_ = kBitsPerSecond;
    double defaultLoss_ = 0.0;
    std::unordered_map<CellKey, Cell, CellKeyHash> grid_;
    std::uint64_t gridEpoch_ = 1;
    std::unordered_map<const Radio*, NeighborCache> neighborCache_;
    std::unordered_map<std::pair<NodeId, NodeId>, double, LinkKeyHash> linkLoss_;
    std::unordered_map<std::pair<NodeId, NodeId>, int, LinkKeyHash> linkBlackout_;
    std::unordered_map<NodeId, int> nodeBlackout_;
    int globalBlackout_ = 0;
    int blackoutEntries_ = 0;  // total active entries: single fast-path gate
    std::function<double(sim::Time, NodeId)> ambientLoss_;
    DeliveryTap deliveryTap_;
    std::vector<Transmission> active_;
    std::vector<Batch> batches_;                        // pending, small
    std::vector<std::vector<std::uint64_t>> batchPool_; // recycled id vectors
    std::vector<Transmission> deliverScratch_;          // reused per batch
    std::uint64_t nextTxId_ = 1;
    std::uint64_t framesTransmitted_ = 0;
    std::uint64_t framesCollided_ = 0;
    std::uint64_t framesLostToFading_ = 0;
    ChannelStats channelStats_;
};

}  // namespace tcplp::phy
