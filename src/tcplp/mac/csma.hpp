// CSMA-CA MAC with software link retries.
//
// Reproduces the paper's two MAC-level contributions:
//
//  1. *Software CSMA* (§4): the AT86RF233's hardware CSMA puts the radio in a
//     low-power state during backoff ("deaf listening"), so a node running
//     hardware CSMA misses incoming frames — fatal for TCP, which needs data
//     and ACKs flowing in opposite directions. TCPlp performs CSMA and link
//     retries in software, keeping the radio listening between attempts.
//     `Config::softwareCsma=false` restores the deaf behavior for ablation.
//
//  2. *Random delay between link retries* (§7.1): after a failed transmission
//     the sender waits uniform [0, d] before retrying, decorrelating
//     hidden-terminal collisions. `Config::retryDelayMax` is d.
//
// The MAC also implements the router side of Thread-style indirect
// messaging (§3.2): frames destined to a registered sleepy child are queued
// until the child polls with an 802.15.4 Data Request; the MAC ACK's
// "frame pending" bit tells the child whether to stay awake.
//
// Control flow is one state machine on one sim::Timer, as in OpenThread's
// SubMac. The current frame moves through these states:
//
//   kBackoff     random CSMA backoff (radio parked if CSMA is deaf)
//   kCca         clear-channel assessment, ccaTime after the backoff
//   kTransmit    SPI upload and air time, both owned by the radio
//   kAwaitAck    turnaround + ACK air time + ackTimeout
//   kRetryDelay  random delay before a link retry (§7.1)
//   kTurnaround  an aggregation burst's gap before its next frame
//
// With no current frame the MAC is kIdle. Every other state except
// kTransmit waits on the timer, and onTimer() takes the step its wait ends
// in. A busy channel, at CCA or at carrier-up, always takes the same step
// (channelBusy()): the next backoff, or a link retry once maxCsmaBackoffs
// are spent.
//
// The radio calls the MAC through phy::RadioClient, which this class
// implements privately. radioTxDone ends kTransmit; in any other state it
// is ignored, which drops the completion of an upload that outlived
// reset(). radioReceived carries frames and ACKs up. radioFramePending
// sets the auto-ACK's pending bit for a polling sleepy child.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "tcplp/common/ring_deque.hpp"
#include "tcplp/phy/radio.hpp"
#include "tcplp/sim/simulator.hpp"

namespace tcplp::mac {

using phy::Frame;
using phy::FrameType;
using phy::NodeId;

struct CsmaConfig {
    // IEEE 802.15.4 unslotted CSMA-CA constants.
    int minBe = 3;
    int maxBe = 5;
    int maxCsmaBackoffs = 4;
    sim::Time backoffUnit = 320;   // aUnitBackoffPeriod = 20 symbols
    sim::Time ccaTime = 128;       // 8 symbols
    sim::Time turnaround = 192;    // aTurnaroundTime = 12 symbols
    sim::Time ackTimeout = 864;    // macAckWaitDuration = 54 symbols

    // Software link-retry policy (§7.1).
    int maxFrameRetries = 7;       // retransmissions after the first attempt
    sim::Time retryDelayMax = 0;   // "d": uniform extra delay between retries

    // false = emulate hardware CSMA's deaf listening (§4 ablation).
    bool softwareCsma = true;
    /// Sleepy end devices may park the radio during the long inter-retry
    /// delay (they expect no unsolicited frames); routers keep listening.
    bool sleepDuringRetryDelay = false;

    // Retry policy for indirect (queued-for-sleepy-child) frames. The paper
    // §9.5 enables link retries for indirect messages and retries them more
    // rapidly; they are capped by the child's wakeup window instead of d.
    int indirectMaxRetries = 4;
    sim::Time indirectRetryDelayMax = 4 * sim::kMillisecond;
    /// After in-window retries fail (the child fell back asleep), the frame
    /// returns to the indirect queue to ride the child's next data request —
    /// up to this many times before being dropped.
    int indirectRequeueLimit = 4;

    // CPU cost charged per MAC frame handled (header parsing, queueing).
    sim::Time cpuPerFrame = 80;

    /// A-MPDU-style frame aggregation: up to this many queued frames ride
    /// one channel acquisition — after a frame is ACKed on its first try,
    /// the next queued frame transmits after a single turnaround instead of
    /// a fresh CSMA backoff ladder (the way the ESP32-class studies batch
    /// frames per preamble). 1 = stock 802.15.4 behavior, bit-identical to
    /// the pre-aggregation MAC (no extra RNG draws, no event reordering).
    /// Any CCA failure or link retry ends the burst.
    int aggFrames = 1;

    /// Largest payload the MAC accepts in one frame. 802.15.4's 104 B by
    /// default; the ESP32-class link preset raises it together with the
    /// node's 6LoWPAN fragmentation budget (NodeConfig::macPayloadBudget) —
    /// the two must move in lockstep or send() rejects the fragments.
    std::size_t maxPayloadBytes = phy::kMaxMacPayloadBytes;
};

struct MacStats {
    std::uint64_t dataSent = 0;           // unique payloads attempted
    std::uint64_t dataDelivered = 0;      // payloads ACKed by peer
    std::uint64_t dataFailed = 0;         // payloads dropped after retries
    std::uint64_t transmissions = 0;      // frames radiated (incl. retries)
    std::uint64_t retries = 0;            // retransmission attempts
    std::uint64_t ccaFailures = 0;        // channel-access failures
    std::uint64_t dataRequestsHeard = 0;
    std::uint64_t duplicatesSuppressed = 0;
    std::uint64_t aggregatedFrames = 0;   // frames sent without a CSMA ladder
};

/// Result of a MAC send, reported to the layer above.
struct SendResult {
    bool success = false;
    int transmissions = 0;  // CSMA attempts that radiated the frame
};

class CsmaMac : private phy::RadioClient {
public:
    using SendCallback = std::function<void(const SendResult&)>;
    using ReceiveCallback = std::function<void(NodeId src, const PacketBuffer& payload)>;

    CsmaMac(phy::Radio& radio, CsmaConfig config = {});

    NodeId id() const { return radio_.id(); }
    phy::Radio& radio() { return radio_; }
    const CsmaConfig& config() const { return config_; }
    CsmaConfig& mutableConfig() { return config_; }
    const MacStats& stats() const { return stats_; }
    sim::Simulator& simulator() { return radio_.simulator(); }

    /// Queues a payload for `dst`. Payload must fit one frame (the 6LoWPAN
    /// layer fragments above this); it is shared, not copied, into the TX
    /// queue. `done` fires on final success/failure.
    void send(NodeId dst, PacketBuffer payload, SendCallback done = nullptr);

    /// Payloads from frames addressed to this node (or broadcast).
    void setReceiveCallback(ReceiveCallback cb) { receiveCallback_ = std::move(cb); }

    /// Per-neighbor TX outcome feed for link-liveness tracking: fires once
    /// per direct unicast data payload with the final verdict — acked, or
    /// dropped after exhausting the retry ladder. Indirect (sleepy-child)
    /// deliveries are excluded: a missed wakeup window says nothing about
    /// the link. Fired before the SendCallback so the routing layer's view
    /// is fresh when the sender decides what to do with the rest of the
    /// datagram.
    using TxOutcomeCallback = std::function<void(NodeId dst, bool acked)>;
    void setTxOutcomeCallback(TxOutcomeCallback cb) { txOutcome_ = std::move(cb); }

    /// Fires whenever the TX queue drains (used by the sleepy wrapper to
    /// decide when the radio may sleep).
    void setIdleCallback(std::function<void()> cb) { idleCallback_ = std::move(cb); }

    /// Called by a duty-cycled child's MAC: emit a Data Request poll to
    /// `parent`. On success, lastAckPending() tells whether the parent's
    /// ACK had the pending bit.
    void sendDataRequest(NodeId parent, SendCallback done);

    // --- Router-side duty-cycling support (indirect messages, §3.2) ------
    void registerSleepyChild(NodeId child);
    bool isSleepyChild(NodeId child) const { return sleepyChildren_.count(child) > 0; }
    std::size_t indirectQueueDepth(NodeId child) const;
    /// Any frame for `child` anywhere in the MAC (indirect queue, main
    /// queue, or in flight)? Drives the pending bit on poll ACKs.
    bool hasTrafficFor(NodeId child) const;

    /// Pending-bit observed on the most recent ACK received for a frame we
    /// sent (a polling child uses this to decide whether to keep listening).
    bool lastAckPending() const { return lastAckPending_; }

    bool busy() const { return current_.has_value() || !queue_.empty(); }

    /// Crash semantics (node reboot): abandons the in-flight frame, stops
    /// the timer, and empties every queue without firing completion
    /// callbacks. Safe with a frame upload in progress: the MAC ignores a
    /// radioTxDone outside kTransmit. Sleepy-child registrations survive
    /// (they model the parent's config, not volatile state).
    void reset();

private:
    enum class State : std::uint8_t {
        kIdle, kBackoff, kCca, kTransmit, kAwaitAck, kRetryDelay, kTurnaround
    };

    struct SendOp {
        Frame frame;
        SendCallback done;
        bool indirect = false;   // being delivered in response to a poll
        int csmaBackoffs = 0;    // NB in the 802.15.4 state machine
        int be = 3;
        int retries = 0;
        int transmissions = 0;
        int requeues = 0;        // times returned to the indirect queue
    };

    // phy::RadioClient
    void radioTxDone(bool radiated) override;
    void radioReceived(const Frame& frame) override;
    bool radioFramePending(NodeId src) override;

    void wait(State next, sim::Time delay);
    void onTimer();
    void startNext();
    void csmaAttempt();
    void transmitCurrent();
    void channelBusy();
    void scheduleRetry();
    void finishCurrent(bool success);
    void serveDataRequest(NodeId child);
    int maxRetriesFor(const SendOp& op) const;
    sim::Time retryDelayFor(const SendOp& op);

    phy::Radio& radio_;
    CsmaConfig config_;
    MacStats stats_;
    ReceiveCallback receiveCallback_;
    TxOutcomeCallback txOutcome_;
    std::function<void()> idleCallback_;

    // Direct-send FIFO: a RingDeque so the constant drain-to-empty cycle
    // reuses its slots (std::deque would re-allocate its chunk every cycle).
    // The indirect queues below stay std::deque — they exist only for
    // sleepy children, far off the dense-mesh hot path.
    RingDeque<SendOp> queue_;
    std::optional<SendOp> current_;
    State state_ = State::kIdle;
    sim::Timer timer_;  // the wait of every state but kIdle and kTransmit
    /// Frames the current channel acquisition may still carry without a
    /// fresh CSMA ladder (config_.aggFrames - 1 at acquisition, counts down).
    int burstRemaining_ = 0;
    /// True only while finishCurrent runs completion callbacks with a burst
    /// still open: startNext() becomes a no-op so a frame queued by the
    /// callback tailgates the burst instead of starting its own ladder.
    bool deferStarts_ = false;
    std::uint8_t txSeq_ = 0;
    bool lastAckPending_ = false;

    // Duplicate suppression: last delivered sequence number per neighbor.
    std::map<NodeId, std::uint8_t> lastDeliveredSeq_;
    std::set<NodeId> sleepyChildren_;
    std::map<NodeId, std::deque<SendOp>> indirectQueues_;
    std::map<NodeId, sim::Time> lastPollAt_;
};

}  // namespace tcplp::mac
