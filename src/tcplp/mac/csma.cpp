#include "tcplp/mac/csma.hpp"

#include <algorithm>

#include "tcplp/common/assert.hpp"
#include "tcplp/common/log.hpp"

namespace tcplp::mac {

namespace {
/// ACK air time at the rate of the channel this radio is attached to (the
/// 802.15.4 default reproduces the historical constant exactly).
sim::Time ackAirTime(phy::Radio& radio) {
    Frame ack;
    ack.type = FrameType::kAck;
    return radio.channel().frameAirTime(ack);
}
}  // namespace

CsmaMac::CsmaMac(phy::Radio& radio, CsmaConfig config)
    : radio_(radio), config_(config), timer_(radio.simulator(), [this] { onTimer(); }) {
    radio_.setClient(this);
}

void CsmaMac::send(NodeId dst, PacketBuffer payload, SendCallback done) {
    TCPLP_ASSERT(payload.size() <= config_.maxPayloadBytes);
    SendOp op;
    op.frame.type = FrameType::kData;
    op.frame.src = id();
    op.frame.dst = dst;
    op.frame.seq = ++txSeq_;
    op.frame.ackRequest = (dst != phy::kBroadcast);
    op.frame.payload = std::move(payload);
    op.done = std::move(done);
    ++stats_.dataSent;

    if (isSleepyChild(dst)) {
        // Thread-style indirect message: hold until the child polls (§3.2).
        // Exception: if the child polled moments ago its receive window is
        // still open — deliver immediately and chain with the pending bit
        // (§9.5's "prioritize indirect messages").
        const auto lastPoll = lastPollAt_.find(dst);
        if (lastPoll != lastPollAt_.end() &&
            simulator().now() - lastPoll->second < 25 * sim::kMillisecond) {
            op.indirect = true;
            queue_.push_front(std::move(op));
            if (!current_) startNext();
            return;
        }
        indirectQueues_[dst].push_back(std::move(op));
        return;
    }
    queue_.push_back(std::move(op));
    if (!current_) startNext();
}

void CsmaMac::sendDataRequest(NodeId parent, SendCallback done) {
    SendOp op;
    op.frame.type = FrameType::kDataRequest;
    op.frame.src = id();
    op.frame.dst = parent;
    op.frame.seq = ++txSeq_;
    op.frame.ackRequest = true;
    op.done = std::move(done);
    op.indirect = true;  // polls use the rapid-retry policy (§9.5)
    queue_.push_front(std::move(op));
    if (!current_) startNext();
}

void CsmaMac::registerSleepyChild(NodeId child) { sleepyChildren_.insert(child); }

std::size_t CsmaMac::indirectQueueDepth(NodeId child) const {
    auto it = indirectQueues_.find(child);
    return it == indirectQueues_.end() ? 0 : it->second.size();
}

bool CsmaMac::hasTrafficFor(NodeId child) const {
    if (indirectQueueDepth(child) > 0) return true;
    if (current_ && current_->frame.type == FrameType::kData && current_->frame.dst == child)
        return true;
    for (const SendOp& op : queue_)
        if (op.frame.type == FrameType::kData && op.frame.dst == child) return true;
    return false;
}

void CsmaMac::startNext() {
    // A completion callback is running with an aggregation burst open:
    // frames it queues wait for finishCurrent's burst check (they tailgate
    // the proven channel claim) instead of opening a fresh CSMA ladder.
    if (deferStarts_) return;
    if (current_ || queue_.empty()) {
        if (!current_ && queue_.empty() && idleCallback_) idleCallback_();
        return;
    }
    current_ = std::move(queue_.front());
    queue_.pop_front();
    current_->csmaBackoffs = 0;
    current_->be = config_.minBe;
    // A fresh channel acquisition opens a new aggregation burst: up to
    // aggFrames - 1 follow-on frames may skip their own CSMA ladder.
    burstRemaining_ = std::max(0, config_.aggFrames - 1);
    csmaAttempt();
}

void CsmaMac::wait(State next, sim::Time delay) {
    state_ = next;
    timer_.start(delay);
}

void CsmaMac::onTimer() {
    switch (state_) {
        case State::kBackoff:
            radio_.setSleeping(false);  // CCA requires the receiver on
            wait(State::kCca, config_.ccaTime);
            return;
        case State::kCca:
            if (radio_.channelClear()) {
                transmitCurrent();
            } else {
                channelBusy();
            }
            return;
        case State::kAwaitAck:
            scheduleRetry();
            return;
        case State::kRetryDelay:
            csmaAttempt();
            return;
        case State::kTurnaround:
            // Our own radio may be busy ACKing a frame received during the
            // turnaround (bidirectional TCP traffic makes this routine on a
            // relay). The burst degrades to a fresh CSMA ladder for this
            // frame instead of colliding with our own ACK transmission.
            if (radio_.txIdle()) {
                transmitCurrent();
            } else {
                csmaAttempt();
            }
            return;
        case State::kIdle:
        case State::kTransmit:
            break;
    }
    TCPLP_ASSERT(false && "MAC timer fired in a state that does not wait");
}

void CsmaMac::csmaAttempt() {
    TCPLP_ASSERT(current_);
    const sim::Time backoff =
        sim::Time(simulator().rng().uniformInt(1ULL << current_->be)) * config_.backoffUnit;
    // Deaf listening: hardware CSMA parks the radio in a low-power state
    // during backoff, so incoming frames are missed (§4).
    radio_.setSleeping(!config_.softwareCsma);
    wait(State::kBackoff, backoff);
}

void CsmaMac::transmitCurrent() {
    TCPLP_ASSERT(current_);
    // Set first: an unpowered radio calls radioTxDone(false) before
    // transmit() returns.
    state_ = State::kTransmit;
    radio_.transmit(current_->frame);
}

void CsmaMac::radioTxDone(bool radiated) {
    if (state_ != State::kTransmit) return;
    if (!radiated) {
        // Channel went busy during the frame upload: another CSMA round.
        channelBusy();
        return;
    }
    ++stats_.transmissions;
    ++current_->transmissions;
    if (!current_->frame.ackRequest) {
        finishCurrent(true);
        return;
    }
    wait(State::kAwaitAck, config_.turnaround + ackAirTime(radio_) + config_.ackTimeout);
}

void CsmaMac::channelBusy() {
    ++current_->csmaBackoffs;
    current_->be = std::min(current_->be + 1, config_.maxBe);
    if (current_->csmaBackoffs > config_.maxCsmaBackoffs) {
        ++stats_.ccaFailures;
        scheduleRetry();
    } else {
        csmaAttempt();
    }
}

int CsmaMac::maxRetriesFor(const SendOp& op) const {
    return op.indirect ? config_.indirectMaxRetries : config_.maxFrameRetries;
}

sim::Time CsmaMac::retryDelayFor(const SendOp& op) {
    const sim::Time d = op.indirect ? config_.indirectRetryDelayMax : config_.retryDelayMax;
    if (d <= 0) return 0;
    return simulator().rng().uniformRange(0, d);
}

void CsmaMac::scheduleRetry() {
    SendOp& op = *current_;
    ++op.retries;
    if (op.retries > maxRetriesFor(op)) {
        finishCurrent(false);
        return;
    }
    ++stats_.retries;
    op.csmaBackoffs = 0;
    op.be = config_.minBe;
    // The random inter-retry delay that defuses hidden terminals (§7.1).
    const sim::Time delay = retryDelayFor(op);
    if (!config_.softwareCsma || config_.sleepDuringRetryDelay)
        radio_.setSleeping(true);
    wait(State::kRetryDelay, delay);
}

void CsmaMac::reset() {
    timer_.stop();
    state_ = State::kIdle;
    current_.reset();
    burstRemaining_ = 0;
    deferStarts_ = false;
    queue_.clear();
    indirectQueues_.clear();
    lastDeliveredSeq_.clear();
    lastPollAt_.clear();
    lastAckPending_ = false;
}

void CsmaMac::finishCurrent(bool success) {
    TCPLP_ASSERT(current_);
    SendOp op = std::move(*current_);
    current_.reset();
    state_ = State::kIdle;
    timer_.stop();

    // A failed indirect data frame usually means the sleepy child's listen
    // window closed; park it back in the indirect queue for the next data
    // request instead of dropping (§9.5's indirect-message improvements).
    if (!success && op.indirect && op.frame.type == FrameType::kData &&
        isSleepyChild(op.frame.dst) && op.requeues < config_.indirectRequeueLimit) {
        ++op.requeues;
        op.retries = 0;
        op.transmissions = 0;
        indirectQueues_[op.frame.dst].push_front(std::move(op));
        startNext();
        return;
    }

    if (op.frame.type == FrameType::kData) {
        if (success)
            ++stats_.dataDelivered;
        else
            ++stats_.dataFailed;
        // Link-liveness feed: direct unicast payloads only. Broadcasts are
        // unacked (no signal) and indirect frames answer to the child's
        // wakeup schedule, not the link.
        if (txOutcome_ && op.frame.ackRequest && !op.indirect)
            txOutcome_(op.frame.dst, success);
    }
    // A-MPDU-style aggregation: a frame that was ACKed without needing a
    // retry proves the channel is still ours — chain the next queued frame
    // after one turnaround, skipping the CSMA backoff ladder entirely. Any
    // retry or CCA failure voids the claim and the burst ends. While the
    // completion callbacks run, starts are deferred so that a follow-on
    // frame they queue (the datapath hands fragments over one completion at
    // a time) tailgates the burst instead of opening its own ladder. At
    // aggFrames = 1, burstEligible is always false, deferStarts_ never
    // arms, and this path is bit-identical to the pre-aggregation MAC.
    const bool burstEligible = success && op.retries == 0 && burstRemaining_ > 0;
    deferStarts_ = burstEligible;
    if (op.done) op.done(SendResult{success, op.transmissions});
    deferStarts_ = false;

    if (burstEligible && !current_ && !queue_.empty()) {
        --burstRemaining_;
        ++stats_.aggregatedFrames;
        current_ = std::move(queue_.front());
        queue_.pop_front();
        current_->csmaBackoffs = 0;
        current_->be = config_.minBe;
        wait(State::kTurnaround, config_.turnaround);
        return;
    }
    startNext();
}

bool CsmaMac::radioFramePending(NodeId src) {
    // Set when any frame for the polling sleepy child is held anywhere in
    // the MAC (§3.2).
    return isSleepyChild(src) && hasTrafficFor(src);
}

void CsmaMac::radioReceived(const Frame& frame) {
    radio_.energy().addCpuBusy(config_.cpuPerFrame);

    if (frame.type == FrameType::kAck) {
        if (state_ == State::kAwaitAck && frame.src == current_->frame.dst &&
            frame.seq == current_->frame.seq) {
            lastAckPending_ = frame.framePending;
            finishCurrent(true);
        }
        return;
    }

    if (frame.dst != id() && frame.dst != phy::kBroadcast) return;

    // Note: acknowledgment of unicast frames happens in radio hardware
    // (phy::Radio auto-ACK), as on the AT86RF233.

    if (frame.type == FrameType::kDataRequest) {
        ++stats_.dataRequestsHeard;
        lastPollAt_[frame.src] = simulator().now();
        serveDataRequest(frame.src);
        return;
    }

    // Data frame.
    auto it = lastDeliveredSeq_.find(frame.src);
    if (it != lastDeliveredSeq_.end() && it->second == frame.seq) {
        // Link-layer retransmission of a frame whose ACK was lost.
        ++stats_.duplicatesSuppressed;
        return;
    }
    lastDeliveredSeq_[frame.src] = frame.seq;
    if (receiveCallback_) receiveCallback_(frame.src, frame.payload);
}

void CsmaMac::serveDataRequest(NodeId child) {
    auto it = indirectQueues_.find(child);
    if (it == indirectQueues_.end() || it->second.empty()) return;

    // Appendix C: unlike stock OpenThread (one frame per poll), flush the
    // whole queue, chaining frames with the pending bit so the child keeps
    // listening until the burst ends. Indirect frames jump the queue (§9.5
    // improvement: prioritize indirect messages so the child's listen
    // window is not wasted); moving them from the back keeps their order.
    std::deque<SendOp>& q = it->second;
    bool morePending = false;  // only the burst's last frame clears the bit
    while (!q.empty()) {
        SendOp& op = q.back();
        op.indirect = true;
        op.frame.framePending = morePending;
        morePending = true;
        queue_.push_front(std::move(op));
        q.pop_back();
    }
    if (!current_) startNext();
}

}  // namespace tcplp::mac
