#include "tcplp/mac/sleepy.hpp"

#include <algorithm>

namespace tcplp::mac {

SleepyMac::SleepyMac(CsmaMac& mac, NodeId parent, SleepyConfig config)
    : mac_(mac),
      parent_(parent),
      config_(config),
      pollTimer_(mac.simulator(), [this] { poll(); }),
      listenTimer_(mac.simulator(), [this] {
          inListenWindow_ = false;
          pollFinished(gotFrameThisWindow_);
      }) {
    currentInterval_ = intervalFor();
    mac_.setReceiveCallback([this](NodeId src, const PacketBuffer& payload) {
        gotFrameThisWindow_ = true;
        if (config_.policy == PollPolicy::kAdaptive) {
            // Trickle-style reset: traffic arrived, poll aggressively.
            currentInterval_ = config_.sminAdaptive;
        }
        if (inListenWindow_) {
            // A frame with more behind it (pending bit chained by the
            // parent) extends the window; extend unconditionally and let
            // the window timer re-arm.
            enterListenWindow();
        }
        if (upperRx_) upperRx_(src, payload);
    });
    mac_.setIdleCallback([this] { maybeSleep(); });
}

void SleepyMac::setReceiveCallback(CsmaMac::ReceiveCallback cb) { upperRx_ = std::move(cb); }

void SleepyMac::start() {
    started_ = true;
    mac_.radio().setSleeping(true);
    scheduleNextPoll();
}

void SleepyMac::setExpectingResponse(bool expecting) {
    if (expecting == expectingResponse_) return;
    expectingResponse_ = expecting;
    if (started_ && expecting) {
        // Re-arm the poll timer at the faster cadence immediately.
        scheduleNextPoll();
    }
}

sim::Time SleepyMac::intervalFor() const {
    switch (config_.policy) {
        case PollPolicy::kFixed: return config_.sleepInterval;
        case PollPolicy::kTransportHint:
            return expectingResponse_ ? config_.activeInterval : config_.idleInterval;
        case PollPolicy::kAdaptive:
            return std::clamp(currentInterval_, config_.sminAdaptive, config_.smaxAdaptive);
    }
    return config_.sleepInterval;
}

void SleepyMac::scheduleNextPoll() {
    if (!started_) return;
    pollTimer_.start(intervalFor());
}

void SleepyMac::poll() {
    ++pollsSent_;
    gotFrameThisWindow_ = false;
    mac_.sendDataRequest(parent_, [this](const SendResult& r) {
        if (r.success && mac_.lastAckPending()) {
            enterListenWindow();
        } else {
            pollFinished(gotFrameThisWindow_);
        }
    });
}

void SleepyMac::enterListenWindow() {
    inListenWindow_ = true;
    mac_.radio().setSleeping(false);
    listenTimer_.start(config_.wakeupInterval);
}

void SleepyMac::pollFinished(bool receivedAnything) {
    inListenWindow_ = false;
    if (config_.policy == PollPolicy::kAdaptive) {
        if (receivedAnything) {
            currentInterval_ = config_.sminAdaptive;
        } else {
            currentInterval_ =
                std::min(currentInterval_ * 2, config_.smaxAdaptive);
        }
    }
    maybeSleep();
    scheduleNextPoll();
}

void SleepyMac::maybeSleep() {
    if (!started_) return;
    if (inListenWindow_) return;
    if (mac_.busy()) return;  // CSMA machine still owns the radio
    mac_.radio().setSleeping(true);
}

}  // namespace tcplp::mac
