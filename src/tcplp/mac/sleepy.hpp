// Duty-cycled (sleepy) leaf MAC: Thread-style listen-after-send.
//
// The leaf keeps its radio asleep and periodically polls its parent with an
// 802.15.4 Data Request (§3.2). If the parent's ACK carries the pending bit,
// the leaf listens for a wakeup interval to receive queued downstream frames;
// received data frames with the pending bit set extend the listen window
// (Appendix C, Figure 11). Upstream frames may be sent at any time.
//
// Three polling policies are provided:
//  * kFixed          — poll every `sleepInterval` (Appendix C.1, Fig. 12/13).
//  * kTransportHint  — poll every `idleInterval` (4 min default) normally,
//                      but every `activeInterval` (100 ms) while the
//                      transport layer says a response is expected (§9.2).
//  * kAdaptive       — Trickle-like: on receiving a frame, reset the sleep
//                      interval to smin; after an empty poll, double it up
//                      to smax (Appendix C.2, Fig. 14).
#pragma once

#include "tcplp/mac/csma.hpp"

namespace tcplp::mac {

enum class PollPolicy : std::uint8_t { kFixed, kTransportHint, kAdaptive };

struct SleepyConfig {
    PollPolicy policy = PollPolicy::kTransportHint;
    sim::Time sleepInterval = 2 * sim::kSecond;       // kFixed period
    sim::Time idleInterval = 4 * sim::kMinute;        // kTransportHint idle (§9.2)
    sim::Time activeInterval = 100 * sim::kMillisecond;  // when expecting ACK
    sim::Time sminAdaptive = 20 * sim::kMillisecond;  // Appendix C.2
    sim::Time smaxAdaptive = 5 * sim::kSecond;
    sim::Time wakeupInterval = 30 * sim::kMillisecond;  // listen window per poll
};

class SleepyMac {
public:
    SleepyMac(CsmaMac& mac, NodeId parent, SleepyConfig config = {});

    /// Starts the poll loop and puts the radio to sleep. Upstream frames go
    /// straight to the CsmaMac at any time (§3.2): its CSMA wakes the radio,
    /// and its idle callback lets this class park the radio again.
    void start();

    void setReceiveCallback(CsmaMac::ReceiveCallback cb);

    /// Transport-layer hint (§9.2): while true, polls run at activeInterval
    /// because a TCP ACK / CoAP response is expected imminently.
    void setExpectingResponse(bool expecting);

    sim::Time currentSleepInterval() const { return currentInterval_; }
    std::uint64_t pollsSent() const { return pollsSent_; }

private:
    void scheduleNextPoll();
    void poll();
    void pollFinished(bool receivedAnything);
    void enterListenWindow();
    void maybeSleep();
    sim::Time intervalFor() const;

    CsmaMac& mac_;
    NodeId parent_;
    SleepyConfig config_;
    CsmaMac::ReceiveCallback upperRx_;
    sim::Timer pollTimer_;
    sim::Timer listenTimer_;
    bool started_ = false;
    bool expectingResponse_ = false;
    bool inListenWindow_ = false;
    bool gotFrameThisWindow_ = false;
    sim::Time currentInterval_ = 0;
    std::uint64_t pollsSent_ = 0;
};

}  // namespace tcplp::mac
