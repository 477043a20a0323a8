// TCPlp: a full-scale TCP engine for low-power networks.
//
// Protocol logic modeled on the feature set TCPlp keeps from FreeBSD
// (paper Table 1 and §4.1): sliding window, New Reno congestion control,
// RTT estimation with TCP timestamps, MSS negotiation, out-of-order
// reassembly, selective ACKs, delayed ACKs, zero-window probes, header
// prediction, and challenge ACKs. Deliberately omitted, as in the paper:
// the urgent pointer and the SYN-cache/security machinery. The paper also
// leaves out window scaling, since mote buffers never need more than 16 bits
// of window; here RFC 7323 scaling and receive-buffer autotuning exist for
// high-BDP links and are off by default (TcpConfig::windowScaling,
// TcpConfig::recvBufferMaxBytes).
//
// The engine is host-independent (§4.1's portability argument): it touches
// the outside world only through ip6::NetIf (packets) and sim::Simulator
// (timers), so the same code runs as the mote endpoint (small buffers), the
// "Linux server" endpoint (large buffers), and under direct unit test over
// a loopback pipe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "tcplp/common/stats.hpp"
#include "tcplp/ip6/netif.hpp"
#include "tcplp/sim/simulator.hpp"
#include "tcplp/tcp/cc.hpp"
#include "tcplp/tcp/recv_buffer.hpp"
#include "tcplp/tcp/segment.hpp"
#include "tcplp/tcp/send_buffer.hpp"
#include "tcplp/tcp/tcb.hpp"

namespace tcplp::tcp {

class CongestionControl;

struct TcpConfig {
    std::size_t sendBufferBytes = 2048;   // ~4 segments at MSS 462 (§6.2)
    std::size_t recvBufferBytes = 2048;
    std::uint16_t mss = 462;              // 5 frames worth of payload (§6.1)
    bool delayedAck = true;
    bool sack = true;
    bool timestamps = true;
    bool ecn = false;
    bool headerPrediction = true;
    /// Ablation: discard out-of-order segments instead of holding them in
    /// the in-place reassembly queue (how uIP/BLIP behave, Table 1).
    bool dropOutOfOrder = false;
    sim::Time delAckTimeout = 100 * sim::kMillisecond;
    sim::Time minRto = 1 * sim::kSecond;      // RFC 6298 floor
    sim::Time maxRto = 60 * sim::kSecond;
    sim::Time initialRto = 3 * sim::kSecond;
    sim::Time persistMin = 5 * sim::kSecond;
    sim::Time persistMax = 60 * sim::kSecond;
    sim::Time msl = 5 * sim::kSecond;         // TIME_WAIT = 2*MSL
    int maxRetransmits = 12;                  // §9.4: "up to 12 retransmissions"
    /// RFC 1122 §4.2.3.5 R1: after this many consecutive retransmissions of
    /// the same data the application is notified (setOnRexmitTrouble) that
    /// the path may be down — delivery is still attempted until R2
    /// (maxRetransmits) aborts. 0 disables the notification.
    int rexmitNotifyThreshold = 4;
    /// Zero-window probes are exempt from R2 while the peer answers them
    /// (RFC 1122 explicitly allows a zero window to persist indefinitely),
    /// but a peer that stops answering probes is just as dead as one that
    /// stops ACKing data: give up after this many consecutive *unanswered*
    /// probes. 0 = probe forever (pre-fault-injection behavior).
    int maxPersistProbes = 12;
    /// Keep-alive (RFC 1122 §4.2.3.6): after `keepAliveIdle` with no segment
    /// from the peer, send a probe every `keepAliveInterval`; give up after
    /// `keepAliveProbes` consecutive unanswered probes. Idle 0 = disabled
    /// (the default — idle connections are free in the paper's deployments).
    sim::Time keepAliveIdle = 0;
    sim::Time keepAliveInterval = 10 * sim::kSecond;
    int keepAliveProbes = 6;
    std::uint32_t initialCwndSegments = 2;
    /// Congestion-window ceiling in bytes; 0 = the send buffer capacity.
    /// Lets the send buffer hold application backlog (§9.2: "an additional
    /// 40 readings fit in TCP's send buffer") beyond the window.
    std::uint32_t cwndCapBytes = 0;
    /// RFC 3042 limited transmit: send one new segment on each of the first
    /// two duplicate ACKs. Helps fast retransmit trigger with small windows
    /// on clean paths, but adds traffic during recovery — off by default in
    /// the LLN configuration (the extra frames worsen self-interference on
    /// multihop 802.15.4 paths).
    bool limitedTransmit = false;
    /// Congestion-control strategy (tcp/congestion.hpp). kNewReno is the
    /// paper's stock behavior and replays the pre-strategy engine
    /// byte-for-byte; the wireless variants change only the loss response.
    CcKind cc = CcKind::kNewReno;
    /// RFC 7323 window scaling. Off by default: the paper's mote buffers
    /// never need more than 16 bits of window, and the option must not
    /// appear on the wire in any golden-pinned scenario. When on, WSopt is
    /// offered on the SYN/SYN-ACK and the negotiated shifts (clamped to 14)
    /// scale every non-SYN window field through Segment::setWindowBytes /
    /// windowBytes.
    bool windowScaling = false;
    /// Receive-buffer autotuning budget (bytes); 0 = fixed buffer. When set,
    /// the receive buffer starts at recvBufferBytes and grows toward the
    /// measured delivered-bytes-per-RTT (DRS-style) up to this ceiling — the
    /// adaptive analog of Fig. 5's static window sweep. The advertised
    /// window scale is derived from this ceiling so growth never outruns
    /// what the handshake promised.
    std::size_t recvBufferMaxBytes = 0;
};

struct TcpStats {
    std::uint64_t segsSent = 0;
    std::uint64_t segsReceived = 0;
    std::uint64_t bytesSent = 0;          // payload bytes, incl. rexmits
    std::uint64_t bytesAcked = 0;
    std::uint64_t retransmissions = 0;    // data segments re-sent (all causes)
    std::uint64_t fastRetransmissions = 0;
    std::uint64_t sackRetransmissions = 0;
    std::uint64_t timeouts = 0;           // RTO expirations
    std::uint64_t dupAcksReceived = 0;
    std::uint64_t headerPredictions = 0;  // fast-path hits
    std::uint64_t challengeAcks = 0;
    std::uint64_t zeroWindowProbes = 0;
    std::uint64_t ecnResponses = 0;
    std::uint64_t rexmitNotifications = 0;  // R1 threshold crossings
    std::uint64_t rexmitGiveUps = 0;        // R2 aborts (-> kFailed)
    std::uint64_t persistGiveUps = 0;       // unanswered-probe aborts
    std::uint64_t keepAliveProbesSent = 0;
    std::uint64_t keepAliveGiveUps = 0;
    Summary rttSamples;                   // milliseconds
};

class TcpStack;

/// An active TCP endpoint (the paper's "active socket", §4.1).
class TcpSocket {
public:
    using DataCallback = std::function<void(BytesView)>;
    using EventCallback = std::function<void()>;
    /// (time, cwnd, ssthresh) — drives Fig. 7(a).
    using CwndTracer = std::function<void(sim::Time, std::uint32_t, std::uint32_t)>;

    TcpSocket(TcpStack& stack, TcpConfig config);
    ~TcpSocket();
    TcpSocket(const TcpSocket&) = delete;
    TcpSocket& operator=(const TcpSocket&) = delete;

    // --- Application interface ----------------------------------------
    void connect(const ip6::Address& dst, std::uint16_t dstPort);
    /// Queues data (copied into the send buffer); returns bytes accepted.
    std::size_t send(BytesView data);
    /// Zero-copy queueing of an immutable chunk (§4.3.1); all-or-nothing.
    std::size_t sendZeroCopy(std::shared_ptr<const Bytes> data);
    std::size_t sendFree() const { return sendBuf_.free(); }
    /// Closes the write side (FIN); the socket drains in the background.
    void close();
    /// Hard drop: RST to peer, socket immediately closed.
    void abort();
    /// Crash semantics: all timers stopped, state cleared to kClosed, no RST
    /// and no callbacks — as if the host lost power (fault injection).
    void dropSilently();

    void setOnConnected(EventCallback cb) { onConnected_ = std::move(cb); }
    void setOnData(DataCallback cb) { onData_ = std::move(cb); }
    void setOnClosed(EventCallback cb) { onClosed_ = std::move(cb); }
    /// Peer sent FIN (read side closed); a typical app responds with close().
    void setOnPeerFin(EventCallback cb) { onPeerFin_ = std::move(cb); }
    /// Manual read mode (no onData callback): pull up to n buffered bytes.
    Bytes read(std::size_t n);
    std::size_t readable() const { return recvBuf_.readable(); }
    /// Current receive-buffer capacity (grows under autotuning).
    std::size_t recvBufferCapacity() const { return recvBuf_.capacity(); }
    /// Last buffer-turnover interval the autotuner measured (~RTT when the
    /// buffer binds); 0 until the first growth decision.
    sim::Time autotuneLastRtt() const { return autotuneLastRtt_; }
    /// Connection failed/reset/timed out.
    void setOnError(EventCallback cb) { onError_ = std::move(cb); }
    /// R1 notification (RFC 1122 §4.2.3.5): retransmissions are piling up
    /// but the connection has not yet been aborted.
    void setOnRexmitTrouble(EventCallback cb) { onRexmitTrouble_ = std::move(cb); }
    void setCwndTracer(CwndTracer cb) { cwndTracer_ = std::move(cb); }
    /// Fires whenever send-buffer space becomes available.
    void setOnSendSpace(EventCallback cb) { onSendSpace_ = std::move(cb); }

    // --- Introspection -------------------------------------------------
    State state() const { return tcb_.state; }
    const Tcb& tcb() const { return tcb_; }
    const TcpConfig& config() const { return config_; }
    const TcpStats& stats() const { return stats_; }
    /// Congestion-response counters of the active strategy (loss_cuts /
    /// cuts_skipped in the shootout rows).
    const CcStats& ccStats() const;
    std::uint16_t localPort() const { return localPort_; }
    std::uint32_t flightSize() const { return std::uint32_t(tcb_.sndNxt - tcb_.sndUna); }
    sim::Time currentRto() const { return tcb_.rto; }

    // --- Stack-internal ------------------------------------------------
    void input(const Segment& seg, ip6::Ecn ipEcn);
    void beginPassiveOpen(const Segment& syn, const ip6::Address& peer);

private:
    friend class TcpStack;

    // Output path.
    void output();
    void sendSegment(Seq seq, std::size_t len, bool fin, bool syn);
    void emit(Segment& seg);
    void sendAckNow();
    void scheduleDelack();
    std::uint32_t effSndWindow() const;
    std::size_t unsentBytes() const;

    // Input helpers.
    bool tryHeaderPrediction(const Segment& seg);
    void processAck(const Segment& seg);
    void processSackBlocks(const std::vector<SackBlock>& blocks);
    void processData(const Segment& seg);
    void processFin(const Segment& seg);
    void handleRst();
    void sendChallengeAck();
    void updateRtt(sim::Time sample);
    void updateWindow(const Segment& seg);
    void enterFastRecovery();
    void exitFastRecovery(Seq ack);
    void traceCwnd();
    std::uint32_t cwndCap() const;

    // Window scaling + receiver-side SWS avoidance + autotuning.
    /// The shift we offer in WSopt: smallest shift whose 16-bit window can
    /// cover the largest buffer this socket may ever advertise.
    std::uint8_t desiredRcvShift() const;
    /// RFC 1122 §4.2.3.3: after a zero-window episode the window stays shut
    /// until at least min(MSS, capacity/2) has opened up.
    std::uint32_t swsThreshold() const;
    /// DRS-style receive-buffer autotuning: grow toward delivered-per-RTT.
    void maybeAutotune();

    // SACK scoreboard (sender side).
    void mergeSack(SackBlock block);
    bool isSacked(Seq from, Seq to) const;
    std::optional<Seq> nextSackHole() const;
    void dropSackedBelow(Seq seq);

    // Timers.
    /// RTO from the current srtt/rttvar estimate with no retransmit backoff
    /// applied (RFC 6298 §2.2-2.4; initialRto while unmeasured).
    sim::Time baseRto() const;
    sim::Time persistDelay() const;
    void armRexmit();
    void rexmitTimeout();
    void persistTimeout();
    void keepAliveTimeout();
    void sendKeepAliveProbe();
    void armKeepAlive();
    void notePeerActivity();
    void enterTimeWait();
    void connectionDropped();
    void connectionFailed();
    void setState(State s);
    void maybeFinishClose(bool finAcked);

    std::uint32_t tsNow() const;

    TcpStack& stack_;
    TcpConfig config_;
    Tcb tcb_;
    TcpStats stats_;
    /// The congestion-control strategy (tcp/congestion.hpp); owns every
    /// cwnd/ssthresh mutation and clamps them all through one capped setter.
    std::unique_ptr<CongestionControl> cc_;

    std::uint16_t localPort_ = 0;
    std::uint16_t remotePort_ = 0;
    ip6::Address remoteAddr_{};

    SendBuffer sendBuf_;
    RecvBuffer recvBuf_;
    Bytes drainScratch_;  // reused by the auto-drain delivery path
    std::vector<SackBlock> scoreboard_;  // peer-SACKed ranges

    sim::Timer rexmitTimer_;
    sim::Timer persistTimer_;
    sim::Timer delackTimer_;
    sim::Timer timeWaitTimer_;
    sim::Timer keepAliveTimer_;

    // Survival bookkeeping (outside Tcb: sizeof(Tcb) stays paper-comparable).
    sim::Time lastRecvAt_ = 0;           // last segment from the peer
    int persistProbesUnanswered_ = 0;
    int keepAliveUnanswered_ = 0;

    // Receive-buffer autotuning state (outside Tcb for the same reason).
    // The self-clocking DRS estimate: a window-limited sender delivers one
    // full buffer per RTT, so the time for rcvNxt to advance one buffer
    // capacity past the mark *is* the RTT whenever the buffer binds.
    bool autotuneArmed_ = false;
    Seq autotuneMark_ = 0;               // rcvNxt when the mark was planted
    sim::Time autotuneMarkAt_ = 0;       // when the mark was planted
    sim::Time autotuneLastRtt_ = 0;      // last measured turn-over interval
    sim::Time autotuneBaseRtt_ = 0;      // min srtt seen at turn-over checks

    DataCallback onData_;
    EventCallback onConnected_;
    EventCallback onClosed_;
    EventCallback onError_;
    EventCallback onSendSpace_;
    EventCallback onPeerFin_;
    EventCallback onRexmitTrouble_;
    CwndTracer cwndTracer_;
    Seq finSeq_ = 0;  // sequence number consumed by our FIN
    bool sentAdvWndZero_ = false;
};

/// Listening endpoint (the paper's "passive socket": deliberately tiny,
/// §4.1 — it holds a port, a config template, and a callback).
class PassiveSocket {
public:
    using AcceptCallback = std::function<void(TcpSocket&)>;

    PassiveSocket(TcpStack& stack, std::uint16_t port, TcpConfig config, AcceptCallback cb)
        : stack_(stack), port_(port), config_(config), accept_(std::move(cb)) {}

    std::uint16_t port() const { return port_; }
    const TcpConfig& config() const { return config_; }

private:
    friend class TcpStack;
    TcpStack& stack_;
    std::uint16_t port_;
    TcpConfig config_;
    AcceptCallback accept_;
};

/// Per-node TCP instance: demultiplexes segments to sockets.
class TcpStack {
public:
    explicit TcpStack(ip6::NetIf& netif);

    ip6::NetIf& netif() { return netif_; }
    sim::Simulator& simulator() { return netif_.simulator(); }

    /// Creates an unbound active socket.
    TcpSocket& createSocket(TcpConfig config = {});
    /// Listens on `port`; accepted connections inherit `config`.
    PassiveSocket& listen(std::uint16_t port, TcpConfig config, PassiveSocket::AcceptCallback cb);

    void destroySocket(TcpSocket& socket);
    /// Crash semantics for every socket at once (node reboot): timers
    /// stopped, states cleared, no RSTs, no callbacks.
    void dropAllConnectionsSilently();

    // Internal.
    void transmit(TcpSocket& socket, Segment& seg);
    std::uint16_t allocatePort() { return nextEphemeral_++; }
    void bind(TcpSocket& socket);
    void unbind(TcpSocket& socket);

private:
    void packetInput(const ip6::Packet& packet);
    void sendRst(const Segment& toSeg, const ip6::Address& dst);

    ip6::NetIf& netif_;
    std::vector<std::unique_ptr<TcpSocket>> sockets_;
    std::vector<std::unique_ptr<PassiveSocket>> listeners_;
    std::uint16_t nextEphemeral_ = 49152;
    std::uint32_t issCounter_ = 1000;

public:
    std::uint32_t nextIss() { return issCounter_ += 64000; }
};

}  // namespace tcplp::tcp
