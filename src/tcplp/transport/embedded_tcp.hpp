// Simplified embedded TCP, in the style of the stacks TCPlp displaces.
//
// Reproduces the baseline rows of Tables 1 and 7: uIP and BLIP allow only a
// single outstanding (unACKed) segment — no sliding window, no congestion
// control, no SACK, no delayed ACKs, no out-of-order reassembly. Profiles:
//
//            | uIP profile          | BLIP profile
//  ----------+----------------------+----------------------
//  window    | 1 segment            | 1 segment
//  MSS       | 1 frame (negotiated) | 1 frame (no MSS option)
//  RTT est.  | yes (RFC 793 style)  | no (fixed 3 s RTO)
//  OOO data  | dropped              | dropped
//
// The wire format is ordinary TCP (tcp::Segment), so an embedded endpoint
// interoperates with a full-scale TCPlp peer — exactly the situation of the
// prior studies the paper compares against.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "tcplp/ip6/netif.hpp"
#include "tcplp/sim/simulator.hpp"
#include "tcplp/tcp/segment.hpp"

namespace tcplp::transport {

enum class EmbeddedProfile : std::uint8_t { kUip, kBlip };

struct EmbeddedTcpConfig {
    EmbeddedProfile profile = EmbeddedProfile::kUip;
    std::uint16_t mss = 60;  // ~1 frame of payload after headers
    sim::Time initialRto = 3 * sim::kSecond;
    sim::Time minRto = 1 * sim::kSecond;
    sim::Time maxRto = 60 * sim::kSecond;
    int maxRetries = 8;
    std::size_t sendQueueBytes = 2048;  // application backlog (not in flight)
};

struct EmbeddedTcpStats {
    std::uint64_t segsSent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t bytesAcked = 0;
    std::uint64_t oooDropped = 0;  // segments discarded for lack of reassembly
};

/// Client-side stop-and-wait TCP endpoint (enough protocol to run the
/// paper's unidirectional bulk-transfer and sensor workloads).
class EmbeddedTcpSocket {
public:
    using DataCallback = std::function<void(BytesView)>;
    using EventCallback = std::function<void()>;

    EmbeddedTcpSocket(ip6::NetIf& netif, EmbeddedTcpConfig config);

    void connect(const ip6::Address& dst, std::uint16_t dstPort);
    std::size_t send(BytesView data);
    void close();

    void setOnConnected(EventCallback cb) { onConnected_ = std::move(cb); }
    void setOnData(DataCallback cb) { onData_ = std::move(cb); }
    void setOnError(EventCallback cb) { onError_ = std::move(cb); }

    bool established() const { return established_; }
    const EmbeddedTcpStats& stats() const { return stats_; }
    std::size_t backlog() const { return sendQueue_.size(); }

private:
    void input(const ip6::Packet& packet);
    void sendSyn();
    void trySendNext();
    void transmitCurrent();
    void retransmitTimeout();
    void emit(tcp::Segment& seg);
    void updateRtt(sim::Time sample);

    ip6::NetIf& netif_;
    EmbeddedTcpConfig config_;
    EmbeddedTcpStats stats_;

    ip6::Address remoteAddr_{};
    std::uint16_t remotePort_ = 0;
    std::uint16_t localPort_ = 0;

    bool synSent_ = false;
    bool established_ = false;
    bool closed_ = false;
    std::uint32_t sndNxt_ = 0;
    std::uint32_t rcvNxt_ = 0;

    std::deque<std::uint8_t> sendQueue_;  // bytes not yet transmitted
    Bytes inFlight_;                      // the single outstanding segment
    std::uint32_t inFlightSeq_ = 0;
    int retries_ = 0;
    bool unacked_ = false;                // inFlight_ awaits its ACK
    sim::Time sentAt_ = 0;
    bool retransmitted_ = false;  // Karn's rule: skip RTT sample

    sim::Time srtt_ = 0;
    sim::Time rttvar_ = 0;
    sim::Time rto_;
    sim::Timer rexmitTimer_;

    EventCallback onConnected_;
    EventCallback onError_;
    DataCallback onData_;
};

}  // namespace tcplp::transport
