#include "tcplp/transport/embedded_tcp.hpp"

#include <algorithm>

#include "tcplp/common/log.hpp"

namespace tcplp::transport {

EmbeddedTcpSocket::EmbeddedTcpSocket(ip6::NetIf& netif, EmbeddedTcpConfig config)
    : netif_(netif),
      config_(config),
      rto_(config.initialRto),
      rexmitTimer_(netif.simulator(), [this] { retransmitTimeout(); }) {
    netif_.registerProtocol(ip6::kProtoTcp, [this](const ip6::Packet& p) { input(p); });
    localPort_ = 50000;
}

void EmbeddedTcpSocket::connect(const ip6::Address& dst, std::uint16_t dstPort) {
    remoteAddr_ = dst;
    remotePort_ = dstPort;
    sndNxt_ = 100;  // fixed ISS: these stacks have no randomness to spare
    sendSyn();
}

void EmbeddedTcpSocket::sendSyn() {
    tcp::Segment syn;
    syn.flags.syn = true;
    syn.seq = sndNxt_;
    if (config_.profile == EmbeddedProfile::kUip) syn.mssOption = config_.mss;
    synSent_ = true;
    unacked_ = true;
    inFlightSeq_ = sndNxt_;
    sentAt_ = netif_.simulator().now();
    retransmitted_ = false;
    emit(syn);
    rexmitTimer_.start(rto_);
}

std::size_t EmbeddedTcpSocket::send(BytesView data) {
    const std::size_t room = config_.sendQueueBytes - sendQueue_.size();
    const std::size_t n = std::min(room, data.size());
    sendQueue_.insert(sendQueue_.end(), data.begin(), data.begin() + long(n));
    if (established_ && !unacked_) trySendNext();
    return n;
}

void EmbeddedTcpSocket::close() { closed_ = true; }

void EmbeddedTcpSocket::trySendNext() {
    if (!established_ || unacked_ || sendQueue_.empty()) return;
    const std::size_t len = std::min<std::size_t>(config_.mss, sendQueue_.size());
    inFlight_.assign(sendQueue_.begin(), sendQueue_.begin() + long(len));
    sendQueue_.erase(sendQueue_.begin(), sendQueue_.begin() + long(len));
    inFlightSeq_ = sndNxt_;
    retries_ = 0;
    retransmitted_ = false;
    unacked_ = true;
    transmitCurrent();
}

void EmbeddedTcpSocket::transmitCurrent() {
    tcp::Segment seg;
    seg.seq = inFlightSeq_;
    seg.payload = inFlight_;
    seg.flags.psh = true;
    sentAt_ = netif_.simulator().now();
    emit(seg);
    rexmitTimer_.start(rto_);
}

void EmbeddedTcpSocket::retransmitTimeout() {
    if (!unacked_) return;
    ++retries_;
    if (retries_ > config_.maxRetries) {
        unacked_ = false;
        established_ = false;
        if (onError_) onError_();
        return;
    }
    ++stats_.retransmissions;
    retransmitted_ = true;
    rto_ = std::min(rto_ * 2, config_.maxRto);
    if (synSent_ && !established_) {
        tcp::Segment syn;
        syn.flags.syn = true;
        syn.seq = inFlightSeq_;
        if (config_.profile == EmbeddedProfile::kUip) syn.mssOption = config_.mss;
        emit(syn);
        rexmitTimer_.start(rto_);
    } else {
        transmitCurrent();
    }
}

void EmbeddedTcpSocket::emit(tcp::Segment& seg) {
    seg.srcPort = localPort_;
    seg.dstPort = remotePort_;
    if (established_ || (!seg.flags.syn)) {
        seg.flags.ack = true;
        seg.ack = rcvNxt_;
    }
    seg.setWindowBytes(0x0400, 0);  // one segment's worth: the whole point
    ++stats_.segsSent;
    ip6::Packet p;
    p.src = netif_.address();
    p.dst = remoteAddr_;
    p.nextHeader = ip6::kProtoTcp;
    p.payload = seg.encode();
    netif_.sendPacket(std::move(p));
    netif_.setExpectingResponse(unacked_);
}

void EmbeddedTcpSocket::updateRtt(sim::Time sample) {
    if (config_.profile == EmbeddedProfile::kBlip) return;  // no RTT estimation
    if (retransmitted_) return;                              // Karn's rule
    if (srtt_ == 0) {
        srtt_ = sample;
        rttvar_ = sample / 2;
    } else {
        const sim::Time err = sample - srtt_;
        srtt_ += err / 8;
        rttvar_ += ((err < 0 ? -err : err) - rttvar_) / 4;
    }
    rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.minRto, config_.maxRto);
}

void EmbeddedTcpSocket::input(const ip6::Packet& packet) {
    const auto segOpt = tcp::Segment::decode(packet.payload);
    if (!segOpt) return;
    const tcp::Segment& seg = *segOpt;

    if (seg.flags.rst) {
        established_ = false;
        unacked_ = false;
        rexmitTimer_.stop();
        if (onError_) onError_();
        return;
    }

    if (synSent_ && !established_ && seg.flags.syn && seg.flags.ack) {
        if (seg.ack != inFlightSeq_ + 1) return;
        sndNxt_ = seg.ack;
        rcvNxt_ = seg.seq + 1;
        established_ = true;
        unacked_ = false;
        rexmitTimer_.stop();
        updateRtt(netif_.simulator().now() - sentAt_);
        // ACK the SYN+ACK.
        tcp::Segment ack;
        ack.seq = sndNxt_;
        emit(ack);
        if (onConnected_) onConnected_();
        trySendNext();
        return;
    }

    if (!established_) return;

    // ACK handling: single outstanding segment.
    if (seg.flags.ack && unacked_ &&
        tcp::seqGe(seg.ack, inFlightSeq_ + std::uint32_t(inFlight_.size()))) {
        unacked_ = false;
        rexmitTimer_.stop();
        sndNxt_ = inFlightSeq_ + std::uint32_t(inFlight_.size());
        stats_.bytesAcked += inFlight_.size();
        updateRtt(netif_.simulator().now() - sentAt_);
        retries_ = 0;
        inFlight_.clear();
        trySendNext();
    }

    // Data handling: in-order only, immediate ACK, no reassembly.
    if (!seg.payload.empty()) {
        if (seg.seq == rcvNxt_) {
            rcvNxt_ += std::uint32_t(seg.payload.size());
            if (onData_) onData_(seg.payload);
        } else {
            ++stats_.oooDropped;
        }
        tcp::Segment ack;
        ack.seq = sndNxt_;
        emit(ack);
    }
}

}  // namespace tcplp::transport
