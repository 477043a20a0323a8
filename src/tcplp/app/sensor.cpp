#include "tcplp/app/sensor.hpp"

#include "tcplp/common/assert.hpp"

namespace tcplp::app {

Bytes makeReading(std::uint16_t nodeId, std::uint32_t seq) {
    Bytes r;
    r.reserve(kReadingBytes);
    putU16(r, nodeId);
    putU32(r, seq);
    const Bytes fill = patternBytes(seq * kReadingBytes, kReadingBytes - r.size());
    append(r, fill);
    TCPLP_ASSERT(r.size() == kReadingBytes);
    return r;
}

SensorNode::SensorNode(sim::Simulator& simulator, std::uint16_t nodeId,
                       SensorTransport& transport, SensorConfig config)
    : nodeId_(nodeId),
      transport_(transport),
      config_(config),
      queue_(config.queueCapacity),
      timer_(simulator, [this] { sample(); }) {}

void SensorNode::start() {
    timer_.start(config_.sampleInterval);
}

void SensorNode::stop() {
    timer_.stop();
    transport_.setFlushing(true);
    transport_.pump(queue_, stats_);
}

void SensorNode::sample() {
    ++stats_.generated;
    if (!queue_.push(makeReading(nodeId_, nextSeq_++))) ++stats_.queueDrops;
    transport_.pump(queue_, stats_);
    timer_.start(config_.sampleInterval);
}

// --- TCP adapter -----------------------------------------------------------

void TcpSensorTransport::pump(ReadingQueue& queue, SensorStats& stats) {
    if (socket_->state() != tcp::State::kEstablished) return;
    if (!flushing_ && config_.batching && queue.size() < config_.batchThreshold &&
        queue.size() < config_.queueCapacity) {
        return;  // wait for a full batch
    }
    while (!queue.empty()) {
        if (socket_->sendFree() < kReadingBytes) break;  // send buffer full
        const std::size_t n = socket_->send(queue.front());
        if (n == 0) break;
        TCPLP_ASSERT(n == kReadingBytes);
        queue.pop();
        ++stats.submitted;
    }
}

// --- CoAP adapter ----------------------------------------------------------

void CoapSensorTransport::pump(ReadingQueue& queue, SensorStats& stats) {
    queue_ = &queue;
    stats_ = &stats;
    if (config_.batching) {
        if (!flushing_ && queue.size() < config_.batchThreshold && inFlightBlocks_ == 0)
            return;
        // Assemble blocks of ~coapBlockBytes (whole readings per block) and
        // submit each as a confirmable POST. Limit transport backlog so the
        // queue keeps absorbing new samples while CoAP is backed off.
        const std::size_t readingsPerBlock =
            std::max<std::size_t>(1, config_.coapBlockBytes / kReadingBytes);
        while (!queue.empty() && client_.pendingExchanges() < 4) {
            Bytes block;
            std::size_t count = 0;
            while (!queue.empty() && count < readingsPerBlock) {
                append(block, queue.front());
                queue.pop();
                ++count;
            }
            stats.submitted += count;
            ++inFlightBlocks_;
            const bool more = !queue.empty();
            client_.postConfirmable(
                std::move(block),
                [this, count](bool delivered) {
                    --inFlightBlocks_;
                    if (!delivered) stats_->transportDrops += count;
                    if (queue_ && !queue_->empty()) pump(*queue_, *stats_);
                },
                coap::Block{nextBlockNum_++, more, 5});
        }
    } else {
        while (!queue.empty() && client_.pendingExchanges() < 2) {
            Bytes reading = queue.pop();
            ++stats.submitted;
            client_.postConfirmable(std::move(reading), [&stats](bool delivered) {
                if (!delivered) ++stats.transportDrops;
            });
        }
    }
}

// --- Unreliable adapter ------------------------------------------------------

void UnreliableSensorTransport::pump(ReadingQueue& queue, SensorStats& stats) {
    queue_ = &queue;
    stats_ = &stats;
    if (config_.batching) {
        if (!flushing_ && queue.size() < config_.batchThreshold) return;
        // Non-confirmable messages have no transport backpressure; pace the
        // batch so it does not overrun the node's forwarding queue.
        if (!sending_) {
            sending_ = true;
            sendNextBlock();
        }
    } else {
        while (!queue.empty()) {
            Bytes reading = queue.pop();
            ++stats.submitted;
            client_.postNonConfirmable(std::move(reading));
        }
    }
}

void UnreliableSensorTransport::sendNextBlock() {
    if (!queue_ || queue_->empty()) {
        sending_ = false;
        return;
    }
    const std::size_t readingsPerBlock =
        std::max<std::size_t>(1, config_.coapBlockBytes / kReadingBytes);
    Bytes block;
    std::size_t count = 0;
    while (!queue_->empty() && count < readingsPerBlock) {
        append(block, queue_->front());
        queue_->pop();
        ++count;
    }
    stats_->submitted += count;
    client_.postNonConfirmable(std::move(block));
    // ~Transmission time of one multi-frame datagram.
    client_.simulator().schedule(80 * sim::kMillisecond, [this] { sendNextBlock(); });
}

// --- Server-side collector ----------------------------------------------------

void ReadingCollector::feedStream(BytesView data) {
    append(partial_, data);
    std::size_t off = 0;
    while (partial_.size() - off >= kReadingBytes) {
        consumeReading(BytesView(partial_.data() + off, kReadingBytes));
        off += kReadingBytes;
    }
    partial_.erase(partial_.begin(), partial_.begin() + long(off));
}

void ReadingCollector::feedMessage(BytesView payload) {
    std::size_t off = 0;
    while (payload.size() - off >= kReadingBytes) {
        consumeReading(payload.subspan(off, kReadingBytes));
        off += kReadingBytes;
    }
}

void ReadingCollector::consumeReading(BytesView reading) {
    const std::uint16_t nodeId = getU16(reading, 0);
    ++total_;
    ++perNode_[nodeId];
}

}  // namespace tcplp::app
