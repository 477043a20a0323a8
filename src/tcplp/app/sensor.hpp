// Anemometer application (paper §3, §9).
//
// Each sensor node produces one 82-byte reading per second. Readings are
// buffered in an application-layer queue (64 readings for TCP, 104 for CoAP
// in the paper — the CoAP queue is deeper because TCP's send buffer holds
// another 40). A reading is lost only if this queue overflows while the
// transport is backed off — that is what "reliability" measures (§9.2).
//
// Two sending modes (§9.3): "no batching" pushes each reading to the
// transport immediately; "batching" waits until `batchThreshold` readings
// accumulate and drains the queue at once, amortizing radio wakeups.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "tcplp/coap/coap.hpp"
#include "tcplp/sim/simulator.hpp"
#include "tcplp/tcp/tcp.hpp"

namespace tcplp::app {

constexpr std::size_t kReadingBytes = 82;

/// Builds one self-describing reading: [nodeId u16][seq u32][pattern fill].
Bytes makeReading(std::uint16_t nodeId, std::uint32_t seq);

struct SensorConfig {
    sim::Time sampleInterval = 1 * sim::kSecond;
    std::size_t queueCapacity = 64;    // readings (104 for CoAP per §9.2)
    bool batching = true;
    std::size_t batchThreshold = 64;   // readings per batch (§9.3)
    std::size_t coapBlockBytes = 410;  // ~5 frames, sized like TCP segments
};

struct SensorStats {
    std::uint64_t generated = 0;
    std::uint64_t queueDrops = 0;   // overflow: the only loss source for TCP
    std::uint64_t submitted = 0;    // handed to the transport
    std::uint64_t transportDrops = 0;  // CoAP gave up / UDP (unknowable) = 0
};

/// Application-layer reading queue.
class ReadingQueue {
public:
    explicit ReadingQueue(std::size_t capacity) : capacity_(capacity) {}

    bool push(Bytes reading) {
        if (queue_.size() >= capacity_) return false;
        queue_.push_back(std::move(reading));
        return true;
    }
    bool empty() const { return queue_.empty(); }
    std::size_t size() const { return queue_.size(); }
    Bytes pop() {
        Bytes r = std::move(queue_.front());
        queue_.pop_front();
        return r;
    }
    const Bytes& front() const { return queue_.front(); }

private:
    std::size_t capacity_;
    std::deque<Bytes> queue_;
};

/// Abstract transport adapter the sensor drives.
class SensorTransport {
public:
    virtual ~SensorTransport() = default;
    /// Try to move queued readings into the transport. Called on every new
    /// sample and whenever the transport reports progress.
    virtual void pump(ReadingQueue& queue, SensorStats& stats) = 0;
    /// Batching adapters should ignore the batch threshold from now on
    /// (sampling stopped; drain what remains).
    virtual void setFlushing(bool) {}
};

/// Periodic sampling loop: generate -> queue -> pump.
class SensorNode {
public:
    SensorNode(sim::Simulator& simulator, std::uint16_t nodeId, SensorTransport& transport,
               SensorConfig config = {});

    void start();
    /// Stops sampling and flushes partial batches through the transport.
    void stop();
    const SensorStats& stats() const { return stats_; }
    const SensorConfig& config() const { return config_; }
    ReadingQueue& queue() { return queue_; }
    /// Re-pump after transport progress (wired by the adapters).
    void kick() { transport_.pump(queue_, stats_); }

private:
    void sample();

    std::uint16_t nodeId_;
    SensorTransport& transport_;
    SensorConfig config_;
    SensorStats stats_;
    ReadingQueue queue_;
    std::uint32_t nextSeq_ = 0;
    sim::Timer timer_;
};

/// TCP adapter: drains readings into the socket's send buffer. In batching
/// mode waits for a full batch, then hands the whole batch over zero-copy.
class TcpSensorTransport : public SensorTransport {
public:
    TcpSensorTransport(tcp::TcpSocket& socket, const SensorConfig& config)
        : socket_(&socket), config_(config) {}

    /// Swap in a fresh socket after a reconnect.
    void setSocket(tcp::TcpSocket& socket) { socket_ = &socket; }

    void pump(ReadingQueue& queue, SensorStats& stats) override;
    void setFlushing(bool f) override { flushing_ = f; }

private:
    tcp::TcpSocket* socket_;
    SensorConfig config_;
    bool flushing_ = false;
};

/// CoAP adapter: batching mode assembles blockwise batches whose packets
/// match TCP segment size (§9.3); per-reading mode sends one confirmable
/// POST per reading. A block whose exchange fails is lost (§9.4).
class CoapSensorTransport : public SensorTransport {
public:
    CoapSensorTransport(coap::CoapClient& client, const SensorConfig& config)
        : client_(client), config_(config) {}

    void pump(ReadingQueue& queue, SensorStats& stats) override;
    void setFlushing(bool f) override { flushing_ = f; }

private:
    coap::CoapClient& client_;
    SensorConfig config_;
    std::uint32_t nextBlockNum_ = 0;
    std::size_t inFlightBlocks_ = 0;
    bool flushing_ = false;
    // Continuation plumbing: completed exchanges re-pump the queue they
    // were drawn from (SensorNode owns both; their lifetime spans the run).
    ReadingQueue* queue_ = nullptr;
    SensorStats* stats_ = nullptr;
};

/// Unreliable adapter (§9.6): non-confirmable CoAP messages, no ARQ.
class UnreliableSensorTransport : public SensorTransport {
public:
    UnreliableSensorTransport(coap::CoapClient& client, const SensorConfig& config)
        : client_(client), config_(config) {}

    void pump(ReadingQueue& queue, SensorStats& stats) override;
    void setFlushing(bool f) override { flushing_ = f; }

private:
    void sendNextBlock();

    coap::CoapClient& client_;
    SensorConfig config_;
    bool flushing_ = false;
    bool sending_ = false;  // a paced batch drain is in progress
    ReadingQueue* queue_ = nullptr;
    SensorStats* stats_ = nullptr;
};

/// Server-side accounting: how many distinct readings arrived per node.
class ReadingCollector {
public:
    /// Feed a contiguous byte stream (TCP) — readings are fixed-size.
    void feedStream(BytesView data);
    /// Feed one message payload (CoAP/UDP) containing whole readings.
    void feedMessage(BytesView payload);

    std::uint64_t total() const { return total_; }
    std::uint64_t forNode(std::uint16_t nodeId) const {
        auto it = perNode_.find(nodeId);
        return it == perNode_.end() ? 0 : it->second;
    }

private:
    void consumeReading(BytesView reading);

    Bytes partial_;  // stream remainder smaller than one reading
    std::uint64_t total_ = 0;
    std::map<std::uint16_t, std::uint64_t> perNode_;
};

}  // namespace tcplp::app
