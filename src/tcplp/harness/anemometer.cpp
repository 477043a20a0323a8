#include "tcplp/harness/anemometer.hpp"

#include "tcplp/common/assert.hpp"

namespace tcplp::harness {

namespace {
constexpr phy::NodeId kSensorIds[] = {12, 13, 14, 15};

std::uint16_t mssForFramesToCloud(std::size_t frames) {
    for (std::uint16_t mss = 1200; mss >= 40; --mss) {
        tcp::Segment seg;
        seg.timestamps = tcp::Timestamps{1, 2};
        seg.payload = patternBytes(0, mss);
        ip6::Packet p;
        p.src = ip6::Address::meshLocal(12);
        p.dst = ip6::Address::cloud(1000);
        p.nextHeader = ip6::kProtoTcp;
        p.payload = seg.encode();
        if (lowpan::frameCountFor(p, 12, 1, phy::kMaxMacPayloadBytes) <= frames) return mss;
    }
    return 40;
}

/// Per-sensor transport plumbing, kept alive for the whole run.
struct SensorRig {
    mesh::Node* node = nullptr;
    std::unique_ptr<tcp::TcpStack> tcpStack;
    tcp::TcpSocket* socket = nullptr;
    std::unique_ptr<transport::UdpStack> udpStack;
    std::unique_ptr<coap::CoapClient> coapClient;
    std::unique_ptr<app::SensorTransport> transport;
    std::unique_ptr<app::SensorNode> sensor;
    tcp::TcpConfig moteTcpConfig;
    ip6::Address cloudAddr;
    std::uint64_t accumulatedRexmit = 0;  // across reconnected sockets
    std::uint64_t accumulatedTimeouts = 0;

    /// (Re)establishes the TCP connection; deployments reconnect after a
    /// connection times out (§9.4: TCP gives up after 12 retransmissions).
    void connectTcp() {
        socket = &tcpStack->createSocket(moteTcpConfig);
        static_cast<app::TcpSensorTransport*>(transport.get())->setSocket(*socket);
        socket->setOnSendSpace([this] { sensor->kick(); });
        socket->setOnConnected([this] { sensor->kick(); });
        socket->setOnError([this] {
            accumulatedRexmit += socket->stats().retransmissions;
            accumulatedTimeouts += socket->stats().timeouts;
            node->simulator().schedule(10 * sim::kSecond, [this] { connectTcp(); });
        });
        socket->connect(cloudAddr, 80);
    }
};
}  // namespace

const char* protocolName(SensorProtocol p) {
    switch (p) {
        case SensorProtocol::kTcp: return "TCPlp";
        case SensorProtocol::kCoap: return "CoAP";
        case SensorProtocol::kCocoa: return "CoCoA";
        case SensorProtocol::kUnreliable: return "Unreliable";
    }
    return "?";
}

AnemometerResult runAnemometer(const AnemometerOptions& options) {
    TestbedConfig cfg;
    cfg.seed = options.seed;
    cfg.sleepyLeaves = {12, 13, 14, 15};
    cfg.sleepyConfig.policy = mac::PollPolicy::kTransportHint;
    // §7.1's fix is assumed throughout the application study: a random
    // delay between link retries defuses hidden-terminal collisions.
    cfg.nodeDefaults.macConfig.retryDelayMax = 40 * sim::kMillisecond;
    cfg.nodeDefaults.tcpCc = options.cc;
    auto tb = Testbed::office(cfg);
    for (phy::NodeId id : kSensorIds) {
        // Sleepy devices park the radio during the inter-retry delay.
        tb->findNode(id)->macLayer()->mutableConfig().sleepDuringRetryDelay = true;
    }
    sim::Simulator& simulator = tb->simulator();
    if (options.deliveryTap) tb->channel().setDeliveryTap(options.deliveryTap);

    if (options.injectedLoss > 0.0) tb->wired().setLossRate(options.injectedLoss);
    if (options.diurnal) {
        tb->channel().setAmbientLoss(
            [night = options.nightLoss, peak = options.peakLoss](sim::Time now, phy::NodeId) {
                return diurnalLossAt(now, night, peak);
            });
    }

    const std::uint16_t mss = mssForFramesToCloud(options.mssFrames);
    app::SensorConfig sensorCfg;
    sensorCfg.batching = options.batching;
    sensorCfg.batchThreshold = 64;
    sensorCfg.coapBlockBytes = std::size_t(mss);
    const bool isTcp = options.protocol == SensorProtocol::kTcp;
    sensorCfg.queueCapacity = isTcp ? 64 : 104;  // §9.2

    // Cloud endpoints.
    app::ReadingCollector collector;
    std::unique_ptr<tcp::TcpStack> cloudTcp;
    std::unique_ptr<transport::UdpStack> cloudUdp;
    std::unique_ptr<coap::CoapServer> coapServer;
    if (isTcp) {
        cloudTcp = std::make_unique<tcp::TcpStack>(tb->cloud());
        tcp::TcpConfig serverCfg;
        serverCfg.mss = mss;
        serverCfg.sendBufferBytes = serverCfg.recvBufferBytes = 16384;
        cloudTcp->listen(80, serverCfg, [&collector](tcp::TcpSocket& s) {
            s.setOnData([&collector](BytesView d) { collector.feedStream(d); });
        });
    } else {
        cloudUdp = std::make_unique<transport::UdpStack>(tb->cloud());
        coapServer = std::make_unique<coap::CoapServer>(*cloudUdp, 5683);
        coapServer->setOnRequest([&collector](const coap::Message& m, const ip6::Address&) {
            collector.feedMessage(m.payload);
        });
    }

    // Sensor rigs.
    std::vector<std::unique_ptr<SensorRig>> rigs;
    for (phy::NodeId id : kSensorIds) {
        auto rig = std::make_unique<SensorRig>();
        rig->node = tb->findNode(id);
        TCPLP_ASSERT(rig->node != nullptr);
        rig->node->start();  // begin duty cycling

        rig->node->config().queueConfig.capacityPackets = 16;
        if (rig->node->forwardQueue())
            rig->node->forwardQueue()->mutableConfig().capacityPackets = 16;
        if (isTcp) {
            rig->tcpStack = std::make_unique<tcp::TcpStack>(*rig->node);
            tcp::TcpConfig moteCfg;
            moteCfg.mss = mss;
            moteCfg.recvBufferBytes = 4 * mss;
            // §9.2: the send buffer also holds ~40 readings of application
            // backlog beyond the 4-segment window.
            moteCfg.sendBufferBytes = 4 * mss + 40 * app::kReadingBytes;
            moteCfg.cwndCapBytes = std::uint32_t(4 * mss);
            // Duty-cycled multihop paths have multi-second RTT tails (poll
            // latency compounds per loss); a 1 s RTO floor fires spuriously.
            moteCfg.minRto = 2 * sim::kSecond;
            moteCfg.cc = rig->node->config().tcpCc;
            rig->moteTcpConfig = moteCfg;
            rig->cloudAddr = tb->cloud().address();
            rig->socket = &rig->tcpStack->createSocket(moteCfg);
            rig->transport = std::make_unique<app::TcpSensorTransport>(*rig->socket, sensorCfg);
        } else {
            rig->udpStack = std::make_unique<transport::UdpStack>(*rig->node);
            coap::CoapConfig coapCfg;
            coapCfg.cocoa = (options.protocol == SensorProtocol::kCocoa);
            rig->coapClient = std::make_unique<coap::CoapClient>(
                *rig->udpStack, tb->cloud().address(), 5683, coapCfg);
            if (options.protocol == SensorProtocol::kUnreliable) {
                rig->transport =
                    std::make_unique<app::UnreliableSensorTransport>(*rig->coapClient, sensorCfg);
            } else {
                rig->transport =
                    std::make_unique<app::CoapSensorTransport>(*rig->coapClient, sensorCfg);
            }
        }
        rig->sensor = std::make_unique<app::SensorNode>(simulator, id, *rig->transport, sensorCfg);
        rigs.push_back(std::move(rig));
    }

    // Establish TCP connections, then start sampling. Start times are
    // staggered so the four nodes' batches and SYNs do not phase-lock.
    sim::Time stagger = 0;
    for (auto& rig : rigs) {
        simulator.schedule(stagger, [&rig = *rig, isTcp] {
            if (isTcp) rig.connectTcp();
            rig.sensor->start();
        });
        stagger += 5377 * sim::kMillisecond;
    }

    simulator.runUntil(options.warmup);
    // Open the measurement window.
    for (auto& rig : rigs) {
        phy::Radio* radio = rig->node->radio();
        radio->energy().resetWindow(radio->state(), simulator.now());
    }

    AnemometerResult result;
    if (options.diurnal) {
        // Hourly duty-cycle buckets (Fig. 10).
        const int hours = int(options.duration / sim::kHour);
        double cpuSum = 0.0;
        for (int h = 0; h < hours; ++h) {
            simulator.runUntil(options.warmup + sim::Time(h + 1) * sim::kHour);
            double dc = 0.0, cpu = 0.0;
            for (auto& rig : rigs) {
                phy::Radio* radio = rig->node->radio();
                dc += radio->energy().radioDutyCycle(radio->state(), simulator.now());
                cpu += radio->energy().cpuDutyCycle(simulator.now());
                radio->energy().resetWindow(radio->state(), simulator.now());
            }
            result.hourlyRadioDutyCycle.push_back(dc / double(rigs.size()));
            cpuSum += cpu / double(rigs.size());
        }
        double radioSum = 0.0;
        for (double v : result.hourlyRadioDutyCycle) radioSum += v;
        result.radioDutyCycle = radioSum / double(hours);
        result.cpuDutyCycle = cpuSum / double(hours);
    } else {
        simulator.runUntil(options.warmup + options.duration);
        double radioDc = 0.0, cpuDc = 0.0;
        for (auto& rig : rigs) {
            phy::Radio* radio = rig->node->radio();
            radioDc += radio->energy().radioDutyCycle(radio->state(), simulator.now());
            cpuDc += radio->energy().cpuDutyCycle(simulator.now());
        }
        result.radioDutyCycle = radioDc / double(rigs.size());
        result.cpuDutyCycle = cpuDc / double(rigs.size());
    }
    const sim::Time measureEnd = simulator.now();

    // Stop sampling; let queued data drain.
    for (auto& rig : rigs) rig->sensor->stop();
    simulator.runUntil(measureEnd + options.drain);

    for (auto& rig : rigs) {
        result.generated += rig->sensor->stats().generated;
        if (rig->socket) {
            result.transportRetransmissions +=
                rig->accumulatedRexmit + rig->socket->stats().retransmissions;
            result.tcpTimeouts += rig->accumulatedTimeouts + rig->socket->stats().timeouts;
        }
        if (rig->coapClient) {
            result.transportRetransmissions += rig->coapClient->stats().retransmissions;
        }
    }
    result.delivered = collector.total();
    result.reliability =
        result.generated > 0 ? double(result.delivered) / double(result.generated) : 0.0;
    result.rngDigest = simulator.rng().stateDigest();
    return result;
}

}  // namespace tcplp::harness
