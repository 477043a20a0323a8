#include "workloads.hpp"

#include <algorithm>
#include <deque>

#include "tcplp/app/bulk.hpp"
#include "tcplp/app/sensor.hpp"
#include "tcplp/common/assert.hpp"
#include "tcplp/common/packet_buffer.hpp"
#include "tcplp/common/ring_deque.hpp"
#include "tcplp/scenario/workloads.hpp"

namespace tcplp::bm {

// --- SocketLedger ------------------------------------------------------------

void SocketLedger::add(tcp::TcpSocket& s, bool sender) {
    live_.push_back(Entry{&s, sender});
    maxLive_ = std::max(maxLive_, live_.size());
}

void SocketLedger::retire(tcp::TcpSocket& s) {
    const auto it = std::find_if(live_.begin(), live_.end(),
                                 [&s](const Entry& e) { return e.socket == &s; });
    TCPLP_ASSERT(it != live_.end());
    fold(s, retired_);
    if (it->sender) {
        const auto& rtt = s.stats().rttSamples.samples();
        retiredRtt_.insert(retiredRtt_.end(), rtt.begin(), rtt.end());
    }
    live_.erase(it);
}

void SocketLedger::fold(const tcp::TcpSocket& s, Counters& c) {
    const tcp::TcpStats& t = s.stats();
    c[kTcpSegsSent] += t.segsSent;
    c[kTcpSegsReceived] += t.segsReceived;
    c[kTcpRexmits] += t.retransmissions;
    c[kTcpFastRexmits] += t.fastRetransmissions;
    c[kTcpSackRexmits] += t.sackRetransmissions;
    c[kTcpTimeouts] += t.timeouts;
    c[kTcpDupAcks] += t.dupAcksReceived;
    c[kTcpHeaderPredictions] += t.headerPredictions;
    c[kTcpLossCuts] += s.ccStats().lossCuts;
}

void SocketLedger::addCounters(Counters& c) const {
    for (std::size_t i = 0; i < kCounterCount; ++i) c[i] += retired_[i];
    for (const Entry& e : live_) fold(*e.socket, c);
}

std::vector<double> SocketLedger::senderRttMs() const {
    std::vector<double> out = retiredRtt_;
    for (const Entry& e : live_) {
        if (!e.sender) continue;
        const auto& rtt = e.socket->stats().rttSamples.samples();
        out.insert(out.end(), rtt.begin(), rtt.end());
    }
    return out;
}

// --- Episode -------------------------------------------------------------------

Counters Episode::counters() {
    Counters c{};
    harness::Testbed& tb = *tb_;
    const sim::SchedulerStats& s = tb.simulator().stats();
    c[kSimScheduled] = s.scheduled;
    c[kSimRescheduled] = s.rescheduled;
    c[kSimFired] = s.fired;
    c[kSimCancelled] = s.cancelled;

    const phy::Channel& ch = tb.channel();
    c[kPhyFrames] = ch.framesTransmitted();
    c[kPhyCollided] = ch.framesCollided();
    c[kPhyFaded] = ch.framesLostToFading();
    c[kPhyDeliveryEvents] = ch.channelStats().deliveryEvents;
    c[kPhyListenerVisits] = ch.channelStats().listenerVisits;
    c[kPhyNeighborRebuilds] = ch.channelStats().neighborRebuilds;
    c[kPhyNeighborRevalidations] = ch.channelStats().neighborRevalidations;

    const auto addNode = [&c](const mesh::NodeStats& n) {
        c[kMeshSent] += n.packetsSent;
        c[kMeshForwarded] += n.packetsForwarded;
        c[kMeshDelivered] += n.packetsDelivered;
        c[kMeshForwardDrops] += n.forwardDrops;
        c[kMeshNoRouteDrops] += n.noRouteDrops;
        c[kMeshDeepCopies] += n.payloadDeepCopies;
        c[kLowpanPrependFallbacks] += n.prependFallbacks;
    };
    for (std::size_t i = 0; i < tb.nodeCount(); ++i) {
        mesh::Node& node = tb.node(i);
        addNode(node.stats());
        if (const mac::CsmaMac* mac = node.macLayer()) {
            const mac::MacStats& m = mac->stats();
            c[kMacPayloads] += m.dataSent;
            c[kMacDelivered] += m.dataDelivered;
            c[kMacFailed] += m.dataFailed;
            c[kMacTransmissions] += m.transmissions;
            c[kMacRetries] += m.retries;
            c[kMacCcaFailures] += m.ccaFailures;
            c[kMacAggregated] += m.aggregatedFrames;
        }
        if (const mac::SleepyMac* sleepy = node.sleepyMac()) c[kMacPolls] += sleepy->pollsSent();
        if (const lowpan::Reassembler* r = node.reassembler()) {
            const lowpan::ReassemblyStats& rs = r->stats();
            c[kLowpanReassembled] += rs.delivered;
            c[kLowpanReassemblyDrops] += rs.timedOut + rs.dropped + rs.arenaDrops + rs.slotDrops;
        }
        if (const ip6::RedQueue* q = node.forwardQueue()) {
            c[kIp6Enqueued] += q->stats().enqueued;
            c[kIp6TailDrops] += q->stats().tailDropped;
        }
    }
    addNode(tb.cloud().stats());
    ledger_.addCounters(c);

    const SlabPoolStats& pool = tb.simulator().framePool().stats();
    c[kPoolRecycled] = pool.recycled;
    c[kPoolFresh] = pool.fresh;
    c[kPbufDeepCopies] = PacketBuffer::stats().deepCopies;
    c[kPbufCopiedBytes] = PacketBuffer::stats().copiedBytes;
    c[kSmallFnHeapFallbacks] = sim::SmallFn::heapFallbacks();
    c[kHeapAllocs] = allocCount();
    return c;
}

namespace {

/// Workload schedules draw from this stream, never from the simulation RNG.
constexpr std::uint64_t kScheduleStream = 0x5c4ed;

sim::Rng scheduleRng(std::uint64_t seed) {
    return sim::Rng(sim::Rng::deriveStream(seed, kScheduleStream));
}

/// Start phases for `n` sources that repeat every `period`: the period is
/// cut into n equal slots, a seeded permutation deals the sources to slots,
/// and each lands at a seeded offset inside its slot. Every seed offers the
/// same smooth load; the seed decides who sends when.
std::vector<sim::Time> spreadPhases(sim::Rng& rng, std::size_t n, sim::Time period) {
    std::vector<std::size_t> slot(n);
    for (std::size_t i = 0; i < n; ++i) slot[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(slot[i - 1], slot[rng.uniformInt(i)]);
    const sim::Time width = period / sim::Time(n);
    std::vector<sim::Time> phases(n);
    for (std::size_t i = 0; i < n; ++i)
        phases[i] = sim::Time(slot[i]) * width + sim::Time(rng.uniformInt(std::uint64_t(width)));
    return phases;
}

sim::Time scaled(sim::Time t, double scale) {
    return std::max<sim::Time>(sim::kSecond, sim::Time(double(t) * scale));
}

double millis(sim::Time t) { return double(t) / double(sim::kMillisecond); }

double meanRadioDc(const std::vector<mesh::Node*>& motes, sim::Time now) {
    if (motes.empty()) return 0.0;
    double sum = 0.0;
    for (mesh::Node* n : motes)
        sum += n->radio()->energy().radioDutyCycle(n->radio()->state(), now);
    return sum / double(motes.size());
}

void resetRadioWindows(const std::vector<mesh::Node*>& motes, sim::Time now) {
    for (mesh::Node* n : motes) n->radio()->energy().resetWindow(n->radio()->state(), now);
}

// --- Saturating bulk flows (city_bulk, esp32_lossy_line) ------------------------

struct BulkSetup {
    std::vector<scenario::FlowSpec> flows;
    tcp::TcpConfig mote;    // mote-side endpoint of every flow
    tcp::TcpConfig server;  // cloud-side endpoint
    sim::Time maxPhase = 0;
    sim::Time warmup = 0;
    sim::Time window = 0;
};

/// Closed loop: each flow refills its send buffer whenever space opens. An
/// operation is one 4 KiB application message of the stream; its latency
/// runs from send() accepting its last byte to the receiver verifying it.
class BulkEpisode : public Episode {
public:
    BulkEpisode(std::unique_ptr<harness::Testbed> tb, std::uint64_t seed, BulkSetup setup)
        : seed_(seed), setup_(std::move(setup)) {
        tb_ = std::move(tb);
        // No peer ever dies here, so R2 (give up after this many consecutive
        // timeouts) is set past an episode's length: a flow starved by the
        // overload keeps its connection instead of abandoning the transfer.
        setup_.mote.maxRetransmits = setup_.server.maxRetransmits = 60;
    }

    void open() override {
        sim::Simulator& sim = tb_->simulator();
        sim::Rng rng = scheduleRng(seed_);
        const std::vector<sim::Time> phases =
            spreadPhases(rng, setup_.flows.size(), setup_.maxPhase);
        cloudStack_ = std::make_unique<tcp::TcpStack>(tb_->cloud());
        for (std::size_t i = 0; i < setup_.flows.size(); ++i) {
            const scenario::FlowSpec& spec = setup_.flows[i];
            auto flow = std::make_unique<Flow>();
            Flow* f = flow.get();
            f->mote = tb_->findNode(spec.node);
            TCPLP_ASSERT(f->mote != nullptr);
            f->moteStack = std::make_unique<tcp::TcpStack>(*f->mote);
            f->meter = std::make_unique<app::GoodputMeter>(sim);
            const std::uint16_t port = std::uint16_t(80 + i);
            tcp::TcpStack& senderStack = spec.uplink ? *f->moteStack : *cloudStack_;
            tcp::TcpStack& receiverStack = spec.uplink ? *cloudStack_ : *f->moteStack;
            receiverStack.listen(port, spec.uplink ? setup_.server : setup_.mote,
                                 [this, f](tcp::TcpSocket& s) {
                                     ledger_.add(s, false);
                                     s.setOnData([this, f](BytesView d) {
                                         HookScope h(Hook::kOnData);
                                         delivered(*f, d);
                                     });
                                     s.setOnError([f] { f->errored = true; });
                                 });
            f->sender = &senderStack.createSocket(spec.uplink ? setup_.mote : setup_.server);
            ledger_.add(*f->sender, true);
            f->sender->setOnConnected([this, f] {
                HookScope h(Hook::kOnConnected);
                m_.handshakeMs.push_back(millis(tb_->simulator().now() - f->connectAt));
                pump(*f);
            });
            f->sender->setOnSendSpace([this, f] {
                HookScope h(Hook::kOnSendSpace);
                pump(*f);
            });
            f->sender->setOnError([f] { f->errored = true; });
            const ip6::Address dst = spec.uplink ? tb_->cloud().address() : f->mote->address();
            sim.schedule(phases[i], [this, f, dst, port] {
                HookScope h(Hook::kOnTimer);
                f->connectAt = tb_->simulator().now();
                ++m_.connsOpened;
                HookScope c(Hook::kTcpConnect);
                f->sender->connect(dst, port);
            });
            motes_.push_back(f->mote);
            flows_.push_back(std::move(flow));
        }
    }

    void run(Clock& clock) override {
        windowStart_ = setup_.warmup;
        clock.runUntil(windowStart_);
        for (auto& f : flows_) f->deliveredAtWindow = f->meter->bytes();
        resetRadioWindows(motes_, tb_->simulator().now());
        clock.runUntil(windowStart_ + setup_.window);
        m_.radioDc = meanRadioDc(motes_, tb_->simulator().now());
    }

    SimMetrics finish() override {
        m_.rngDigest = tb_->simulator().rng().stateDigest();
        m_.frames = tb_->channel().framesTransmitted();
        m_.windowS = sim::toSeconds(setup_.window);
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            const Flow& f = *flows_[i];
            const std::size_t bytes = f.meter->bytes() - f.deliveredAtWindow;
            m_.bytesVerified += bytes;
            m_.perFlowBytes.push_back(double(bytes));
            if (!f.meter->contentOk()) m_.fail("flow " + std::to_string(i) + ": content mismatch");
            if (f.errored || f.sender->state() == tcp::State::kFailed) {
                // Messages the broken connection still held are lost.
                ++m_.connsFailed;
                for (const Write& w : f.writes) {
                    if (w.at < windowStart_) continue;
                    ++m_.attempted;
                    ++m_.failed;
                }
            }
        }
        m_.rttMs = ledger_.senderRttMs();
        m_.liveSocketsMax = ledger_.maxLive();
        return m_;
    }

private:
    static constexpr std::size_t kMessageBytes = 4096;

    struct Write {
        std::size_t end = 0;  // stream offset one past the message's last byte
        sim::Time at = 0;     // when send() accepted that byte
    };
    struct Flow {
        mesh::Node* mote = nullptr;
        std::unique_ptr<tcp::TcpStack> moteStack;
        tcp::TcpSocket* sender = nullptr;
        std::unique_ptr<app::GoodputMeter> meter;
        std::size_t offered = 0;
        std::size_t nextMessageEnd = kMessageBytes;
        std::size_t deliveredAtWindow = 0;
        sim::Time connectAt = 0;
        RingDeque<Write> writes;
        bool errored = false;
    };

    void pump(Flow& f) {
        std::uint8_t data[512];
        const sim::Time now = tb_->simulator().now();
        while (f.sender->sendFree() > 0) {
            const std::size_t chunk = std::min(sizeof data, f.sender->sendFree());
            patternBytesInto(f.offered, chunk, data);
            std::size_t n = 0;
            {
                HookScope h(Hook::kTcpSend);
                n = f.sender->send(BytesView(data, chunk));
            }
            if (n == 0) return;
            f.offered += n;
            for (; f.nextMessageEnd <= f.offered; f.nextMessageEnd += kMessageBytes)
                f.writes.push_back(Write{f.nextMessageEnd, now});
        }
    }

    void delivered(Flow& f, BytesView d) {
        f.meter->onData(d);
        const sim::Time now = tb_->simulator().now();
        while (!f.writes.empty() && f.writes.front().end <= f.meter->bytes()) {
            const Write w = f.writes.front();
            f.writes.pop_front();
            if (w.at < windowStart_) continue;
            m_.opLatencyS.push_back(sim::toSeconds(now - w.at));
            ++m_.attempted;
        }
    }

    std::uint64_t seed_;
    BulkSetup setup_;
    sim::Time windowStart_ = 0;
    std::unique_ptr<tcp::TcpStack> cloudStack_;
    std::vector<std::unique_ptr<Flow>> flows_;
    std::vector<mesh::Node*> motes_;
    SimMetrics m_;
};

/// Mesh nodes of city_bulk: 32 x 31. Node ids must stay below 1000, the
/// cloud host's id: route lookups key on the 16-bit short address, so at
/// 1,000+ nodes every ancestor of mesh node 1000 sends cloud-bound packets
/// toward that node instead of the border router, and most flows never
/// complete their handshake.
constexpr std::size_t kCityNodes = 992;

/// scenario::cityScaleSpec(): city-sized grid, 24 saturating mixed-direction
/// flows (MSS of 5 frames, 4-segment windows).
std::unique_ptr<Episode> makeCityBulk(std::uint64_t seed, double scale) {
    const scenario::ScenarioSpec spec = scenario::cityScaleSpec(30 * sim::kSecond, kCityNodes);
    const std::uint16_t mss = scenario::resolveMss(spec.workload);
    BulkSetup s;
    s.flows = spec.workload.flows;
    s.mote = scenario::moteTcpConfig(mss, spec.workload.windowSegments);
    s.server = scenario::serverTcpConfig(mss);
    s.maxPhase = 5 * sim::kSecond;
    s.warmup = 30 * sim::kSecond;
    s.window = scaled(900 * sim::kSecond, scale);
    return std::make_unique<BulkEpisode>(scenario::buildTestbed(spec.topology, seed), seed,
                                         std::move(s));
}

constexpr std::uint16_t kEsp32Mss = 1220;

/// 3-hop ESP32-class line (24 Mb/s air, 1,500 B frames, 4-frame MAC bursts),
/// 2% i.i.d. frame loss with link ARQ capped at one retry so losses reach
/// TCP; RFC 7323 scaling and 512 KiB receive autotuning at the cloud.
std::unique_ptr<Episode> makeEsp32LossyLine(std::uint64_t seed, double scale) {
    scenario::TopologySpec t;
    t.kind = scenario::TopologyKind::kLine;
    t.hops = 3;
    t.linkPreset = scenario::LinkPreset::kEsp32;
    t.macAggFrames = 4;
    t.linkLoss = 0.02;
    t.maxFrameRetries = 1;
    t.queueCapacityPackets = 64;
    auto tb = scenario::buildTestbed(t, seed);
    BulkSetup s;
    s.flows = {scenario::FlowSpec{scenario::senderMote(*tb, t).id(), true, 0}};
    s.mote = scenario::moteTcpConfig(kEsp32Mss, 32);
    s.mote.sendBufferBytes = 128 * 1024;
    s.mote.windowScaling = true;
    s.server = scenario::serverTcpConfig(kEsp32Mss);
    s.server.windowScaling = true;
    s.server.recvBufferMaxBytes = 512 * 1024;
    s.maxPhase = 1 * sim::kSecond;
    s.warmup = 10 * sim::kSecond;
    s.window = scaled(300 * sim::kSecond, scale);
    return std::make_unique<BulkEpisode>(std::move(tb), seed, std::move(s));
}

// --- sensor_fleet ----------------------------------------------------------------

constexpr std::size_t kFleetNodes = 256;
constexpr sim::Time kSampleInterval = 10 * sim::kSecond;

/// 256-node grid; the 64 nodes in odd rows and odd columns are sleepy leaves
/// (transport-hint polling) that each hold one persistent connection to the
/// cloud and send one unbatched 82 B reading every 10 s. Open loop: a
/// reading is due when the sensor generates it.
class SensorFleet : public Episode {
public:
    SensorFleet(std::uint64_t seed, double scale) : seed_(seed) {
        window_ = scaled(1800 * sim::kSecond, scale);
        harness::TestbedConfig cfg;
        cfg.seed = seed;
        // §7.1's retry delay, as in the anemometer study.
        cfg.nodeDefaults.macConfig.retryDelayMax = 40 * sim::kMillisecond;
        cfg.sleepyConfig.policy = mac::PollPolicy::kTransportHint;
        const std::size_t cols = 16;  // Testbed::grid lays 256 nodes out 16 x 16
        for (std::size_t i = 0; i < kFleetNodes; ++i) {
            if ((i % cols) % 2 == 1 && (i / cols) % 2 == 1)
                cfg.sleepyLeaves.push_back(phy::NodeId(i + 1));
        }
        leafIds_ = cfg.sleepyLeaves;
        tb_ = harness::Testbed::grid(kFleetNodes, cfg);
    }

    void open() override {
        sim::Simulator& sim = tb_->simulator();
        const std::uint16_t mss = scenario::mssForFrames(5);
        cloudStack_ = std::make_unique<tcp::TcpStack>(tb_->cloud());
        cloudStack_->listen(80, scenario::serverTcpConfig(mss), [this](tcp::TcpSocket& s) {
            ledger_.add(s, false);
            conns_.push_back(std::make_unique<Bytes>());
            Bytes* partial = conns_.back().get();
            s.setOnData([this, partial](BytesView d) {
                HookScope h(Hook::kOnData);
                consume(*partial, d);
            });
        });

        // The anemometer's mote profile (§9.2): 4-segment window, send buffer
        // that also holds ~40 readings of backlog, 2 s RTO floor.
        moteCfg_.mss = mss;
        moteCfg_.recvBufferBytes = 4 * std::size_t(mss);
        moteCfg_.sendBufferBytes = 4 * std::size_t(mss) + 40 * app::kReadingBytes;
        moteCfg_.cwndCapBytes = std::uint32_t(4 * mss);
        moteCfg_.minRto = 2 * sim::kSecond;
        app::SensorConfig sensorCfg;
        sensorCfg.sampleInterval = kSampleInterval;
        sensorCfg.batching = false;
        sensorCfg.queueCapacity = 64;

        // Reading phases spread over the sample interval; each leaf starts in
        // a seeded one of the warm-up's sample cycles.
        sim::Rng rng = scheduleRng(seed_);
        const std::vector<sim::Time> phases =
            spreadPhases(rng, leafIds_.size(), kSampleInterval);
        leafOf_.assign(kFleetNodes + 1, -1);
        for (std::size_t j = 0; j < leafIds_.size(); ++j) {
            auto leaf = std::make_unique<Leaf>();
            Leaf* l = leaf.get();
            l->node = tb_->findNode(leafIds_[j]);
            TCPLP_ASSERT(l->node != nullptr && l->node->sleepyMac() != nullptr);
            l->node->macLayer()->mutableConfig().sleepDuringRetryDelay = true;
            l->node->config().queueConfig.capacityPackets = 16;
            l->node->forwardQueue()->mutableConfig().capacityPackets = 16;
            l->node->start();
            l->stack = std::make_unique<tcp::TcpStack>(*l->node);
            l->socket = &l->stack->createSocket(moteCfg_);
            ledger_.add(*l->socket, true);
            l->transport = std::make_unique<app::TcpSensorTransport>(*l->socket, sensorCfg);
            l->sensor = std::make_unique<app::SensorNode>(sim, leafIds_[j], *l->transport,
                                                          sensorCfg);
            const auto cycle = sim::Time(rng.uniformInt(kWarmup / kSampleInterval));
            l->startAt = phases[j] + cycle * kSampleInterval;
            sim.schedule(l->startAt, [this, l] {
                HookScope h(Hook::kOnTimer);
                connect(*l);
                l->sensor->start();
            });
            leafOf_[leafIds_[j]] = int(j);
            motes_.push_back(l->node);
            leaves_.push_back(std::move(leaf));
        }
    }

    void run(Clock& clock) override {
        clock.runUntil(kWarmup);
        resetRadioWindows(motes_, tb_->simulator().now());
        clock.runUntil(kWarmup + window_);
        m_.radioDc = meanRadioDc(motes_, tb_->simulator().now());
        for (auto& l : leaves_) l->sensor->stop();
        clock.runUntil(kWarmup + window_ + kDrain);
    }

    SimMetrics finish() override {
        m_.rngDigest = tb_->simulator().rng().stateDigest();
        m_.frames = tb_->channel().framesTransmitted();
        m_.windowS = sim::toSeconds(window_);
        for (const auto& l : leaves_) {
            std::uint64_t due = 0;
            for (std::uint32_t seq = 0; seq < l->sensor->stats().generated; ++seq)
                if (inWindow(dueAt(*l, seq))) ++due;
            m_.attempted += due;
            m_.failed += due - l->deliveredInWindow;
            m_.queueDrops += l->sensor->stats().queueDrops;
            m_.bytesVerified += l->deliveredInWindow * app::kReadingBytes;
            m_.perFlowBytes.push_back(double(l->deliveredInWindow * app::kReadingBytes));
        }
        m_.rttMs = ledger_.senderRttMs();
        m_.liveSocketsMax = ledger_.maxLive();
        return m_;
    }

private:
    static constexpr sim::Time kWarmup = 60 * sim::kSecond;
    static constexpr sim::Time kDrain = 180 * sim::kSecond;

    struct Leaf {
        mesh::Node* node = nullptr;
        std::unique_ptr<tcp::TcpStack> stack;
        tcp::TcpSocket* socket = nullptr;
        std::unique_ptr<app::TcpSensorTransport> transport;
        std::unique_ptr<app::SensorNode> sensor;
        sim::Time startAt = 0;
        sim::Time connectAt = 0;
        std::vector<bool> seen;
        std::uint64_t deliveredInWindow = 0;
    };

    /// Opens (or, after an error, re-opens) the leaf's connection, like the
    /// anemometer deployment: a fresh socket 10 s after the old one died.
    void connect(Leaf& l) {
        Leaf* lp = &l;
        tcp::TcpSocket& s = *l.socket;
        l.transport->setSocket(s);
        s.setOnSendSpace([lp] {
            HookScope h(Hook::kOnSendSpace);
            lp->sensor->kick();
        });
        s.setOnConnected([this, lp] {
            HookScope h(Hook::kOnConnected);
            m_.handshakeMs.push_back(millis(tb_->simulator().now() - lp->connectAt));
            lp->sensor->kick();
        });
        s.setOnError([this, lp] {
            ++m_.connsFailed;
            tb_->simulator().schedule(10 * sim::kSecond, [this, lp] {
                HookScope h(Hook::kOnTimer);
                lp->socket = &lp->stack->createSocket(moteCfg_);
                ledger_.add(*lp->socket, true);
                connect(*lp);
            });
        });
        l.connectAt = tb_->simulator().now();
        ++m_.connsOpened;
        HookScope h(Hook::kTcpConnect);
        s.connect(tb_->cloud().address(), 80);
    }

    sim::Time dueAt(const Leaf& l, std::uint32_t seq) const {
        return l.startAt + sim::Time(seq + 1) * kSampleInterval;
    }
    bool inWindow(sim::Time t) const { return t >= kWarmup && t <= kWarmup + window_; }

    /// Parses one connection's stream into readings. Streams are parsed per
    /// connection: splicing partial readings across connections would pair
    /// one sensor's header with another's payload.
    void consume(Bytes& partial, BytesView d) {
        append(partial, d);
        std::size_t off = 0;
        const sim::Time now = tb_->simulator().now();
        for (; partial.size() - off >= app::kReadingBytes; off += app::kReadingBytes) {
            const BytesView r(partial.data() + off, app::kReadingBytes);
            const std::uint16_t node = getU16(r, 0);
            const std::uint32_t seq = getU32(r, 2);
            if (node >= leafOf_.size() || leafOf_[node] < 0) {
                m_.fail("reading from unknown node " + std::to_string(node));
                continue;
            }
            Leaf& l = *leaves_[std::size_t(leafOf_[node])];
            if (seq >= l.sensor->stats().generated) {
                m_.fail("reading never generated");
                continue;
            }
            if (!matchesPattern(std::size_t(seq) * app::kReadingBytes, r.subspan(6)))
                m_.fail("reading payload mismatch");
            if (l.seen.size() <= seq) l.seen.resize(seq + 1, false);
            if (l.seen[seq]) {
                m_.fail("duplicate reading");
                continue;
            }
            l.seen[seq] = true;
            const sim::Time due = dueAt(l, seq);
            if (!inWindow(due)) continue;
            m_.opLatencyS.push_back(sim::toSeconds(now - due));
            ++l.deliveredInWindow;
        }
        partial.erase(partial.begin(), partial.begin() + std::ptrdiff_t(off));
    }

    std::uint64_t seed_;
    sim::Time window_ = 0;
    std::vector<phy::NodeId> leafIds_;
    tcp::TcpConfig moteCfg_;
    std::unique_ptr<tcp::TcpStack> cloudStack_;
    std::vector<std::unique_ptr<Bytes>> conns_;
    std::vector<std::unique_ptr<Leaf>> leaves_;
    std::vector<int> leafOf_;  // node id -> index into leaves_, -1 if not a leaf
    std::vector<mesh::Node*> motes_;
    SimMetrics m_;
};

std::unique_ptr<Episode> makeSensorFleet(std::uint64_t seed, double scale) {
    return std::make_unique<SensorFleet>(seed, scale);
}

// --- gateway_churn ---------------------------------------------------------------

constexpr std::size_t kChurnNodes = 256;
constexpr std::size_t kReportBytes = 1024;
constexpr sim::Time kReportPeriod = 300 * sim::kSecond;

/// Report payload: [node u16][seq u32][pattern fill].
Bytes makeReport(std::uint16_t node, std::uint32_t seq) {
    Bytes r;
    r.reserve(kReportBytes);
    putU16(r, node);
    putU32(r, seq);
    append(r, patternBytes(std::size_t(seq) * kReportBytes, kReportBytes - r.size()));
    return r;
}

/// 256-node grid of routers. Every 300 s (seeded phase) each mote opens a
/// fresh connection to one cloud listener, sends a 1 KiB report and closes.
/// Open loop: a report is due at its scheduled time.
class GatewayChurn : public Episode {
public:
    GatewayChurn(std::uint64_t seed, double scale) : seed_(seed) {
        window_ = scaled(1800 * sim::kSecond, scale);
        harness::TestbedConfig cfg;
        cfg.seed = seed;
        cfg.nodeDefaults.macConfig.retryDelayMax = 40 * sim::kMillisecond;  // §7.1 fix
        tb_ = harness::Testbed::grid(kChurnNodes, cfg);
    }

    void open() override {
        const std::uint16_t mss = scenario::mssForFrames(5);
        moteCfg_ = scenario::moteTcpConfig(mss, 4);
        cloudStack_ = std::make_unique<tcp::TcpStack>(tb_->cloud());
        cloudStack_->listen(80, scenario::serverTcpConfig(mss),
                            [this](tcp::TcpSocket& s) { accept(s); });
        sim::Rng rng = scheduleRng(seed_);
        const std::vector<sim::Time> phases =
            spreadPhases(rng, tb_->nodeCount() - 1, kReportPeriod);
        // Node 0 is the border router; every other node is a reporting mote.
        for (std::size_t i = 1; i < tb_->nodeCount(); ++i) {
            Mote m;
            m.node = &tb_->node(i);
            m.stack = std::make_unique<tcp::TcpStack>(*m.node);
            motes_.push_back(std::move(m));
            const std::size_t idx = motes_.size() - 1;
            if (phases[idx] < window_)
                tb_->simulator().schedule(phases[idx], [this, idx] { reportDue(idx); });
        }
    }

    void run(Clock& clock) override {
        clock.runUntil(window_);
        std::vector<mesh::Node*> nodes;
        for (const Mote& m : motes_) nodes.push_back(m.node);
        m_.radioDc = meanRadioDc(nodes, tb_->simulator().now());
        clock.runUntil(window_ + kDrain);
    }

    SimMetrics finish() override {
        m_.rngDigest = tb_->simulator().rng().stateDigest();
        m_.frames = tb_->channel().framesTransmitted();
        m_.windowS = sim::toSeconds(window_);
        m_.attempted = reports_.size();
        for (const Report& r : reports_) {
            if (!r.delivered) ++m_.failed;
        }
        for (const Mote& m : motes_) {
            m_.bytesVerified += m.deliveredBytes;
            m_.perFlowBytes.push_back(double(m.deliveredBytes));
        }
        m_.rttMs = ledger_.senderRttMs();
        m_.liveSocketsMax = ledger_.maxLive();
        return m_;
    }

private:
    static constexpr sim::Time kDrain = 120 * sim::kSecond;

    struct Mote {
        mesh::Node* node = nullptr;
        std::unique_ptr<tcp::TcpStack> stack;
        std::vector<std::size_t> reports;  // seq -> index into reports_
        std::uint64_t deliveredBytes = 0;
    };
    struct Report {
        std::size_t mote = 0;
        std::uint32_t seq = 0;
        sim::Time due = 0;
        bool delivered = false;
    };
    struct Client {
        tcp::TcpSocket* socket = nullptr;
        std::size_t report = 0;
        std::size_t sent = 0;
        sim::Time connectAt = 0;
        bool reaped = false;
    };
    struct Server {
        tcp::TcpSocket* socket = nullptr;
        Bytes received;
        bool reaped = false;
    };

    void reportDue(std::size_t idx) {
        HookScope h(Hook::kOnTimer);
        sim::Simulator& sim = tb_->simulator();
        Mote& m = motes_[idx];
        reports_.push_back(Report{idx, std::uint32_t(m.reports.size()), sim.now(), false});
        m.reports.push_back(reports_.size() - 1);

        tcp::TcpSocket& s = m.stack->createSocket(moteCfg_);
        ledger_.add(s, true);
        clients_.push_back(Client{&s, reports_.size() - 1, 0, sim.now(), false});
        Client* c = &clients_.back();
        s.setOnConnected([this, c] {
            HookScope hc(Hook::kOnConnected);
            m_.handshakeMs.push_back(millis(tb_->simulator().now() - c->connectAt));
            pumpReport(*c);
        });
        s.setOnSendSpace([this, c] {
            HookScope hs(Hook::kOnSendSpace);
            pumpReport(*c);
        });
        s.setOnError([this, c] {
            if (reports_[c->report].delivered) {
                ++m_.teardownResets;
            } else {
                ++m_.connsFailed;
            }
            reap(c->reaped, *motes_[moteOf(*c)].stack, *c->socket);
        });
        s.setOnClosed([this, c] { reap(c->reaped, *motes_[moteOf(*c)].stack, *c->socket); });
        ++m_.connsOpened;
        {
            HookScope hc(Hook::kTcpConnect);
            s.connect(tb_->cloud().address(), 80);
        }
        if (sim.now() + kReportPeriod < window_)
            sim.schedule(kReportPeriod, [this, idx] { reportDue(idx); });
    }

    /// Hands the report to TCP as send-buffer space allows; closes once the
    /// last byte is in.
    void pumpReport(Client& c) {
        if (c.sent == kReportBytes) return;
        const Report& r = reports_[c.report];
        const Bytes report = makeReport(motes_[r.mote].node->id(), r.seq);
        while (c.sent < report.size()) {
            std::size_t n = 0;
            {
                HookScope h(Hook::kTcpSend);
                n = c.socket->send(BytesView(report.data() + c.sent, report.size() - c.sent));
            }
            if (n == 0) return;
            c.sent += n;
        }
        c.socket->close();
    }

    void accept(tcp::TcpSocket& s) {
        ledger_.add(s, false);
        servers_.push_back(Server{&s, {}, false});
        Server* sv = &servers_.back();
        s.setOnData([this, sv](BytesView d) {
            HookScope h(Hook::kOnData);
            receive(*sv, d);
        });
        s.setOnPeerFin([sv] { sv->socket->close(); });
        s.setOnClosed([this, sv] { reap(sv->reaped, *cloudStack_, *sv->socket); });
        s.setOnError([this, sv] { reap(sv->reaped, *cloudStack_, *sv->socket); });
    }

    void receive(Server& sv, BytesView d) {
        append(sv.received, d);
        if (sv.received.size() > kReportBytes) m_.fail("report longer than 1 KiB");
        if (sv.received.size() != kReportBytes) return;
        const BytesView r(sv.received);
        const std::size_t idx = std::size_t(getU16(r, 0)) - 2;  // grid ids start at 2
        const std::uint32_t seq = getU32(r, 2);
        if (idx >= motes_.size() || seq >= motes_[idx].reports.size()) {
            m_.fail("report with an unknown (node, seq)");
            return;
        }
        Report& report = reports_[motes_[idx].reports[seq]];
        if (!matchesPattern(std::size_t(seq) * kReportBytes, r.subspan(6)))
            m_.fail("report payload mismatch");
        if (report.delivered) {
            m_.fail("duplicate report");
            return;
        }
        report.delivered = true;
        motes_[idx].deliveredBytes += kReportBytes;
        m_.opLatencyS.push_back(sim::toSeconds(tb_->simulator().now() - report.due));
    }

    std::size_t moteOf(const Client& c) const { return reports_[c.report].mote; }

    /// Sockets are destroyed on a deferred event: the terminal callback runs
    /// inside the socket's own code.
    void reap(bool& reaped, tcp::TcpStack& stack, tcp::TcpSocket& s) {
        if (reaped) return;
        reaped = true;
        tcp::TcpStack* sp = &stack;
        tcp::TcpSocket* socket = &s;
        tb_->simulator().schedule(0, [this, sp, socket] {
            ledger_.retire(*socket);
            sp->destroySocket(*socket);
        });
    }

    std::uint64_t seed_;
    sim::Time window_ = 0;
    tcp::TcpConfig moteCfg_;
    std::unique_ptr<tcp::TcpStack> cloudStack_;
    std::vector<Mote> motes_;
    std::vector<Report> reports_;
    std::deque<Client> clients_;  // deque: callbacks hold element addresses
    std::deque<Server> servers_;
    SimMetrics m_;
};

std::unique_ptr<Episode> makeGatewayChurn(std::uint64_t seed, double scale) {
    return std::make_unique<GatewayChurn>(seed, scale);
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
    static const std::vector<WorkloadDef> defs = {
        {"city_bulk", {scenario::mssForFrames(5), phy::kMaxMacPayloadBytes}, makeCityBulk},
        {"esp32_lossy_line", {kEsp32Mss, 1500}, makeEsp32LossyLine},
        {"sensor_fleet", {app::kReadingBytes, phy::kMaxMacPayloadBytes}, makeSensorFleet},
        {"gateway_churn", {scenario::mssForFrames(5), phy::kMaxMacPayloadBytes},
         makeGatewayChurn},
    };
    return defs;
}

const WorkloadDef* findWorkload(const std::string& name) {
    for (const WorkloadDef& d : workloads()) {
        if (name == d.name) return &d;
    }
    return nullptr;
}

}  // namespace tcplp::bm
