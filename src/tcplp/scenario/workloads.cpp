#include "tcplp/scenario/workloads.hpp"

#include <algorithm>
#include <functional>

#include "tcplp/app/bulk.hpp"
#include "tcplp/common/assert.hpp"
#include "tcplp/harness/pipe.hpp"
#include "tcplp/lowpan/frag.hpp"
#include "tcplp/scenario/chaos.hpp"

namespace tcplp::scenario {

tcp::TcpConfig moteTcpConfig(std::uint16_t mss, std::size_t segments) {
    tcp::TcpConfig c;
    c.mss = mss;
    c.sendBufferBytes = segments * mss;
    c.recvBufferBytes = segments * mss;
    return c;
}

tcp::TcpConfig serverTcpConfig(std::uint16_t mss) {
    tcp::TcpConfig c;
    c.mss = mss;
    c.sendBufferBytes = 16384;
    c.recvBufferBytes = 16384;
    return c;
}

std::uint16_t mssForFrames(std::size_t frames) {
    for (std::uint16_t mss = 1400; mss >= 16; --mss) {
        tcp::Segment seg;
        seg.timestamps = tcp::Timestamps{1, 2};
        seg.payload = patternBytes(0, mss);
        ip6::Packet p;
        p.src = ip6::Address::meshLocal(10);
        p.dst = ip6::Address::cloud(1000);
        p.nextHeader = ip6::kProtoTcp;
        p.payload = seg.encode();
        if (lowpan::frameCountFor(p, 10, 1, phy::kMaxMacPayloadBytes) <= frames) return mss;
    }
    return 16;
}

std::uint16_t resolveMss(const WorkloadSpec& w) {
    if (w.mssFrames > 0) return mssForFrames(w.mssFrames);
    return w.mssBytes > 0 ? w.mssBytes : 462;
}

namespace {

/// ESP32-class high-rate link (the `link` axis): tens of Mb/s air rate,
/// Wi-Fi-style microsecond CSMA slots, a fast frame bus instead of the
/// 21 us/B mote SPI, 1.5 KiB frames, and a real (but finite) receive-memory
/// budget. The regime where BDP outgrows the 16-bit window.
void applyEsp32Preset(harness::TestbedConfig& cfg) {
    cfg.airBitsPerSecond = 24e6;
    cfg.busMicrosPerByte = 0.4;
    cfg.nodeDefaults.macConfig.backoffUnit = 9;  // Wi-Fi slot time
    cfg.nodeDefaults.macConfig.ccaTime = 4;
    cfg.nodeDefaults.macPayloadBudget = 1500;
    cfg.nodeDefaults.macConfig.maxPayloadBytes = 1500;
    cfg.nodeDefaults.tcpRecvBudgetBytes = 256 * 1024;
}

harness::TestbedConfig testbedConfigFor(const TopologySpec& t, std::uint64_t seed) {
    harness::TestbedConfig cfg;
    cfg.seed = seed;
    if (t.linkPreset == LinkPreset::kEsp32) applyEsp32Preset(cfg);
    if (t.macAggFrames) cfg.nodeDefaults.macConfig.aggFrames = *t.macAggFrames;
    if (t.tcpRecvBudgetBytes) cfg.nodeDefaults.tcpRecvBudgetBytes = *t.tcpRecvBudgetBytes;
    cfg.linkLoss = t.linkLoss;
    cfg.nodeSpacingMeters = t.spacingMeters;
    cfg.radioRangeMeters = t.rangeMeters;
    if (t.wiredOneWayDelay) cfg.wiredOneWayDelay = *t.wiredOneWayDelay;
    if (t.retryDelayMax) cfg.nodeDefaults.macConfig.retryDelayMax = *t.retryDelayMax;
    if (t.queueCapacityPackets)
        cfg.nodeDefaults.queueConfig.capacityPackets = *t.queueCapacityPackets;
    if (t.softwareCsma) cfg.nodeDefaults.macConfig.softwareCsma = *t.softwareCsma;
    if (t.maxFrameRetries) cfg.nodeDefaults.macConfig.maxFrameRetries = *t.maxFrameRetries;
    if (t.macPayloadBudget) cfg.nodeDefaults.macPayloadBudget = *t.macPayloadBudget;
    if (t.txProcessingDelay) cfg.nodeDefaults.txProcessingDelay = *t.txProcessingDelay;
    if (t.perHopReassembly) cfg.nodeDefaults.perHopReassembly = true;
    cfg.selfHealing = t.selfHealing;
    if (t.probeInterval) cfg.neighborDefaults.probeInterval = *t.probeInterval;
    if (t.redQueue) cfg.nodeDefaults.queueConfig.discipline = ip6::QueueDiscipline::kRed;
    if (t.ecnMarking) cfg.nodeDefaults.queueConfig.ecnMarking = true;
    return cfg;
}

/// Applies the workload's high-BDP knobs (RFC 7323 scaling, static buffer
/// override, receive autotuning) to a sender/receiver config pair.
/// `nodeBudgetBytes` is the receiving node's NodeConfig::tcpRecvBudgetBytes;
/// when set it clamps the workload-requested autotune budget. All three
/// knobs default off, leaving every legacy config byte-identical.
void applyHighBdp(const WorkloadSpec& w, tcp::TcpConfig& sender,
                  tcp::TcpConfig& receiver, std::size_t nodeBudgetBytes) {
    if (w.bdpBufferBytes > 0) {
        sender.sendBufferBytes = w.bdpBufferBytes;
        // With autotuning the receive buffer starts at its profile size and
        // earns its way up; without it the override opens it statically.
        if (w.recvAutotuneBudgetBytes == 0) receiver.recvBufferBytes = w.bdpBufferBytes;
    }
    if (w.windowScaling) sender.windowScaling = receiver.windowScaling = true;
    if (w.recvAutotuneBudgetBytes > 0) {
        std::size_t budget = w.recvAutotuneBudgetBytes;
        if (nodeBudgetBytes > 0) budget = std::min(budget, nodeBudgetBytes);
        receiver.recvBufferMaxBytes = budget;
    }
}

/// Streams the cwnd tracer's samples into the summary stats CcDynamics
/// wants. Installed only when TopologySpec::ccMetrics, chained after any
/// user-supplied tracer so the Fig. 7 escape hatch keeps working.
struct CwndProbe {
    std::uint32_t min = 0, max = 0;
    double sum = 0.0;
    std::uint64_t count = 0;

    void sample(std::uint32_t cwnd) {
        if (count == 0 || cwnd < min) min = cwnd;
        if (cwnd > max) max = cwnd;
        sum += double(cwnd);
        ++count;
    }

    /// Installs the probe on `s`, wrapping (and preserving) `inner`.
    void attach(tcp::TcpSocket& s, tcp::TcpSocket::CwndTracer inner) {
        s.setCwndTracer([this, inner = std::move(inner)](
                            sim::Time now, std::uint32_t cwnd, std::uint32_t ssthresh) {
            sample(cwnd);
            if (inner) inner(now, cwnd, ssthresh);
        });
    }

    /// Folds the probe's samples and the socket's final CC state into the
    /// row-facing summary. A run with no trace events (no cwnd change ever)
    /// degenerates to the socket's final window.
    CcDynamics finish(const tcp::TcpSocket& s) const {
        CcDynamics d;
        const std::uint32_t cwnd = s.tcb().cwnd;
        d.cwndMin = count ? min : cwnd;
        d.cwndMax = count ? max : cwnd;
        d.cwndMean = count ? sum / double(count) : double(cwnd);
        d.ssthreshFinal = s.tcb().ssthresh;
        d.lossCuts = s.ccStats().lossCuts;
        d.cutsSkipped = s.ccStats().cutsSkipped;
        return d;
    }
};

double jainIndex(const std::vector<double>& xs) {
    double sum = 0.0, sumSq = 0.0;
    for (double x : xs) {
        sum += x;
        sumSq += x * x;
    }
    if (sumSq <= 0.0) return 0.0;
    return sum * sum / (double(xs.size()) * sumSq);
}

}  // namespace

mesh::Node& senderMote(harness::Testbed& tb, const TopologySpec& t) {
    switch (t.kind) {
        case TopologyKind::kLine: return *tb.findNode(phy::NodeId(9 + t.hops));
        case TopologyKind::kPair: return tb.node(0);
        case TopologyKind::kGrid:
        case TopologyKind::kStar: return *tb.findNode(phy::NodeId(t.nodes));
        case TopologyKind::kOffice: return *tb.findNode(15);
        default: TCPLP_ASSERT(false && "no mote endpoint for this topology");
    }
    return tb.node(0);
}

ScenarioSpec officeMultiflowSpec(sim::Time duration) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kOffice;
    s.topology.retryDelayMax = sim::fromMillis(40);  // §7.1 fix
    s.topology.queueCapacityPackets = 16;
    s.workload.kind = WorkloadKind::kMultiFlow;
    s.workload.multiFlowDuration = duration;
    // Sensors 12/14 stream up; 13/15 receive bulk downlink (3-5 hops out).
    // Saturating transfers: all four flows contend for the full window.
    s.workload.flows = {
        {12, true, 2000000}, {13, false, 2000000}, {14, true, 2000000}, {15, false, 2000000}};
    return s;
}

ScenarioSpec grid200DenseSpec(sim::Time duration) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kGrid;
    s.topology.nodes = 200;
    s.topology.retryDelayMax = sim::fromMillis(40);  // §7.1 fix
    s.topology.queueCapacityPackets = 24;
    s.workload.kind = WorkloadKind::kMultiFlow;
    s.workload.multiFlowDuration = duration;
    // Flow endpoints spread across the grid (ids 2..200, 15 columns):
    // near, mid and far nodes, alternating direction, all saturating.
    s.workload.flows = {{31, true, 2000000},  {61, false, 2000000}, {91, true, 2000000},
                        {121, false, 2000000}, {151, true, 2000000}, {181, false, 2000000}};
    return s;
}

ScenarioSpec cityScaleSpec(sim::Time duration, std::size_t nodes) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kGrid;
    s.topology.nodes = nodes;
    s.topology.retryDelayMax = sim::fromMillis(40);  // §7.1 fix
    s.topology.queueCapacityPackets = 24;
    s.topology.datapathCounters = true;
    s.workload.kind = WorkloadKind::kMultiFlow;
    s.workload.multiFlowDuration = duration;
    // 24 saturating flows, endpoints spread evenly across the grid interior
    // (ids 2..nodes), alternating direction — dozens of concurrent TCP
    // connections criss-crossing a four-digit-node mesh on one core.
    for (std::size_t i = 0; i < 24; ++i) {
        FlowSpec f;
        f.node = phy::NodeId(2 + (i * (nodes - 2)) / 24);
        f.uplink = (i % 2) == 0;
        f.totalBytes = 2000000;
        s.workload.flows.push_back(f);
    }
    return s;
}

std::unique_ptr<harness::Testbed> buildTestbed(const TopologySpec& t,
                                               std::uint64_t seed) {
    const harness::TestbedConfig cfg = testbedConfigFor(t, seed);
    std::unique_ptr<harness::Testbed> tb;
    switch (t.kind) {
        case TopologyKind::kPair: tb = harness::Testbed::pair(cfg); break;
        case TopologyKind::kLine: tb = harness::Testbed::line(t.hops, cfg); break;
        case TopologyKind::kOffice: tb = harness::Testbed::office(cfg); break;
        case TopologyKind::kGrid: tb = harness::Testbed::grid(t.nodes, cfg); break;
        case TopologyKind::kStar: tb = harness::Testbed::star(t.nodes, cfg); break;
        case TopologyKind::kSleepyLeaf:
        case TopologyKind::kPipe:
            TCPLP_ASSERT(false && "topology built by its workload runner");
    }
    if (tb != nullptr && t.legacyDatapath) {
        // Pre-PR engine, for A/B speedup rows: seed-era linear-scan delivery
        // and every frame allocation straight from the heap. RNG-neutral —
        // see TopologySpec::legacyDatapath.
        tb->channel().setDeliveryMode(phy::Channel::DeliveryMode::kLinearScan);
        tb->simulator().framePool().uninstall();
    }
    return tb;
}

MeshRouteTotals meshRouteTotals(const harness::Testbed& tb) {
    MeshRouteTotals m;
    for (std::size_t i = 0; i < tb.nodeCount(); ++i) {
        const mesh::NodeStats& s = tb.node(i).stats();
        m.noRouteDrops += s.noRouteDrops;
        m.forwardDrops += s.forwardDrops;
        m.reroutes += s.reroutes;
        m.failbacks += s.failbacks;
        m.blackholeDrops += s.blackholeDrops;
    }
    return m;
}

BulkRunResult runBulk(const ScenarioSpec& spec, std::uint64_t seed) {
    const TopologySpec& t = spec.topology;
    const WorkloadSpec& w = spec.workload;
    auto tb = buildTestbed(t, seed);
    if (w.deliveryTap) tb->channel().setDeliveryTap(w.deliveryTap);
    const std::uint16_t mss = resolveMss(w);

    const bool pair = t.kind == TopologyKind::kPair;
    mesh::Node& mote = senderMote(*tb, t);
    mesh::Node& peer = pair ? tb->node(1) : tb->cloud();
    tcp::TcpStack moteStack(mote);
    tcp::TcpStack peerStack(peer);

    app::GoodputMeter meter(tb->simulator());
    tcp::TcpStack& senderStack = w.uplink || pair ? moteStack : peerStack;
    tcp::TcpStack& receiverStack = w.uplink || pair ? peerStack : moteStack;
    tcp::TcpConfig senderCfg, receiverCfg;
    if (pair) {
        // §6.3 node-to-node: mote profiles on both ends, receiver window
        // independently sized.
        senderCfg = moteTcpConfig(mss, w.windowSegments);
        receiverCfg = moteTcpConfig(
            mss, w.recvWindowSegments ? w.recvWindowSegments : w.windowSegments);
    } else {
        senderCfg = w.uplink ? moteTcpConfig(mss, w.windowSegments) : serverTcpConfig(mss);
        receiverCfg = w.uplink ? serverTcpConfig(mss) : moteTcpConfig(mss, w.windowSegments);
    }
    for (tcp::TcpConfig* c : {&senderCfg, &receiverCfg}) {
        c->sack = w.sack;
        c->delayedAck = w.delayedAck;
        c->timestamps = w.timestamps;
        c->dropOutOfOrder = w.dropOutOfOrder;
        c->ecn = w.ecn;
        c->cc = w.cc;
    }
    mesh::Node& receiverNode = w.uplink || pair ? peer : mote;
    applyHighBdp(w, senderCfg, receiverCfg, receiverNode.config().tcpRecvBudgetBytes);

    receiverStack.listen(80, receiverCfg, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& sender = senderStack.createSocket(senderCfg);
    CwndProbe probe;
    if (t.ccMetrics) {
        probe.attach(sender, w.cwndTracer);
    } else if (w.cwndTracer) {
        sender.setCwndTracer(w.cwndTracer);
    }
    app::BulkSender bulk(sender, w.totalBytes);
    const ip6::Address dst = w.uplink || pair ? peer.address() : mote.address();
    sender.connect(dst, 80);
    tb->simulator().runUntil(w.timeLimit);

    BulkRunResult r;
    r.goodputKbps = meter.goodputKbps();
    r.bytes = meter.bytes();
    r.contentOk = meter.contentOk();
    r.rttMedianMs = sender.stats().rttSamples.median();
    r.framesTransmitted = tb->channel().framesTransmitted();
    r.timeouts = sender.stats().timeouts;
    r.fastRetransmissions = sender.stats().fastRetransmissions;
    const auto sent = sender.stats().segsSent;
    const auto rexmit = sender.stats().retransmissions;
    r.segmentLoss = sent > 0 ? double(rexmit) / double(sent) : 0.0;
    r.mesh = meshRouteTotals(*tb);
    if (t.ccMetrics) r.cc = probe.finish(sender);
    r.rngDigest = tb->simulator().rng().stateDigest();
    return r;
}

SleepyRunResult runSleepyBulk(const ScenarioSpec& spec, std::uint64_t seed) {
    const WorkloadSpec& w = spec.workload;
    // Appendix C rig: one duty-cycled leaf on the border router. Built
    // inline (not via buildTestbed) because the leaf's sleepy policy is a
    // workload knob; construction order matches the pre-refactor path.
    harness::TestbedConfig cfg;
    cfg.seed = seed;
    auto tb = std::make_unique<harness::Testbed>(cfg);

    mesh::NodeConfig rc = cfg.nodeDefaults;
    tb->addBorderRouterAndCloud(1, {0.0, 0.0}, rc);

    mesh::NodeConfig lc = cfg.nodeDefaults;
    lc.role = mesh::Role::kLeaf;
    lc.sleepyConfig = w.sleepy;
    lc.macConfig.sleepDuringRetryDelay = true;
    mesh::Node& leaf = tb->addNode(10, {10.0, 0.0}, lc);
    leaf.setParent(1);
    tb->borderRouter().adoptSleepyChild(10);
    tb->borderRouter().addRoute(10, 10);
    leaf.start();
    if (w.deliveryTap) tb->channel().setDeliveryTap(w.deliveryTap);

    const std::uint16_t mss = resolveMss(w);
    tcp::TcpStack leafStack(leaf);
    tcp::TcpStack cloudStack(tb->cloud());

    app::GoodputMeter meter(tb->simulator());
    tcp::TcpStack& senderStack = w.uplink ? leafStack : cloudStack;
    tcp::TcpStack& receiverStack = w.uplink ? cloudStack : leafStack;
    tcp::TcpConfig senderCfg =
        w.uplink ? moteTcpConfig(mss, w.windowSegments) : serverTcpConfig(mss);
    tcp::TcpConfig receiverCfg =
        w.uplink ? serverTcpConfig(mss) : moteTcpConfig(mss, w.windowSegments);
    senderCfg.cc = receiverCfg.cc = w.cc;

    receiverStack.listen(80, receiverCfg, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& sender = senderStack.createSocket(senderCfg);
    app::BulkSender bulk(sender, w.totalBytes);
    sender.connect(w.uplink ? tb->cloud().address() : leaf.address(), 80);
    tb->simulator().runUntil(w.timeLimit);

    SleepyRunResult r;
    r.goodputKbps = meter.goodputKbps();
    r.bytes = meter.bytes();
    r.rttMs = sender.stats().rttSamples;

    if (w.idleTail > 0) {
        phy::Radio* radio = leaf.radio();
        radio->energy().resetWindow(radio->state(), tb->simulator().now());
        tb->simulator().runUntil(tb->simulator().now() + w.idleTail);
        r.idleRadioDc =
            radio->energy().radioDutyCycle(radio->state(), tb->simulator().now());
    }
    r.rngDigest = tb->simulator().rng().stateDigest();
    return r;
}

TwoFlowResult runTwoFlow(const ScenarioSpec& spec, std::uint64_t seed) {
    const TopologySpec& t = spec.topology;
    const WorkloadSpec& w = spec.workload;
    const std::size_t hops = t.hops;
    auto tb = buildTestbed(t, seed);
    if (w.deliveryTap) tb->channel().setDeliveryTap(w.deliveryTap);

    // Second source: a sibling of the last node, attached to the same relay
    // (or to the border router for one hop) — the Appendix A setup.
    const phy::NodeId firstSrc = phy::NodeId(9 + hops);
    const phy::NodeId attach = hops == 1 ? 1 : phy::NodeId(9 + hops - 1);
    mesh::NodeConfig nc = testbedConfigFor(t, seed).nodeDefaults;
    nc.role = mesh::Role::kRouter;
    mesh::Node* relay = tb->findNode(attach);
    mesh::Node& second =
        tb->addNode(99, {relay->radio()->position().x + 8.0,
                         relay->radio()->position().y + 6.0},
                    nc);
    second.setDefaultRoute(attach);
    relay->addRoute(99, 99);
    tb->borderRouter().addRoute(99, hops == 1 ? phy::NodeId(99) : phy::NodeId(10));
    for (std::size_t i = 1; i + 1 < hops; ++i)
        tb->findNode(phy::NodeId(9 + i))->addRoute(99, phy::NodeId(9 + i + 1));
    if (hops > 1) tb->findNode(attach)->addRoute(99, 99);

    const std::uint16_t mss = resolveMss(w);
    tcp::TcpConfig moteCfg = moteTcpConfig(mss, w.windowSegments);
    moteCfg.ecn = w.ecn;
    moteCfg.cc = w.cc;
    tcp::TcpConfig servCfg = serverTcpConfig(mss);
    servCfg.ecn = w.ecn;
    servCfg.cc = w.cc;

    tcp::TcpStack stackA(*tb->findNode(firstSrc));
    tcp::TcpStack stackB(second);
    tcp::TcpStack cloud(tb->cloud());

    app::GoodputMeter meterA(tb->simulator()), meterB(tb->simulator());
    cloud.listen(80, servCfg, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meterA.onData(d); });
    });
    cloud.listen(81, servCfg, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meterB.onData(d); });
    });

    tcp::TcpSocket& a = stackA.createSocket(moteCfg);
    tcp::TcpSocket& b = stackB.createSocket(moteCfg);
    CwndProbe probeA, probeB;
    if (t.ccMetrics) {
        probeA.attach(a, {});
        probeB.attach(b, {});
    }
    app::BulkSender sendA(a, w.totalBytes);
    app::BulkSender sendB(b, w.totalBytes);
    a.connect(tb->cloud().address(), 80);
    b.connect(tb->cloud().address(), 81);
    tb->simulator().runUntil(w.timeLimit);

    TwoFlowResult r;
    const double secs = sim::toSeconds(w.timeLimit);
    r.goodputA = double(meterA.bytes()) * 8.0 / 1000.0 / secs;
    r.goodputB = double(meterB.bytes()) * 8.0 / 1000.0 / secs;
    r.rttA = a.stats().rttSamples.median();
    r.rttB = b.stats().rttSamples.median();
    r.lossA = a.stats().segsSent ? 100.0 * double(a.stats().retransmissions) /
                                       double(a.stats().segsSent)
                                 : 0.0;
    r.lossB = b.stats().segsSent ? 100.0 * double(b.stats().retransmissions) /
                                       double(b.stats().segsSent)
                                 : 0.0;
    if (t.ccMetrics) {
        r.ccA = probeA.finish(a);
        r.ccB = probeB.finish(b);
    }
    r.rngDigest = tb->simulator().rng().stateDigest();
    return r;
}

MultiFlowResult runMultiFlow(const ScenarioSpec& spec, std::uint64_t seed) {
    const WorkloadSpec& w = spec.workload;
    TCPLP_ASSERT(!w.flows.empty() && "kMultiFlow needs explicit FlowSpecs");
    // Process-wide counter baselines (SmallFn / PacketBuffer statics), taken
    // before the testbed exists so the deltas cover the whole run.
    const std::uint64_t smallFnBase = sim::SmallFn::heapFallbacks();
    const std::uint64_t prependBase = PacketBuffer::stats().prependFallbacks;
    auto tb = buildTestbed(spec.topology, seed);
    if (w.deliveryTap) tb->channel().setDeliveryTap(w.deliveryTap);
    const std::uint16_t mss = resolveMss(w);

    struct Rig {
        std::unique_ptr<tcp::TcpStack> moteStack;
        std::unique_ptr<app::GoodputMeter> meter;
        std::unique_ptr<app::BulkSender> bulk;
        tcp::TcpSocket* sender = nullptr;
    };
    tcp::TcpStack cloudStack(tb->cloud());
    std::vector<Rig> rigs;
    rigs.reserve(w.flows.size());

    for (std::size_t i = 0; i < w.flows.size(); ++i) {
        const FlowSpec& f = w.flows[i];
        mesh::Node* node = tb->findNode(f.node);
        TCPLP_ASSERT(node != nullptr && "FlowSpec names an unknown node");
        Rig rig;
        rig.moteStack = std::make_unique<tcp::TcpStack>(*node);
        rig.meter = std::make_unique<app::GoodputMeter>(tb->simulator());
        const std::uint16_t port = std::uint16_t(80 + i);
        tcp::TcpStack& senderStack = f.uplink ? *rig.moteStack : cloudStack;
        tcp::TcpStack& receiverStack = f.uplink ? cloudStack : *rig.moteStack;
        tcp::TcpConfig senderCfg =
            f.uplink ? moteTcpConfig(mss, w.windowSegments) : serverTcpConfig(mss);
        tcp::TcpConfig receiverCfg =
            f.uplink ? serverTcpConfig(mss) : moteTcpConfig(mss, w.windowSegments);
        senderCfg.cc = receiverCfg.cc = w.cc;
        app::GoodputMeter* meter = rig.meter.get();
        receiverStack.listen(port, receiverCfg, [meter](tcp::TcpSocket& s) {
            s.setOnData([meter](BytesView d) { meter->onData(d); });
            s.setOnPeerFin([&s] { s.close(); });
        });
        rig.sender = &senderStack.createSocket(senderCfg);
        rig.bulk = std::make_unique<app::BulkSender>(*rig.sender, f.totalBytes);
        const ip6::Address dst = f.uplink ? tb->cloud().address() : node->address();
        rig.sender->connect(dst, port);
        rigs.push_back(std::move(rig));
    }

    tb->simulator().runUntil(w.multiFlowDuration);

    MultiFlowResult r;
    const double secs = sim::toSeconds(w.multiFlowDuration);
    std::vector<double> goodputs;
    for (std::size_t i = 0; i < w.flows.size(); ++i) {
        MultiFlowResult::Flow flow;
        flow.node = w.flows[i].node;
        flow.uplink = w.flows[i].uplink;
        flow.goodputKbps = double(rigs[i].meter->bytes()) * 8.0 / 1000.0 / secs;
        flow.rttMedianMs = rigs[i].sender->stats().rttSamples.median();
        r.aggregateKbps += flow.goodputKbps;
        goodputs.push_back(flow.goodputKbps);
        r.flows.push_back(flow);
    }
    r.jainFairness = jainIndex(goodputs);
    r.framesTransmitted = tb->channel().framesTransmitted();
    r.listenerVisits = tb->channel().channelStats().listenerVisits;
    const SlabPoolStats& pool = tb->simulator().framePool().stats();
    r.datapath.poolRecycled = pool.recycled;
    r.datapath.poolFresh = pool.fresh;
    r.datapath.poolBytesRecycled = pool.bytesRecycled;
    r.datapath.poolBytesFresh = pool.bytesFresh;
    r.datapath.smallFnHeapFallbacks = sim::SmallFn::heapFallbacks() - smallFnBase;
    r.datapath.prependFallbacks = PacketBuffer::stats().prependFallbacks - prependBase;
    r.datapath.neighborRebuilds = tb->channel().channelStats().neighborRebuilds;
    r.datapath.neighborRevalidations = tb->channel().channelStats().neighborRevalidations;
    r.rngDigest = tb->simulator().rng().stateDigest();
    return r;
}

BulkRunResult runEmbeddedBulk(const ScenarioSpec& spec, std::uint64_t seed) {
    const TopologySpec& t = spec.topology;
    const WorkloadSpec& w = spec.workload;
    auto tb = buildTestbed(t, seed);
    if (w.deliveryTap) tb->channel().setDeliveryTap(w.deliveryTap);

    mesh::Node& mote = *tb->findNode(phy::NodeId(9 + t.hops));
    transport::EmbeddedTcpConfig ec;
    ec.profile = w.embeddedProfile;
    ec.mss = w.embeddedMss;
    transport::EmbeddedTcpSocket client(mote, ec);
    tcp::TcpStack cloudStack(tb->cloud());

    app::GoodputMeter meter(tb->simulator());
    cloudStack.listen(80, serverTcpConfig(), [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
    });
    app::EmbeddedBulkSender sender(client, w.totalBytes);
    client.connect(tb->cloud().address(), 80);
    // The stop-and-wait stack has no send-space callback; poll it.
    std::function<void()> poll = [&] {
        sender.pump();
        if (sender.offered() < w.totalBytes || client.backlog() > 0)
            tb->simulator().schedule(sim::kSecond, poll);
    };
    tb->simulator().schedule(sim::kSecond, poll);
    tb->simulator().runUntil(w.timeLimit);

    BulkRunResult r;
    r.goodputKbps = meter.goodputKbps();
    r.bytes = meter.bytes();
    r.contentOk = meter.contentOk();
    r.framesTransmitted = tb->channel().framesTransmitted();
    r.mesh = meshRouteTotals(*tb);
    r.rngDigest = tb->simulator().rng().stateDigest();
    return r;
}

PipeRunResult runPipeBulk(const ScenarioSpec& spec, std::uint64_t seed) {
    const TopologySpec& t = spec.topology;
    const WorkloadSpec& w = spec.workload;
    sim::Simulator simulator(seed);
    harness::PipeConfig pc;
    pc.oneWayDelay = t.pipeOneWayDelay;
    pc.bandwidthBps = t.pipeBandwidthBps;
    pc.lossAtoB = t.pipeLossForward;
    pc.lossBtoA = t.pipeLossReverse;
    harness::Pipe pipe(simulator, pc);
    tcp::TcpStack clientStack(pipe.a());
    tcp::TcpStack serverStack(pipe.b());

    app::GoodputMeter meter(simulator);
    tcp::TcpConfig clientCfg = moteTcpConfig();
    tcp::TcpConfig servCfg = serverTcpConfig();
    // Legacy pipe runs ignore the MSS knobs (the §8 model pins 462); an
    // explicit mssBytes with the frame-count sweep disabled opts in — the
    // bdp sweeps use wire-sized segments to keep event counts sane.
    if (w.mssFrames == 0 && w.mssBytes > 0) {
        clientCfg = moteTcpConfig(w.mssBytes);
        servCfg = serverTcpConfig(w.mssBytes);
    }
    // No mesh node behind a pipe endpoint: the workload budget applies
    // unclamped (the bdp scenarios model an unconstrained wired receiver).
    applyHighBdp(w, clientCfg, servCfg, 0);
    serverStack.listen(80, servCfg, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& client = clientStack.createSocket(clientCfg);
    app::BulkSender sender(client, w.totalBytes);
    client.connect(pipe.b().address(), 80);
    simulator.runUntil(w.timeLimit);

    PipeRunResult r;
    r.goodputKbps = meter.goodputKbps();
    r.rttSeconds = client.stats().rttSamples.median() / 1000.0;
    const auto sent = client.stats().segsSent;
    r.lossMeasured = sent ? double(client.stats().retransmissions) / double(sent) : 0.0;
    r.rngDigest = simulator.rng().stateDigest();
    return r;
}

harness::AnemometerResult runAnemometerSpec(const ScenarioSpec& spec,
                                            std::uint64_t seed) {
    harness::AnemometerOptions o = spec.workload.anemometer;
    o.seed = seed;
    o.cc = spec.workload.cc;
    if (spec.workload.deliveryTap) o.deliveryTap = spec.workload.deliveryTap;
    return harness::runAnemometer(o);
}

MetricRow runScenario(const ScenarioSpec& spec, std::uint64_t seed) {
    MetricRow row;
    // Chaos scenarios route their bulk workload through the fault-aware
    // runner even at the fault=0 baseline, so every row of the `fault` axis
    // shares the chaos schema (reconnects, recover_s, ...).
    if (spec.fault.chaos && spec.workload.kind == WorkloadKind::kBulk &&
        spec.topology.kind != TopologyKind::kPipe) {
        return chaosBulkRow(spec, seed);
    }
    if (spec.topology.kind == TopologyKind::kPipe) {
        const PipeRunResult r = runPipeBulk(spec, seed);
        row.set("goodput_kbps", r.goodputKbps)
            .set("rtt_s", r.rttSeconds)
            .set("loss_measured", r.lossMeasured)
            .set("rng_digest", r.rngDigest);
        return row;
    }
    switch (spec.workload.kind) {
        case WorkloadKind::kBulk:
        case WorkloadKind::kEmbeddedBulk: {
            const BulkRunResult r = spec.workload.kind == WorkloadKind::kBulk
                                        ? runBulk(spec, seed)
                                        : runEmbeddedBulk(spec, seed);
            row.set("goodput_kbps", r.goodputKbps)
                .set("rtt_median_ms", r.rttMedianMs)
                .set("segment_loss", r.segmentLoss)
                .set("frames_tx", r.framesTransmitted)
                .set("timeouts", r.timeouts)
                .set("fast_rexmits", r.fastRetransmissions)
                .set("bytes", r.bytes)
                .set("content_ok", r.contentOk);
            // Routing-repair keys exist only under self-healing, so legacy
            // scenario rows (and their golden artifacts) are unchanged.
            if (spec.topology.selfHealing) {
                row.set("no_route_drops", r.mesh.noRouteDrops)
                    .set("forward_drops", r.mesh.forwardDrops)
                    .set("reroutes", r.mesh.reroutes)
                    .set("failbacks", r.mesh.failbacks)
                    .set("blackhole_drops", r.mesh.blackholeDrops);
            }
            // CC-dynamics keys exist only when the spec opts in, so legacy
            // scenario rows (and their golden artifacts) are unchanged.
            if (spec.topology.ccMetrics) {
                row.set("cc_name", tcp::ccName(spec.workload.cc))
                    .set("cwnd_min", std::uint64_t(r.cc.cwndMin))
                    .set("cwnd_max", std::uint64_t(r.cc.cwndMax))
                    .set("cwnd_mean", r.cc.cwndMean)
                    .set("ssthresh_final", std::uint64_t(r.cc.ssthreshFinal))
                    .set("loss_cuts", r.cc.lossCuts)
                    .set("cuts_skipped", r.cc.cutsSkipped);
            }
            row.set("rng_digest", r.rngDigest);
            break;
        }
        case WorkloadKind::kTwoFlow: {
            const TwoFlowResult r = runTwoFlow(spec, seed);
            const double fairness = std::min(r.goodputA, r.goodputB) /
                                    std::max(1e-9, std::max(r.goodputA, r.goodputB));
            row.set("goodput_a_kbps", r.goodputA)
                .set("goodput_b_kbps", r.goodputB)
                .set("fairness", fairness)
                .set("rtt_a_ms", r.rttA)
                .set("rtt_b_ms", r.rttB)
                .set("rexmit_a_pct", r.lossA)
                .set("rexmit_b_pct", r.lossB);
            if (spec.topology.ccMetrics) {
                row.set("cc_name", tcp::ccName(spec.workload.cc));
                const struct {
                    const char* suffix;
                    const CcDynamics* d;
                } sides[] = {{"_a", &r.ccA}, {"_b", &r.ccB}};
                for (const auto& side : sides) {
                    const std::string s = side.suffix;
                    row.set("cwnd_min" + s, std::uint64_t(side.d->cwndMin))
                        .set("cwnd_max" + s, std::uint64_t(side.d->cwndMax))
                        .set("cwnd_mean" + s, side.d->cwndMean)
                        .set("ssthresh_final" + s, std::uint64_t(side.d->ssthreshFinal))
                        .set("loss_cuts" + s, side.d->lossCuts)
                        .set("cuts_skipped" + s, side.d->cutsSkipped);
                }
            }
            row.set("rng_digest", r.rngDigest);
            break;
        }
        case WorkloadKind::kMultiFlow: {
            const MultiFlowResult r = runMultiFlow(spec, seed);
            for (std::size_t i = 0; i < r.flows.size(); ++i) {
                const std::string p = "flow" + std::to_string(i);
                row.set(p + "_node", std::uint64_t(r.flows[i].node))
                    .set(p + "_dir", r.flows[i].uplink ? "up" : "down")
                    .set(p + "_kbps", r.flows[i].goodputKbps)
                    .set(p + "_rtt_ms", r.flows[i].rttMedianMs);
            }
            row.set("aggregate_kbps", r.aggregateKbps)
                .set("jain_fairness", r.jainFairness)
                .set("frames_tx", r.framesTransmitted)
                .set("listener_visits", r.listenerVisits);
            // Datapath keys exist only when the spec opts in, so legacy
            // scenario rows (and their golden artifacts) are unchanged.
            if (spec.topology.datapathCounters) {
                const DatapathCounters& d = r.datapath;
                row.set("pool_recycled", d.poolRecycled)
                    .set("pool_fresh", d.poolFresh)
                    .set("pool_bytes_recycled", d.poolBytesRecycled)
                    .set("pool_bytes_fresh", d.poolBytesFresh)
                    .set("smallfn_heap_fallbacks", d.smallFnHeapFallbacks)
                    .set("prepend_fallbacks", d.prependFallbacks)
                    .set("neighbor_rebuilds", d.neighborRebuilds)
                    .set("neighbor_revalidations", d.neighborRevalidations);
            }
            row.set("rng_digest", r.rngDigest);
            break;
        }
        case WorkloadKind::kSleepyBulk: {
            const SleepyRunResult r = runSleepyBulk(spec, seed);
            row.set("goodput_kbps", r.goodputKbps)
                .set("bytes", r.bytes)
                .set("rtt_n", r.rttMs.count())
                .set("rtt_median_ms", r.rttMs.median())
                .set("rtt_p10_ms", r.rttMs.percentile(10))
                .set("rtt_p90_ms", r.rttMs.percentile(90))
                .set("rtt_max_ms", r.rttMs.max())
                .set("idle_radio_dc", r.idleRadioDc)
                .set("rng_digest", r.rngDigest);
            break;
        }
        case WorkloadKind::kAnemometer: {
            const harness::AnemometerResult r = runAnemometerSpec(spec, seed);
            row.set("generated", r.generated)
                .set("delivered", r.delivered)
                .set("reliability", r.reliability)
                .set("radio_dc", r.radioDutyCycle)
                .set("cpu_dc", r.cpuDutyCycle)
                .set("rexmits", r.transportRetransmissions)
                .set("tcp_rtos", r.tcpTimeouts)
                .set("rng_digest", r.rngDigest);
            if (!r.hourlyRadioDutyCycle.empty()) {
                std::string hourly;
                for (double v : r.hourlyRadioDutyCycle) {
                    if (!hourly.empty()) hourly += ',';
                    hourly += formatDouble(v);
                }
                row.set("hourly_radio_dc", hourly);
            }
            break;
        }
    }
    return row;
}

}  // namespace tcplp::scenario
