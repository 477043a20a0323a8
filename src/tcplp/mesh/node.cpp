#include "tcplp/mesh/node.hpp"

#include "tcplp/common/assert.hpp"
#include "tcplp/common/log.hpp"

namespace tcplp::mesh {

void WiredLink::transfer(const Node* from, ip6::Packet packet) {
    Node* to = (from == a_) ? b_ : a_;
    TCPLP_ASSERT(to != nullptr);
    if (lossRate_ > 0.0 && simulator_.rng().chance(lossRate_)) {
        ++dropped_;
        return;
    }
    inFlight_.push_back(InFlight{to, std::move(packet)});
    simulator_.schedule(delay_, [this] {
        InFlight entry = std::move(inFlight_.front());
        inFlight_.pop_front();
        entry.to->wiredInput(std::move(entry.packet));
    });
}

Node::Node(sim::Simulator& simulator, phy::Channel* channel, NodeId id, phy::Position pos,
           NodeConfig config)
    : simulator_(simulator), id_(id), config_(std::move(config)) {
    address_ = (config_.role == Role::kCloudHost) ? ip6::Address::cloud(id)
                                                  : ip6::Address::meshLocal(id);
    if (config_.role != Role::kCloudHost) {
        TCPLP_ASSERT(channel != nullptr);
        arena_ = std::make_unique<BufferArena>(config_.reassemblyArenaBytes);
        radio_ = std::make_unique<phy::Radio>(simulator, *channel, id, pos);
        mac_ = std::make_unique<mac::CsmaMac>(*radio_, config_.macConfig);
        neighbors_ = std::make_unique<NeighborTable>(simulator, config_.neighbor);
        if (config_.neighbor.enabled) {
            mac_->setTxOutcomeCallback([this](NodeId dst, bool acked) {
                neighbors_->onTxOutcome(dst, acked);
            });
            neighbors_->setProbeSender([this](NodeId n) { sendProbe(n); });
            routes_.setLiveness([this](NodeId n) { return neighbors_->isLive(n); });
        }
        reassembler_ = std::make_unique<lowpan::Reassembler>(
            simulator,
            [this](ip6::Packet p, ip6::ShortAddr src) {
                handleAssembled(std::move(p), src);
            },
            5 * sim::kSecond, arena_.get(), config_.reassemblySlots);
        queue_ = std::make_unique<ip6::RedQueue>(simulator, config_.queueConfig);
        if (config_.role == Role::kLeaf) {
            // Parent is set later via setParent(); construct lazily there.
        } else {
            mac_->setReceiveCallback(
                [this](NodeId src, const PacketBuffer& payload) { macInput(src, payload); });
        }
    }
}

Node::~Node() = default;

const NodeStats& Node::stats() const {
    // Refresh the reassembly-pressure fields from the live counters so
    // readers see the memory model without reaching into sublayers.
    if (reassembler_) {
        stats_.reassemblyOverflowDrops =
            reassembler_->stats().arenaDrops + reassembler_->stats().slotDrops;
    }
    if (arena_) stats_.reassemblyArenaHighWater = arena_->stats().highWaterBytes;
    stats_.reroutes = routes_.reroutes();
    stats_.failbacks = routes_.failbacks();
    stats_.blackholeDrops = routes_.blackholeDrops();
    return stats_;
}

void Node::setParent(NodeId parent) {
    TCPLP_ASSERT(config_.role == Role::kLeaf);
    parent_ = parent;
    setDefaultRoute(parent);
    if (!sleepy_) {
        sleepy_ = std::make_unique<mac::SleepyMac>(*mac_, parent, config_.sleepyConfig);
        sleepy_->setReceiveCallback(
            [this](NodeId src, const PacketBuffer& payload) { macInput(src, payload); });
    }
}

void Node::start() {
    if (sleepy_) sleepy_->start();
}

void Node::reboot(sim::Time downtime) {
    TCPLP_ASSERT(config_.role != Role::kCloudHost);
    if (failed_) return;  // a permanently failed node never power-cycles
    ++stats_.reboots;
    ++rebootEpoch_;  // invalidates closures scheduled before the crash
    const bool wasDown = down_;
    down_ = true;

    // Volatile state dies with the power rail. Order matters: the radio
    // first (the MAC ignores a transmit completion outside its transmit
    // state), then MAC queues, then the reassembly partials (returning their arena
    // chunks), then this node's own forwarding state.
    if (radio_) radio_->setPowered(false);
    if (mac_) mac_->reset();
    if (reassembler_) reassembler_->clear();
    if (queue_) queue_->clear();
    txFrames_.clear();
    txIndex_ = 0;
    txTagActive_ = false;
    draining_ = false;
    fragRoutes_.clear();
    // Liveness verdicts and failover selections are volatile; installed
    // routes (configuration) survive.
    if (neighbors_) neighbors_->reset();
    routes_.resetSelections();

    if (!wasDown)
        for (auto& listener : rebootListeners_) listener(true);

    simulator_.schedule(downtime, [this, epoch = rebootEpoch_] {
        if (epoch != rebootEpoch_) return;  // superseded by a later reboot
        down_ = false;
        if (radio_) radio_->setPowered(true);
        if (sleepy_) sleepy_->start();  // leaf resumes its poll loop
        for (auto& listener : rebootListeners_) listener(false);
    });
}

void Node::addRoute(ip6::ShortAddr dst, NodeId nextHop) { routes_.setRoute(dst, nextHop); }
void Node::addRouteAlternate(ip6::ShortAddr dst, NodeId nextHop) {
    routes_.addAlternate(dst, nextHop);
}
void Node::setDefaultRoute(NodeId nextHop) { routes_.setDefaultRoute(nextHop); }
void Node::addDefaultRouteAlternate(NodeId nextHop) {
    routes_.addDefaultAlternate(nextHop);
}

void Node::failPermanently() {
    TCPLP_ASSERT(config_.role != Role::kCloudHost);
    if (failed_) return;
    failed_ = true;
    ++rebootEpoch_;  // strands any scheduled recovery / delayed sends
    const bool wasDown = down_;
    down_ = true;
    if (radio_) radio_->setPowered(false);
    if (mac_) mac_->reset();
    if (reassembler_) reassembler_->clear();
    if (queue_) queue_->clear();
    txFrames_.clear();
    txIndex_ = 0;
    txTagActive_ = false;
    draining_ = false;
    fragRoutes_.clear();
    if (neighbors_) neighbors_->reset();
    routes_.resetSelections();
    if (!wasDown)
        for (auto& listener : rebootListeners_) listener(true);
    // No recovery is scheduled: the node is gone for good.
}

void Node::attachWired(WiredLink* link) { wired_ = link; }

void Node::adoptSleepyChild(NodeId child) {
    TCPLP_ASSERT(mac_);
    mac_->registerSleepyChild(child);
}

void Node::registerProtocol(std::uint8_t nextHeader, ProtocolHandler handler) {
    protocols_[nextHeader] = std::move(handler);
}

void Node::setExpectingResponse(bool expecting) {
    if (sleepy_) sleepy_->setExpectingResponse(expecting);
}

RouteLookupStatus Node::lookupRoute(const ip6::Address& dst, NodeId& nextHop) {
    return routes_.lookup(dst.shortAddr(), nextHop);
}

void Node::sendPacket(ip6::Packet packet) {
    if (down_) return;  // a crashed node originates nothing
    if (packet.src == ip6::Address{}) packet.src = address_;
    ++stats_.packetsSent;
    if (radio_) radio_->energy().addCpuBusy(config_.cpuPerPacket);
    routePacket(std::move(packet), /*forwarded=*/false);
}

void Node::wiredInput(ip6::Packet packet) {
    if (down_) return;  // wired frames to a crashed border router are lost
    if (packet.dst == address_) {
        deliverLocal(packet);
        return;
    }
    // Border router: wired packet headed into the mesh.
    ++stats_.packetsForwarded;
    routePacket(std::move(packet), /*forwarded=*/true);
}

void Node::routePacket(ip6::Packet packet, bool forwarded) {
    if (packet.dst == address_) {
        deliverLocal(packet);
        return;
    }
    if (config_.role == Role::kCloudHost) {
        // The cloud host reaches everything through its wired uplink.
        if (wired_ != nullptr) {
            wired_->transfer(this, std::move(packet));
        } else {
            ++stats_.noRouteDrops;
        }
        return;
    }
    if (packet.dst.isCloud()) {
        if (wired_ != nullptr) {
            wired_->transfer(this, std::move(packet));
            return;
        }
        // Mote: cloud traffic goes toward the border router (default route).
    }
    if (forwarded) {
        if (packet.hopLimit == 0 || --packet.hopLimit == 0) {
            ++stats_.noRouteDrops;
            return;
        }
    }
    NodeId nextHop = 0;
    switch (lookupRoute(packet.dst, nextHop)) {
        case RouteLookupStatus::kNoRoute:
            ++stats_.noRouteDrops;
            return;
        case RouteLookupStatus::kDead:
            // Route exists but every next hop is known dead: drop now
            // (counted by the route manager) instead of burning a CSMA
            // retry ladder per frame into a blackhole.
            return;
        case RouteLookupStatus::kOk:
            break;
    }
    enqueueMeshPacket(std::move(packet), nextHop);
}

void Node::enqueueMeshPacket(ip6::Packet packet, NodeId nextHop) {
    TCPLP_ASSERT(mac_);
    // The chosen next hop is not stashed with the queue entry: the route is
    // resolved again at dequeue. With static routes the two lookups are
    // equivalent; with self-healing routing the dequeue-time lookup is the
    // one that must win (the selection may have failed over meanwhile).
    if (!queue_->push(std::move(packet))) {
        ++stats_.forwardDrops;
        return;
    }
    (void)nextHop;
    drainQueue();
}

void Node::drainQueue() {
    if (draining_ || !queue_ || queue_->empty()) return;
    draining_ = true;
    ip6::Packet packet = queue_->pop();
    // Re-resolve at dequeue: with self-healing routing the selection may
    // have failed over (or back) while the packet sat in the queue.
    NodeId hop = 0;
    const RouteLookupStatus status = lookupRoute(packet.dst, hop);
    if (status != RouteLookupStatus::kOk) {
        if (status == RouteLookupStatus::kNoRoute) ++stats_.noRouteDrops;
        draining_ = false;
        drainQueue();
        return;
    }
    const std::optional<NodeId> nextHop = hop;
    // Skip tags adopted by the relay fast path: relayed fragments bypass
    // this queue and can interleave with our own in the MAC, so the two
    // streams must not share a (sender, tag) pair at the receiver.
    const std::uint16_t tag = claimOutgoingTag(std::nullopt);
    currentTxTag_ = tag;
    txTagActive_ = true;  // reserve through any txProcessingDelay
    const std::uint64_t prependBase = PacketBuffer::stats().prependFallbacks;
    if (config_.txProcessingDelay > 0) {
        std::vector<PacketBuffer> frames = lowpan::encodeDatagram(
            std::move(packet), id_, *nextHop, tag, config_.macPayloadBudget);
        stats_.prependFallbacks += PacketBuffer::stats().prependFallbacks - prependBase;
        simulator_.schedule(
            config_.txProcessingDelay,
            [this, frames = std::move(frames), hop = *nextHop,
             epoch = rebootEpoch_]() mutable {
                if (epoch != rebootEpoch_) return;  // node crashed meanwhile
                sendDatagramFrames(std::move(frames), hop);
            });
        if (radio_) radio_->energy().addCpuBusy(config_.txProcessingDelay / 2);
    } else {
        // Hot path: encode straight into the node's reusable frame list.
        // draining_ serializes datagrams, so txFrames_ is idle here and its
        // capacity (and, via the slab pool, its frames' storage) is reused
        // from one datagram to the next.
        lowpan::encodeDatagramInto(std::move(packet), id_, *nextHop, tag,
                                   config_.macPayloadBudget, txFrames_);
        stats_.prependFallbacks += PacketBuffer::stats().prependFallbacks - prependBase;
        txIndex_ = 0;
        sendNextFrame(*nextHop);
    }
}

void Node::sendDatagramFrames(std::vector<PacketBuffer> frames, NodeId nextHop) {
    // Datagrams drain one at a time (draining_ serializes), so the in-flight
    // frame list lives in the node rather than in a self-referencing closure.
    txFrames_ = std::move(frames);
    txIndex_ = 0;
    sendNextFrame(nextHop);
}

void Node::sendNextFrame(NodeId nextHop) {
    // Transmit fragments in order; a fragment that fails after link retries
    // dooms the datagram — sending the rest is pointless, so drop the
    // remainder (the receiver discards on gap anyway).
    if (txIndex_ >= txFrames_.size()) {
        txFrames_.clear();
        txTagActive_ = false;
        draining_ = false;
        drainQueue();
        return;
    }
    // Dead-next-hop fast drop: if liveness tracking has marked the hop
    // unreachable mid-datagram, abandon the remainder immediately instead
    // of paying a full CSMA retry ladder per frame.
    if (neighbors_ && config_.neighbor.enabled && !neighbors_->isLive(nextHop)) {
        routes_.noteBlackhole();
        txIndex_ = txFrames_.size();
        sendNextFrame(nextHop);
        return;
    }
    PacketBuffer payload = std::move(txFrames_[txIndex_]);
    ++txIndex_;
    mac_->send(nextHop, std::move(payload), [this, nextHop](const mac::SendResult& r) {
        if (!r.success) txIndex_ = txFrames_.size();  // abandon the datagram
        sendNextFrame(nextHop);
    });
}

void Node::sendProbe(NodeId neighbor) {
    if (down_ || !mac_) return;
    // An empty unicast payload: the receiver's 6LoWPAN parser discards it,
    // but the link-layer ACK (or the exhausted retry ladder) feeds the
    // neighbor table through the MAC's TX-outcome callback.
    mac_->send(neighbor, PacketBuffer{}, nullptr);
}

void Node::macInput(NodeId macSrc, const PacketBuffer& macPayload) {
    if (down_) return;  // the MCU is off (the radio is too, but be explicit)
    if (radio_) radio_->energy().addCpuBusy(config_.cpuPerPacket / 4);
    const auto info = lowpan::parseFragmentHeader(macPayload);
    if (!info) return;
    if (info->isFragment) expireFragRoutes();

    if (config_.perHopReassembly || !info->isFragment) {
        reassembler_->input(macSrc, id_, macPayload);
        return;
    }

    // Fragment-forwarding path (stock OpenThread behavior): relay fragments
    // without reassembling, deciding the route from FRAG1's IP header.
    if (info->isFirst) {
        BytesView rest(macPayload.data() + info->headerLen,
                       macPayload.size() - info->headerLen);
        ip6::Packet probe;
        if (!lowpan::decompressHeader(rest, macSrc, id_, probe)) return;
        if (probe.dst == address_ || (probe.dst.isCloud() && wired_ != nullptr)) {
            reassembler_->input(macSrc, id_, macPayload);
            return;
        }
        NodeId hop = 0;
        switch (lookupRoute(probe.dst, hop)) {
            case RouteLookupStatus::kNoRoute:
                ++stats_.noRouteDrops;
                return;
            case RouteLookupStatus::kDead:
                return;  // counted by the route manager
            case RouteLookupStatus::kOk:
                break;
        }
        const std::optional<NodeId> nextHop = hop;
        // Zero-copy fast path: keep the origin's datagram tag when no other
        // datagram this node is currently relaying or originating uses it,
        // so the fragment can be forwarded as a shared buffer with no header
        // rewrite. A simultaneous collision falls back to a fresh tag and a
        // counted copy-on-write rewrite in forwardRawFragment.
        const std::uint16_t outTag = claimOutgoingTag(info->tag);
        insertFragRoute(macSrc, info->tag, outTag, *nextHop);
        forwardRawFragment(macPayload, *info, macSrc);
        return;
    }
    if (findFragRoute(macSrc, info->tag) != nullptr) {
        forwardRawFragment(macPayload, *info, macSrc);
        return;
    }
    // Not being forwarded: it is ours (or stale) — reassemble locally.
    reassembler_->input(macSrc, id_, macPayload);
}

bool Node::outgoingTagInUse(std::uint16_t tag) const {
    // Datagrams drain one at a time, so the only originated tag that can
    // still be in flight alongside relayed fragments is the current one.
    if (txTagActive_ && currentTxTag_ == tag) return true;
    for (const FragRoute& route : fragRoutes_) {
        if (route.active && route.newTag == tag) return true;
    }
    return false;
}

std::uint16_t Node::claimOutgoingTag(std::optional<std::uint16_t> preferred) {
    if (preferred && !outgoingTagInUse(*preferred)) return *preferred;
    std::uint16_t tag = nextTag_++;
    while (outgoingTagInUse(tag)) tag = nextTag_++;
    return tag;
}

Node::FragRoute* Node::findFragRoute(NodeId originSrc, std::uint16_t originTag) {
    for (FragRoute& route : fragRoutes_) {
        if (route.active && route.originSrc == originSrc && route.originTag == originTag)
            return &route;
    }
    return nullptr;
}

void Node::insertFragRoute(NodeId originSrc, std::uint16_t originTag, std::uint16_t newTag,
                           NodeId nextHop) {
    FragRoute* slot = findFragRoute(originSrc, originTag);
    if (slot == nullptr) {
        for (FragRoute& route : fragRoutes_) {
            if (!route.active) {
                slot = &route;
                break;
            }
        }
    }
    if (slot == nullptr) {
        fragRoutes_.emplace_back();
        slot = &fragRoutes_.back();
    }
    *slot = FragRoute{originSrc, originTag, newTag, nextHop, simulator_.now(), true};
}

void Node::forwardRawFragment(const PacketBuffer& macPayload, const lowpan::FragInfo& info,
                              NodeId macSrc) {
    FragRoute* route = findFragRoute(macSrc, info.tag);
    TCPLP_ASSERT(route != nullptr);
    // Pinned fast-path hop gone dead mid-datagram: drop the fragment and
    // retire the route — the receiver discards on gap anyway, and burning
    // retry ladders into a blackhole would only delay the sender's own
    // failover.
    if (neighbors_ && config_.neighbor.enabled && !neighbors_->isLive(route->nextHop)) {
        routes_.noteBlackhole();
        route->active = false;
        return;
    }
    route->lastActivity = simulator_.now();
    PacketBuffer out = macPayload;  // shares storage with the received frame
    if (route->newTag != info.tag) {
        // Tag collision: rewriting the FRAG header needs exclusive bytes —
        // the only payload deep copy possible on the forwarding path.
        out.copyForWrite();
        std::uint8_t* bytes = out.mutableData();
        bytes[2] = std::uint8_t(route->newTag >> 8);
        bytes[3] = std::uint8_t(route->newTag);
        ++stats_.payloadDeepCopies;
    }
    ++stats_.packetsForwarded;
    const NodeId nextHop = route->nextHop;
    // Last fragment? Retire the mapping so the table stays bounded.
    if (!info.isFirst &&
        info.offsetBytes + (macPayload.size() - info.headerLen) >= info.datagramSize) {
        route->active = false;
    }
    mac_->send(nextHop, std::move(out), nullptr);
}

void Node::expireFragRoutes() {
    // Matches the reassembler's discard timeout: after this long without a
    // fragment, the datagram's remainder is not coming.
    constexpr sim::Time kFragRouteTimeout = 5 * sim::kSecond;
    const sim::Time now = simulator_.now();
    for (FragRoute& route : fragRoutes_) {
        if (route.active && now - route.lastActivity > kFragRouteTimeout) {
            route.active = false;
        }
    }
}

void Node::handleAssembled(ip6::Packet packet, ip6::ShortAddr macSrc) {
    (void)macSrc;
    if (packet.dst == address_) {
        deliverLocal(packet);
        return;
    }
    // Reassembled but not ours: forward (per-hop reassembly mode, or a
    // whole datagram transiting a relay, or cloud-bound traffic at the
    // border router).
    ++stats_.packetsForwarded;
    routePacket(std::move(packet), /*forwarded=*/true);
}

void Node::deliverLocal(const ip6::Packet& packet) {
    ++stats_.packetsDelivered;
    if (radio_) radio_->energy().addCpuBusy(config_.cpuPerPacket);
    auto it = protocols_.find(packet.nextHeader);
    if (it != protocols_.end()) it->second(packet);
}

}  // namespace tcplp::mesh
