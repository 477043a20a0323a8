// A complete simulated network node: radio + MAC + 6LoWPAN + IPv6
// forwarding, assembled per role.
//
//  * kRouter      — always-on Thread router; forwards; may parent leaves.
//  * kLeaf        — duty-cycled sleepy end device (SleepyMac).
//  * kBorderRouter— router that also owns a wired link to the cloud host.
//  * kCloudHost   — no radio; wired link only (the EC2 server of §9.2).
//
// Forwarding modes (Appendix A): by default relays forward 6LoWPAN
// *fragments* without reassembly, as stock OpenThread does; with
// `perHopReassembly` the node reassembles whole IPv6 packets at each hop and
// runs them through a RED/ECN queue — the paper's fix for multi-flow
// unfairness.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "tcplp/common/ring_deque.hpp"
#include "tcplp/ip6/netif.hpp"
#include "tcplp/ip6/red_queue.hpp"
#include "tcplp/lowpan/frag.hpp"
#include "tcplp/mac/csma.hpp"
#include "tcplp/mac/sleepy.hpp"
#include "tcplp/mesh/neighbor_table.hpp"
#include "tcplp/mesh/route_manager.hpp"
#include "tcplp/phy/radio.hpp"
#include "tcplp/tcp/cc.hpp"

namespace tcplp::mesh {

using phy::NodeId;

enum class Role : std::uint8_t { kRouter, kLeaf, kBorderRouter, kCloudHost };

struct NodeConfig {
    Role role = Role::kRouter;
    mac::CsmaConfig macConfig{};
    mac::SleepyConfig sleepyConfig{};
    ip6::RedConfig queueConfig{};
    bool perHopReassembly = false;
    /// CPU charge per IPv6 datagram processed above the MAC.
    sim::Time cpuPerPacket = 150;

    // --- Reassembly memory model (Tables 3/4) --------------------------
    /// Bytes of packet heap reserved for 6LoWPAN reassembly gather buffers
    /// (default sized like OpenThread's message pool on a larger mote:
    /// 64 x 128 B). Exhaustion drops datagrams and is counted in NodeStats.
    std::size_t reassemblyArenaBytes = 8192;
    /// Concurrent partial datagrams tracked before new FRAG1s are dropped.
    std::size_t reassemblySlots = lowpan::Reassembler::kDefaultMaxPartials;

    // --- Network-stack profile emulation (§6.3) ------------------------
    /// Usable MAC payload per frame; smaller values emulate stacks with
    /// more per-frame header overhead (e.g. GNRC vs OpenThread).
    std::size_t macPayloadBudget = phy::kMaxMacPayloadBytes;
    /// Per-datagram processing latency before frames reach the MAC
    /// (thread-per-layer IPC in GNRC, event queue in BLIP).
    sim::Time txProcessingDelay = 0;

    // --- Self-healing routing (link liveness + failover) ----------------
    /// neighbor.enabled turns on liveness tracking, dead-next-hop fast
    /// drops, and failover across the alternate routes the harness
    /// installs. Off (the default) reproduces the static-route behavior
    /// byte-for-byte — no extra RNG draws, no extra events.
    NeighborConfig neighbor{};

    /// Congestion-control strategy for TCP endpoints hosted on this node.
    /// Only a selection token (tcp/cc.hpp, header-only): harness rigs that
    /// build a TcpConfig for a node's sockets copy it into TcpConfig::cc
    /// (see harness/anemometer.cpp). kNewReno = the paper's stock behavior.
    tcp::CcKind tcpCc = tcp::CcKind::kNewReno;

    /// TCP receive-memory budget for sockets hosted on this node: the hard
    /// ceiling receive-buffer autotuning may grow toward (copied into
    /// TcpConfig::recvBufferMaxBytes by harness rigs, clamping any
    /// workload-requested budget). 0 = no budget — autotuning stays off
    /// unless a rig asks for it, and an unbudgeted node never clamps.
    std::size_t tcpRecvBudgetBytes = 0;
};

struct NodeStats {
    std::uint64_t reboots = 0;
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsForwarded = 0;
    std::uint64_t packetsDelivered = 0;
    std::uint64_t forwardDrops = 0;  // queue overflow / RED drops
    std::uint64_t noRouteDrops = 0;
    /// Payload deep copies this node performed while *forwarding* (the
    /// zero-copy fast path keeps this at 0; only a datagram-tag collision
    /// forces a copy-on-write of a relayed fragment).
    std::uint64_t payloadDeepCopies = 0;
    /// Datagrams lost to reassembly buffer pressure: arena exhaustion plus
    /// partial-slot exhaustion (mirrors Reassembler stats).
    std::uint64_t reassemblyOverflowDrops = 0;
    /// PacketBuffer::prepend slow paths this node's 6LoWPAN encoder hit:
    /// the datagram's storage was shared or short of headroom, so the
    /// header went in front of a copy in a fresh slab-pool block. Relays
    /// take this path for datagrams whose storage another holder still
    /// shares, so multihop runs count many (CityScale.DatapathCounters).
    std::uint64_t prependFallbacks = 0;
    /// High-water mark of the reassembly arena, in bytes (Tables 3/4:
    /// genuine buffer pressure, not elastic heap growth).
    std::size_t reassemblyArenaHighWater = 0;

    // --- Self-healing routing (mirrors RouteManager counters) -----------
    std::uint64_t reroutes = 0;        // selection slid to a worse rank
    std::uint64_t failbacks = 0;       // selection recovered a better rank
    std::uint64_t blackholeDrops = 0;  // route existed, no live next hop
};

class Node;

/// Point-to-point wired link between the border router and the cloud host
/// (the paper's border-router-to-EC2 path, RTT ~12 ms, §9.2).
class WiredLink {
public:
    WiredLink(sim::Simulator& simulator, sim::Time oneWayDelay = 6 * sim::kMillisecond)
        : simulator_(simulator), delay_(oneWayDelay) {}

    void attach(Node* a, Node* b) {
        a_ = a;
        b_ = b;
    }
    void transfer(const Node* from, ip6::Packet packet);

    /// Uniform packet drop across this link — the paper's "injected loss at
    /// the border router" (§9.4, Fig. 9). Applied to both directions.
    void setLossRate(double p) { lossRate_ = p; }
    double lossRate() const { return lossRate_; }
    std::uint64_t dropped() const { return dropped_; }

private:
    sim::Simulator& simulator_;
    sim::Time delay_;
    double lossRate_ = 0.0;
    std::uint64_t dropped_ = 0;
    Node* a_ = nullptr;
    Node* b_ = nullptr;
    // In-flight packets, in schedule order. The propagation delay is a
    // constant, so deliveries fire in FIFO order and each scheduled event
    // pops exactly one entry — which lets transfer() schedule a [this]-only
    // closure (fits the simulator's inline event storage) instead of
    // capturing the packet by value.
    struct InFlight {
        Node* to = nullptr;
        ip6::Packet packet;
    };
    RingDeque<InFlight> inFlight_;
};

class Node : public ip6::NetIf {
public:
    Node(sim::Simulator& simulator, phy::Channel* channel, NodeId id, phy::Position pos,
         NodeConfig config);
    ~Node() override;

    NodeId id() const { return id_; }
    Role role() const { return config_.role; }
    const NodeStats& stats() const;
    NodeConfig& config() { return config_; }

    phy::Radio* radio() { return radio_.get(); }
    mac::CsmaMac* macLayer() { return mac_.get(); }
    mac::SleepyMac* sleepyMac() { return sleepy_.get(); }
    ip6::RedQueue* forwardQueue() { return queue_.get(); }
    const lowpan::Reassembler* reassembler() const { return reassembler_.get(); }
    const BufferArena* reassemblyArena() const { return arena_.get(); }

    // --- Topology wiring -------------------------------------------------
    /// Route packets for `dst` (short address) via neighbor `nextHop`
    /// (installs/replaces the rank-0 primary).
    void addRoute(ip6::ShortAddr dst, NodeId nextHop);
    /// Appends a ranked loop-free alternate next hop for `dst`.
    void addRouteAlternate(ip6::ShortAddr dst, NodeId nextHop);
    /// Route anything without a specific route via `nextHop` (mesh side).
    void setDefaultRoute(NodeId nextHop);
    /// Appends a ranked alternate for the default route.
    void addDefaultRouteAlternate(NodeId nextHop);
    /// Self-healing introspection (tests, presenters).
    const RouteManager& routeTable() const { return routes_; }
    const NeighborTable* neighborTable() const { return neighbors_.get(); }
    /// Attach the wired link (border router / cloud host roles).
    void attachWired(WiredLink* link);
    /// Declare `child` as a duty-cycled child (parent queues indirectly).
    void adoptSleepyChild(NodeId child);
    /// Leaf only: set/replace the parent used for polls.
    void setParent(NodeId parent);

    // --- NetIf -----------------------------------------------------------
    ip6::Address address() const override { return address_; }
    void sendPacket(ip6::Packet packet) override;
    void registerProtocol(std::uint8_t nextHeader, ProtocolHandler handler) override;
    sim::Simulator& simulator() override { return simulator_; }
    void setExpectingResponse(bool expecting) override;

    /// Wired-link ingress (called by WiredLink).
    void wiredInput(ip6::Packet packet);

    /// Starts duty cycling (leaf role).
    void start();

    // --- Fault injection -------------------------------------------------
    /// Fires on both edges of a reboot: listener(true) at power loss (after
    /// volatile node state is flushed), listener(false) at recovery. The
    /// transport layer lives outside the Node, so the workload rig uses this
    /// to drop TCP connections with crash semantics and schedule reconnects.
    using RebootListener = std::function<void(bool isDown)>;
    void addRebootListener(RebootListener listener) {
        rebootListeners_.push_back(std::move(listener));
    }

    /// Crash-reboots the node: the radio rail drops, MAC queues and the
    /// in-flight datagram are abandoned, reassembly partials return their
    /// arena chunks, and the forwarding queue empties — no callbacks fire.
    /// After `downtime` the node powers back up (routes and sleepy-child
    /// registrations survive: they model configuration, not volatile state;
    /// a leaf resumes its poll loop). A reboot during downtime moves the
    /// power-up to its own deadline.
    void reboot(sim::Time downtime);
    bool isDown() const { return down_; }

    /// Permanent failure (FaultKind::kNodeFailure): the reboot teardown
    /// with no recovery — the node never returns, and later reboot() calls
    /// are ignored. Reboot listeners fire their down edge once.
    void failPermanently();
    bool isFailed() const { return failed_; }

    /// Raw MAC ingress (also exposed for forwarding-path tests): one
    /// received MAC payload from neighbor `macSrc`.
    void macInput(NodeId macSrc, const PacketBuffer& macPayload);

private:
    void handleAssembled(ip6::Packet packet, ip6::ShortAddr macSrc);
    void deliverLocal(const ip6::Packet& packet);
    void routePacket(ip6::Packet packet, bool forwarded);
    void enqueueMeshPacket(ip6::Packet packet, NodeId nextHop);
    void drainQueue();
    void sendNextFrame();
    /// The teardown shared by reboot() and failPermanently(): drops the
    /// volatile state and fires the listeners' down edge once per outage.
    void powerDown();
    void powerUp();
    /// True if `tag` is the outgoing tag of any datagram this node is
    /// currently relaying or originating (they must stay unique per sender).
    bool outgoingTagInUse(std::uint16_t tag) const;
    /// Picks an outgoing datagram tag: `preferred` (the zero-copy adoption
    /// case) when free, else fresh counter values skipping in-use tags.
    std::uint16_t claimOutgoingTag(std::optional<std::uint16_t> preferred);
    void forwardRawFragment(const PacketBuffer& macPayload, const lowpan::FragInfo& info,
                            NodeId macSrc);
    RouteLookupStatus lookupRoute(const ip6::Address& dst, NodeId& nextHop);
    /// Emits an empty-payload unicast toward a dead neighbor; the MAC ACK
    /// (or its absence) is the liveness verdict.
    void sendProbe(NodeId neighbor);

    sim::Simulator& simulator_;
    NodeId id_;
    NodeConfig config_;
    ip6::Address address_;
    // Mutable so stats() can refresh the reassembly-pressure fields from the
    // arena/reassembler counters on read.
    mutable NodeStats stats_;

    // Must outlive reassembler_ and every packet it delivers (arena rule).
    std::unique_ptr<BufferArena> arena_;
    std::unique_ptr<phy::Radio> radio_;
    std::unique_ptr<mac::CsmaMac> mac_;
    std::unique_ptr<mac::SleepyMac> sleepy_;
    std::unique_ptr<lowpan::Reassembler> reassembler_;
    std::unique_ptr<ip6::RedQueue> queue_;
    WiredLink* wired_ = nullptr;

    RouteManager routes_;
    std::unique_ptr<NeighborTable> neighbors_;
    std::optional<NodeId> parent_;
    std::map<std::uint8_t, ProtocolHandler> protocols_;

    std::uint16_t nextTag_ = 1;
    bool draining_ = false;
    // Fault injection: while down_, every ingress/egress path is a no-op.
    bool down_ = false;
    bool failed_ = false;  // kNodeFailure: down forever, reboots ignored
    std::vector<RebootListener> rebootListeners_;
    // Pending power-up of a rebooted node: a later reboot re-arms it,
    // failPermanently() stops it.
    sim::Timer recoveryTimer_;
    // txProcessingDelay between encoding a datagram and handing its first
    // frame to the MAC; a reboot stops it along with the frames.
    sim::Timer txDelayTimer_;
    // Frames of the datagram currently draining to the MAC (in order), their
    // next hop, and the datagram tag it was encoded with (tag-uniqueness
    // bookkeeping).
    std::vector<PacketBuffer> txFrames_;
    std::size_t txIndex_ = 0;
    NodeId txHop_ = 0;
    // Originated-datagram tag reservation: set when the tag is claimed in
    // drainQueue (which may precede transmission by txProcessingDelay) and
    // cleared when the datagram's last frame has drained.
    std::uint16_t currentTxTag_ = 0;
    bool txTagActive_ = false;
    // Fragment-forwarding state: (origin MAC, origin tag) -> (new tag, hop).
    // Entries normally retire with the final fragment; a timeout sweep
    // (expireFragRoutes) reclaims routes whose tail was lost upstream so
    // they cannot pin tags or grow the table forever. A relay tracks a
    // handful of concurrent datagrams, so the table is a flat slot vector
    // (linear scan, retired slots recycled in place) rather than a node-
    // per-entry map — the forwarding hot path allocates nothing once the
    // vector's high-water capacity is reached.
    struct FragRoute {
        NodeId originSrc = 0;
        std::uint16_t originTag = 0;
        std::uint16_t newTag = 0;
        NodeId nextHop = 0;
        sim::Time lastActivity = 0;
        bool active = false;
    };
    FragRoute* findFragRoute(NodeId originSrc, std::uint16_t originTag);
    void insertFragRoute(NodeId originSrc, std::uint16_t originTag, std::uint16_t newTag,
                         NodeId nextHop);
    void expireFragRoutes();
    std::vector<FragRoute> fragRoutes_;
};

}  // namespace tcplp::mesh
