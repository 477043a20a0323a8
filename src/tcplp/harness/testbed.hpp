// Simulated testbeds mirroring the paper's experimental setups (§5):
//
//  * pair()       — two motes one hop apart (§6.3 node-to-node study).
//  * line(h)      — h wireless hops: mote — relays — border router — cloud.
//                   Geometry guarantees hidden terminals: adjacent nodes
//                   hear each other, nodes two hops apart do not (§7.1).
//  * office()     — 15-node tree approximating Fig. 3, border router = node
//                   1, leaf sensors 12-15 at 3-5 hops (§9.2).
//
// The border router is bridged to a "cloud" host over a wired link with
// ~12 ms RTT, like the paper's EC2 server (§9.2).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "tcplp/mesh/node.hpp"
#include "tcplp/phy/channel.hpp"
#include "tcplp/sim/simulator.hpp"

namespace tcplp::harness {

struct TestbedConfig {
    std::uint64_t seed = 1;
    mesh::NodeConfig nodeDefaults{};
    double nodeSpacingMeters = 10.0;
    double radioRangeMeters = 12.0;  // adjacent in range, 2-apart out of range
    sim::Time wiredOneWayDelay = 6 * sim::kMillisecond;  // 12 ms RTT to cloud
    double linkLoss = 0.0;  // per-frame fading probability on mesh links
    /// Air bit rate for every radio frame. phy::kBitsPerSecond keeps the
    /// stock 802.15.4 symbol timing byte-for-byte; the ESP32-class link
    /// preset raises it into the tens of Mb/s.
    double airBitsPerSecond = phy::kBitsPerSecond;
    /// Frame-bus cost per byte for every mesh radio (MCU <-> transceiver
    /// copy); nullopt = the Radio's stock 21 us/B SPI model.
    std::optional<double> busMicrosPerByte;
    /// office(): these node ids become duty-cycled leaf devices attached to
    /// their BFS parent (the sensors of §9; empty = all routers).
    std::vector<phy::NodeId> sleepyLeaves{};
    mac::SleepyConfig sleepyConfig{};

    /// Self-healing mesh routing: every router gets link-liveness tracking
    /// (mesh::NeighborTable, probe seed derived per node from the run
    /// seed), and installTreeRoutes additionally installs ranked loop-free
    /// alternate next hops (neighbors strictly closer to the destination).
    /// Off by default: fault-free runs are byte-identical either way, but
    /// the flag keeps the legacy static-route topologies bit-exact.
    bool selfHealing = false;
    /// Knob overrides for the per-router NeighborConfig (enabled/probeSeed
    /// are managed by the testbed).
    mesh::NeighborConfig neighborDefaults{};
};

class Testbed {
public:
    explicit Testbed(TestbedConfig config = {});
    /// Cancels all pending simulator events before members are destroyed:
    /// a scheduled callback may hold in-flight packets whose payloads live
    /// in a node's reassembly arena, and those must be released while the
    /// nodes (declared after simulator_, destroyed first) still exist.
    ~Testbed();

    sim::Simulator& simulator() { return simulator_; }
    phy::Channel& channel() { return channel_; }
    mesh::WiredLink& wired() { return *wired_; }

    mesh::Node& node(std::size_t index) { return *nodes_[index]; }
    const mesh::Node& node(std::size_t index) const { return *nodes_[index]; }
    std::size_t nodeCount() const { return nodes_.size(); }
    mesh::Node& borderRouter() { return *border_; }
    mesh::Node& cloud() { return *cloud_; }

    /// Adds a mesh node; routes/topology are configured by the builders.
    mesh::Node& addNode(phy::NodeId id, phy::Position pos, mesh::NodeConfig config);
    /// Creates the border router (mesh side) + cloud host + wired link.
    void addBorderRouterAndCloud(phy::NodeId routerId, phy::Position pos,
                                 mesh::NodeConfig routerConfig);

    /// Installs per-hop routes along a path of node ids (both directions),
    /// and routes every on-path node's default toward position 0.
    void installLineRoutes(const std::vector<phy::NodeId>& path);

    /// Parent selection + route install for an arbitrary mesh: BFS tree
    /// toward the border router (node index 0) over the connectivity graph,
    /// default routes up the tree, downlink routes at every ancestor, and
    /// sleepy-leaf adoption per config.sleepyLeaves. Used by office(),
    /// grid() and star(); call after all nodes are added.
    void installTreeRoutes();

    mesh::Node* findNode(phy::NodeId id);

    // --- Canned topologies ---------------------------------------------
    /// Two motes, ids 10 and 11, one hop apart. No border router.
    static std::unique_ptr<Testbed> pair(TestbedConfig config = {});
    /// `hops` wireless hops between mote (last node) and border router
    /// (id 1) + cloud (id 1000). Mote id = 10 + hops - 1 ... source is
    /// node id (10 + hops - 1); relays between.
    static std::unique_ptr<Testbed> line(std::size_t hops, TestbedConfig config = {});
    /// 15-node office tree per Fig. 3; sensors 12-15 are 3-5 hops out.
    static std::unique_ptr<Testbed> office(TestbedConfig config = {});
    /// Dense n-node grid (ids 1..n, border router = 1 in the corner),
    /// node spacing vs radio range giving the §7.1 hidden-terminal
    /// geometry. Stresses the channel's spatial index at scale.
    static std::unique_ptr<Testbed> grid(std::size_t n, TestbedConfig config = {});
    /// Border router (id 1) with n-1 single-hop neighbors on a circle.
    static std::unique_ptr<Testbed> star(std::size_t n, TestbedConfig config = {});

private:
    TestbedConfig config_;
    sim::Simulator simulator_;
    phy::Channel channel_;
    std::vector<std::unique_ptr<mesh::Node>> nodes_;
    mesh::Node* border_ = nullptr;
    std::unique_ptr<mesh::Node> cloud_;
    std::unique_ptr<mesh::WiredLink> wired_;
};

/// Hourly ambient loss profile for the full-day experiment (Fig. 10): low
/// interference at night, high during working hours as humans move around
/// the office and WiFi traffic rises.
double diurnalLossAt(sim::Time now, double nightLoss, double peakLoss);

}  // namespace tcplp::harness
