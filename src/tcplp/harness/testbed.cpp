#include "tcplp/harness/testbed.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "tcplp/common/assert.hpp"

namespace tcplp::harness {

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      simulator_(config.seed),
      channel_(simulator_, config.radioRangeMeters) {
    if (config_.linkLoss > 0.0) channel_.setDefaultLoss(config_.linkLoss);
    channel_.setBitsPerSecond(config_.airBitsPerSecond);
}

Testbed::~Testbed() { simulator_.cancelAllPending(); }

mesh::Node& Testbed::addNode(phy::NodeId id, phy::Position pos, mesh::NodeConfig config) {
    // Self-healing routing: routers learn link liveness and fail over.
    // Leaves stay out — their traffic rides the duty-cycled indirect path,
    // where a missed wakeup window says nothing about the link.
    if (config_.selfHealing && config.role != mesh::Role::kLeaf &&
        config.role != mesh::Role::kCloudHost) {
        config.neighbor = config_.neighborDefaults;
        config.neighbor.enabled = true;
        config.neighbor.probeSeed =
            sim::Rng::deriveStream(config_.seed, mesh::kLivenessStreamId + id);
    }
    nodes_.push_back(std::make_unique<mesh::Node>(simulator_, &channel_, id, pos, config));
    mesh::Node& node = *nodes_.back();
    if (config_.busMicrosPerByte && node.radio() != nullptr)
        node.radio()->setSpiMicrosPerByte(*config_.busMicrosPerByte);
    return node;
}

void Testbed::addBorderRouterAndCloud(phy::NodeId routerId, phy::Position pos,
                                      mesh::NodeConfig routerConfig) {
    routerConfig.role = mesh::Role::kBorderRouter;
    border_ = &addNode(routerId, pos, routerConfig);

    mesh::NodeConfig cloudConfig;
    cloudConfig.role = mesh::Role::kCloudHost;
    cloud_ = std::make_unique<mesh::Node>(simulator_, nullptr, phy::NodeId(1000),
                                          phy::Position{}, cloudConfig);
    wired_ = std::make_unique<mesh::WiredLink>(simulator_, config_.wiredOneWayDelay);
    wired_->attach(border_, cloud_.get());
    border_->attachWired(wired_.get());
    cloud_->attachWired(wired_.get());
}

mesh::Node* Testbed::findNode(phy::NodeId id) {
    for (auto& n : nodes_)
        if (n->id() == id) return n.get();
    if (cloud_ && cloud_->id() == id) return cloud_.get();
    return nullptr;
}

void Testbed::installLineRoutes(const std::vector<phy::NodeId>& path) {
    for (std::size_t i = 0; i < path.size(); ++i) {
        mesh::Node* node = findNode(path[i]);
        TCPLP_ASSERT(node != nullptr);
        // Toward the head of the path (uplink / border router).
        if (i > 0) node->setDefaultRoute(path[i - 1]);
        // Specific routes toward every node further down the path.
        for (std::size_t j = i + 1; j < path.size(); ++j)
            node->addRoute(path[j], path[i + 1]);
        for (std::size_t j = 0; j < i; ++j)
            node->addRoute(path[j], path[i - 1]);
    }
}

std::unique_ptr<Testbed> Testbed::pair(TestbedConfig config) {
    auto tb = std::make_unique<Testbed>(config);
    mesh::NodeConfig nc = config.nodeDefaults;
    nc.role = mesh::Role::kRouter;
    tb->addNode(10, phy::Position{0.0, 0.0}, nc);
    tb->addNode(11, phy::Position{config.nodeSpacingMeters, 0.0}, nc);
    tb->node(0).addRoute(11, 11);
    tb->node(1).addRoute(10, 10);
    return tb;
}

std::unique_ptr<Testbed> Testbed::line(std::size_t hops, TestbedConfig config) {
    TCPLP_ASSERT(hops >= 1);
    auto tb = std::make_unique<Testbed>(config);

    // Border router at x=0; relays/mote extending away, one hop apart.
    mesh::NodeConfig rc = config.nodeDefaults;
    rc.role = mesh::Role::kRouter;
    tb->addBorderRouterAndCloud(1, phy::Position{0.0, 0.0}, rc);

    std::vector<phy::NodeId> path{1};
    for (std::size_t i = 1; i <= hops; ++i) {
        const phy::NodeId id = phy::NodeId(9 + i);  // 10, 11, 12, ...
        mesh::NodeConfig nc = config.nodeDefaults;
        nc.role = mesh::Role::kRouter;
        tb->addNode(id, phy::Position{double(i) * config.nodeSpacingMeters, 0.0}, nc);
        path.push_back(id);
    }
    tb->installLineRoutes(path);
    return tb;
}

std::unique_ptr<Testbed> Testbed::office(TestbedConfig config) {
    auto tb = std::make_unique<Testbed>(config);
    const double s = config.nodeSpacingMeters;

    // Positions loosely following Fig. 3: node 1 (border router) at one end
    // of the office, router backbone snaking through, sensors 12-15 at the
    // far end (3-5 hops from the border router).
    struct Spot {
        phy::NodeId id;
        double x, y;
    };
    const Spot spots[] = {
        {2, 1.0 * s, 0.3 * s},  {3, 1.0 * s, -0.4 * s}, {4, 2.0 * s, 0.0},
        {5, 2.0 * s, 0.8 * s},  {6, 3.0 * s, 0.3 * s},  {7, 3.0 * s, -0.5 * s},
        {8, 4.0 * s, 0.0},      {9, 4.0 * s, 0.8 * s},  {10, 5.0 * s, 0.3 * s},
        {11, 5.0 * s, -0.4 * s},{12, 3.0 * s, 1.1 * s}, {13, 4.0 * s, 1.5 * s},
        {14, 5.0 * s, 1.0 * s}, {15, 6.0 * s, 0.2 * s},
    };

    const auto isLeaf = [&config](phy::NodeId id) {
        for (phy::NodeId l : config.sleepyLeaves)
            if (l == id) return true;
        return false;
    };

    mesh::NodeConfig rc = config.nodeDefaults;
    rc.role = mesh::Role::kRouter;
    tb->addBorderRouterAndCloud(1, phy::Position{0.0, 0.0}, rc);
    for (const Spot& sp : spots) {
        mesh::NodeConfig nc = config.nodeDefaults;
        nc.role = isLeaf(sp.id) ? mesh::Role::kLeaf : mesh::Role::kRouter;
        nc.sleepyConfig = config.sleepyConfig;
        tb->addNode(sp.id, phy::Position{sp.x, sp.y}, nc);
    }

    tb->installTreeRoutes();
    return tb;
}

void Testbed::installTreeRoutes() {
    const auto isLeaf = [this](phy::NodeId id) {
        for (phy::NodeId l : config_.sleepyLeaves)
            if (l == id) return true;
        return false;
    };

    // Parent selection: BFS tree toward the border router over the
    // connectivity graph (OpenThread picks good-quality uplinks; with a
    // unit-disk channel, hop count is the quality metric). Leaves never
    // relay, so only routers expand the frontier.
    const std::size_t n = nodeCount();
    std::vector<int> parent(n, -1);
    std::vector<int> depth(n, -1);
    std::queue<std::size_t> frontier;
    // Index 0 is the border router (added first).
    depth[0] = 0;
    frontier.push(0);
    while (!frontier.empty()) {
        const std::size_t u = frontier.front();
        frontier.pop();
        if (isLeaf(node(u).id())) continue;  // leaves don't forward
        for (std::size_t v = 0; v < n; ++v) {
            if (depth[v] != -1) continue;
            if (!channel().inRange(node(u).radio(), node(v).radio())) continue;
            depth[v] = depth[u] + 1;
            parent[v] = int(u);
            frontier.push(v);
        }
    }

    // Install tree routes: default route toward parent (uplink); downlink
    // routes at each ancestor pointing down the tree.
    for (std::size_t v = 1; v < n; ++v) {
        TCPLP_ASSERT(parent[v] >= 0);
        mesh::Node& child = node(v);
        mesh::Node& par = node(std::size_t(parent[v]));
        if (child.role() == mesh::Role::kLeaf) {
            child.setParent(par.id());
            par.adoptSleepyChild(child.id());
        } else {
            child.setDefaultRoute(par.id());
        }
        // Walk up the tree installing downlink routes for this node.
        int cur = int(v);
        while (parent[std::size_t(cur)] >= 0) {
            const int up = parent[std::size_t(cur)];
            node(std::size_t(up)).addRoute(child.id(), node(std::size_t(cur)).id());
            cur = up;
        }
    }

    if (!config_.selfHealing) return;

    // --- Ranked loop-free alternates (RPL-lite parent sets) ---------------
    // For every (router v, router destination d) the candidate set is the
    // in-range neighbors of v strictly closer to d, where distance is BFS
    // over the relay graph (leaves never relay). BFS depths equal graph
    // distances, so the tree next hop is always in the set; the installed
    // rank order is tree primary first, then ascending node id. Every
    // candidate hop strictly decreases the distance to d, so any mix of
    // failovers is loop-free by construction.
    const auto relays = [&](std::size_t u) { return !isLeaf(node(u).id()); };
    std::vector<std::vector<int>> distTo(n, std::vector<int>(n, -1));
    for (std::size_t d = 0; d < n; ++d) {
        if (!relays(d)) continue;  // a leaf is reachable only via its parent
        std::vector<int>& dist = distTo[d];
        dist[d] = 0;
        std::queue<std::size_t> q;
        q.push(d);
        while (!q.empty()) {
            const std::size_t u = q.front();
            q.pop();
            if (u != d && !relays(u)) continue;
            for (std::size_t v = 0; v < n; ++v) {
                if (dist[v] != -1) continue;
                if (!channel().inRange(node(u).radio(), node(v).radio())) continue;
                dist[v] = dist[u] + 1;
                q.push(v);
            }
        }
    }
    for (std::size_t v = 0; v < n; ++v) {
        if (!relays(v)) continue;
        mesh::Node& router = node(v);
        for (std::size_t d = 0; d < n; ++d) {
            if (d == v || !relays(d)) continue;
            const std::vector<int>& dist = distTo[d];
            if (dist[v] <= 0) continue;
            std::vector<phy::NodeId> cand;
            for (std::size_t u = 0; u < n; ++u) {
                if (u == v || dist[u] != dist[v] - 1) continue;
                if (u != d && !relays(u)) continue;
                if (!channel().inRange(node(v).radio(), node(u).radio())) continue;
                cand.push_back(node(u).id());
            }
            std::sort(cand.begin(), cand.end());
            if (d == 0) {
                // Uplink rides the default route; the tree parent is
                // already rank 0 (appends deduplicate against it).
                for (phy::NodeId c : cand) router.addDefaultRouteAlternate(c);
            } else {
                // Downlink/cross-tree: at ancestors the tree primary is
                // already rank 0; elsewhere the best-id candidate leads.
                for (phy::NodeId c : cand) router.addRouteAlternate(node(d).id(), c);
            }
        }
    }
}

std::unique_ptr<Testbed> Testbed::grid(std::size_t n, TestbedConfig config) {
    TCPLP_ASSERT(n >= 2);
    auto tb = std::make_unique<Testbed>(config);
    const double s = config.nodeSpacingMeters;
    const auto cols = std::size_t(std::ceil(std::sqrt(double(n))));

    const auto isLeaf = [&config](phy::NodeId id) {
        for (phy::NodeId l : config.sleepyLeaves)
            if (l == id) return true;
        return false;
    };

    // Border router = id 1 in the corner cell; ids 2..n fill the grid
    // row-major. 10 m spacing at 12 m range keeps adjacent nodes in range
    // and nodes two apart hidden from each other (§7.1 geometry), so dense
    // grids collide at relays exactly like the office runs.
    mesh::NodeConfig rc = config.nodeDefaults;
    rc.role = mesh::Role::kRouter;
    tb->addBorderRouterAndCloud(1, phy::Position{0.0, 0.0}, rc);
    for (std::size_t i = 1; i < n; ++i) {
        const phy::NodeId id = phy::NodeId(i + 1);
        mesh::NodeConfig nc = config.nodeDefaults;
        nc.role = isLeaf(id) ? mesh::Role::kLeaf : mesh::Role::kRouter;
        nc.sleepyConfig = config.sleepyConfig;
        tb->addNode(id, phy::Position{double(i % cols) * s, double(i / cols) * s}, nc);
    }
    tb->installTreeRoutes();
    return tb;
}

std::unique_ptr<Testbed> Testbed::star(std::size_t n, TestbedConfig config) {
    TCPLP_ASSERT(n >= 2);
    auto tb = std::make_unique<Testbed>(config);

    mesh::NodeConfig rc = config.nodeDefaults;
    rc.role = mesh::Role::kRouter;
    tb->addBorderRouterAndCloud(1, phy::Position{0.0, 0.0}, rc);
    const std::size_t spokes = n - 1;
    for (std::size_t i = 0; i < spokes; ++i) {
        const double angle = 2.0 * 3.14159265358979323846 * double(i) / double(spokes);
        mesh::NodeConfig nc = config.nodeDefaults;
        nc.role = mesh::Role::kRouter;
        tb->addNode(phy::NodeId(i + 2),
                    phy::Position{config.nodeSpacingMeters * std::cos(angle),
                                  config.nodeSpacingMeters * std::sin(angle)},
                    nc);
    }
    tb->installTreeRoutes();
    return tb;
}

double diurnalLossAt(sim::Time now, double nightLoss, double peakLoss) {
    const double hour = std::fmod(sim::toSeconds(now) / 3600.0, 24.0);
    // Office activity envelope: ramp 8-10am, plateau, fall 17-20h.
    double activity = 0.0;
    if (hour >= 8.0 && hour < 10.0) {
        activity = (hour - 8.0) / 2.0;
    } else if (hour >= 10.0 && hour < 17.0) {
        activity = 1.0;
    } else if (hour >= 17.0 && hour < 20.0) {
        activity = (20.0 - hour) / 3.0;
    }
    const double base = nightLoss + (peakLoss - nightLoss) * activity;

    // Interference bursts: short windows (~600 ms) during which the channel
    // is nearly unusable (a microwave turning on, a WiFi bulk transfer).
    // Bursts are what defeat bounded link retries and separate reliable
    // from unreliable transports in Table 8; smooth i.i.d. loss alone is
    // fully masked by ARQ. Deterministic hash of the time bucket keeps runs
    // reproducible.
    const std::uint64_t bucket = std::uint64_t(now / (600 * sim::kMillisecond));
    std::uint64_t h = bucket * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    // Burst frequency scales with activity: ~1.2% of buckets at night,
    // ~6% at peak (one burst every ~10-50 s).
    const double burstRate = 0.012 + 0.05 * activity;
    if (double(h % 10000) / 10000.0 < burstRate) return 0.92;
    return base;
}

}  // namespace tcplp::harness
