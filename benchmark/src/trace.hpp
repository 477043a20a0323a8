// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into the library, per-slice layer-counter deltas, and callback hooks.
//
// Spans stay in memory and are written once, at exit, as Chrome trace-event
// JSON. Nothing here runs inside the library: host time spent inside
// Simulator::runUntil cannot be split among phy/mac/tcp from out here, which
// is why the per-layer host costs come from the probes (probes.hpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tcplp::bm {

/// Heap allocations made by the process so far (counting operator new).
std::uint64_t allocCount();

inline std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Cumulative public layer counters, summed over every node of a testbed
// (plus the process-wide datapath counters). A snapshot is an array indexed
// by Counter; slice spans carry the deltas between consecutive snapshots.
#define TCPLP_BM_COUNTERS(X)                                   \
    X(kSimScheduled, "sim.scheduled")                          \
    X(kSimRescheduled, "sim.rescheduled")                      \
    X(kSimFired, "sim.fired")                                  \
    X(kSimCancelled, "sim.cancelled")                          \
    X(kPhyFrames, "phy.frames")                                \
    X(kPhyCollided, "phy.collided")                            \
    X(kPhyFaded, "phy.faded")                                  \
    X(kPhyDeliveryEvents, "phy.delivery_events")               \
    X(kPhyListenerVisits, "phy.listener_visits")               \
    X(kPhyNeighborRebuilds, "phy.neighbor_rebuilds")           \
    X(kPhyNeighborRevalidations, "phy.neighbor_revalidations") \
    X(kMacPayloads, "mac.payloads")                            \
    X(kMacDelivered, "mac.delivered")                          \
    X(kMacFailed, "mac.failed")                                \
    X(kMacTransmissions, "mac.transmissions")                  \
    X(kMacRetries, "mac.retries")                              \
    X(kMacCcaFailures, "mac.cca_failures")                     \
    X(kMacAggregated, "mac.aggregated_frames")                 \
    X(kMacPolls, "mac.polls")                                  \
    X(kMeshSent, "mesh.sent")                                  \
    X(kMeshForwarded, "mesh.forwarded")                        \
    X(kMeshDelivered, "mesh.delivered")                        \
    X(kMeshForwardDrops, "mesh.forward_drops")                 \
    X(kMeshNoRouteDrops, "mesh.no_route_drops")                \
    X(kMeshDeepCopies, "mesh.deep_copies")                     \
    X(kLowpanReassembled, "lowpan.reassembled")                \
    X(kLowpanReassemblyDrops, "lowpan.reassembly_drops")       \
    X(kLowpanPrependFallbacks, "lowpan.prepend_fallbacks")     \
    X(kIp6Enqueued, "ip6.queue_enqueued")                      \
    X(kIp6TailDrops, "ip6.queue_tail_drops")                   \
    X(kTcpSegsSent, "tcp.segs_sent")                           \
    X(kTcpSegsReceived, "tcp.segs_received")                   \
    X(kTcpRexmits, "tcp.rexmits")                              \
    X(kTcpFastRexmits, "tcp.fast_rexmits")                     \
    X(kTcpSackRexmits, "tcp.sack_rexmits")                     \
    X(kTcpTimeouts, "tcp.timeouts")                            \
    X(kTcpDupAcks, "tcp.dup_acks")                             \
    X(kTcpHeaderPredictions, "tcp.header_predictions")         \
    X(kTcpLossCuts, "tcp.loss_cuts")                           \
    X(kPoolRecycled, "common.pool_recycled")                   \
    X(kPoolFresh, "common.pool_fresh")                         \
    X(kPbufDeepCopies, "common.pbuf_deep_copies")              \
    X(kPbufCopiedBytes, "common.pbuf_copied_bytes")            \
    X(kSmallFnHeapFallbacks, "common.smallfn_heap_fallbacks")  \
    X(kHeapAllocs, "common.heap_allocs")

#define TCPLP_BM_ENUM(id, name) id,
enum Counter : std::size_t { TCPLP_BM_COUNTERS(TCPLP_BM_ENUM) kCounterCount };
#undef TCPLP_BM_ENUM

#define TCPLP_BM_NAME(id, name) name,
inline constexpr const char* kCounterNames[kCounterCount] = {TCPLP_BM_COUNTERS(TCPLP_BM_NAME)};
#undef TCPLP_BM_NAME

using Counters = std::array<std::uint64_t, kCounterCount>;

inline Counters operator-(const Counters& a, const Counters& b) {
    Counters d{};
    for (std::size_t i = 0; i < kCounterCount; ++i) d[i] = a[i] - b[i];
    return d;
}

/// The benchmark's own callbacks and calls into the library. app.* hooks
/// (listed first) are benchmark code; tcp.* hooks are library calls made
/// from that code, so their time is library time even though the benchmark
/// initiated it.
enum class Hook : std::uint8_t {
    kOnData,
    kOnConnected,
    kOnSendSpace,
    kOnTimer,
    kTcpConnect,
    kTcpSend,
    kCount
};
inline constexpr std::size_t kHookCount = std::size_t(Hook::kCount);
inline constexpr const char* kHookNames[kHookCount] = {
    "app.on_data", "app.on_connected", "app.on_send_space",
    "app.on_timer", "tcp.connect", "tcp.send"};

struct HookTotals {
    std::array<std::uint64_t, kHookCount> count{};
    std::array<std::int64_t, kHookCount> ns{};
    /// Time inside app.* hooks minus the library calls nested in them: the
    /// benchmark's own cost.
    std::int64_t appSelfNs = 0;

    HookTotals operator-(const HookTotals& o) const {
        HookTotals d;
        for (std::size_t i = 0; i < kHookCount; ++i) {
            d.count[i] = count[i] - o.count[i];
            d.ns[i] = ns[i] - o.ns[i];
        }
        d.appSelfNs = appSelfNs - o.appSelfNs;
        return d;
    }
};

struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> args;
};

/// In-memory span recorder plus hook accounting for one traced episode.
class Tracer {
public:
    explicit Tracer(std::string traceId) : traceId_(std::move(traceId)) {}

    int begin(std::string name, int parent);
    void end(int span) { spans_[std::size_t(span)].endNs = nowNs(); }
    void arg(int span, std::string key, double value) {
        spans_[std::size_t(span)].args.emplace_back(std::move(key), value);
    }
    const std::vector<Span>& spans() const { return spans_; }
    /// Duration minus the part covered by direct children.
    std::int64_t selfNs(int span) const;

    void enter(Hook h);
    void exit();
    const HookTotals& hooks() const { return hooks_; }

    /// Writes every span as a Chrome trace-event ("X") record.
    bool writeChromeJson(const std::string& path) const;

private:
    struct Frame {
        Hook hook;
        std::int64_t startNs;
        std::int64_t childNs;
    };
    std::string traceId_;
    std::vector<Span> spans_;
    std::vector<Frame> stack_;
    HookTotals hooks_;
};

/// The active tracer, or null in untraced runs (hooks then cost a branch).
extern Tracer* g_tracer;

/// Times one hook when tracing; a no-op otherwise.
class HookScope {
public:
    explicit HookScope(Hook h) : active_(g_tracer != nullptr) {
        if (active_) g_tracer->enter(h);
    }
    ~HookScope() {
        if (active_) g_tracer->exit();
    }
    HookScope(const HookScope&) = delete;
    HookScope& operator=(const HookScope&) = delete;

private:
    bool active_;
};

}  // namespace tcplp::bm
