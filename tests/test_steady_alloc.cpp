// Steady-state allocation regression (own binary: it replaces the global
// operator new with a counting shim, which must not leak into tcplp_tests).
//
// Pins the tentpole invariant of the megascale datapath: once TCP ramps up,
// the simulator serves frames, segments and events from recycled storage —
// approximately zero heap allocations per delivered frame — and the two
// heap-fallback escape hatches (SmallFn closures, PacketBuffer::prepend)
// stay cold — on a 3-hop bulk line and on the golden corpus's 120-node city
// grid. CMake keeps this TU out of the tcplp_tests glob and links it as
// `tcplp_steady_alloc`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "tcplp/common/packet_buffer.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/sim/small_fn.hpp"

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
constexpr bool kCountingNew =
#if defined(__SANITIZE_ADDRESS__)
    false;  // ASan interposes allocation; the shim below is compiled out.
#else
    true;
#endif
}  // namespace

#if !defined(__SANITIZE_ADDRESS__)
void* operator new(std::size_t n) {
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

/// Steady-state window sampler fed by the channel delivery tap: frames are
/// (tick, transmitter) transitions, the window opens at `warmup` and tracks
/// the allocation counter at every delivery, so setup, TCP ramp and
/// teardown stay out of the measurement.
struct SteadyProbe {
    sim::Time warmup = 0;
    bool armed = false;
    std::uint64_t frames = 0;
    std::uint64_t allocsAtWarm = 0, framesAtWarm = 0, allocsLast = 0;
    sim::Time lastNow = -1;
    phy::NodeId lastSrc = 0;

    void onDelivery(sim::Time now, phy::NodeId src) {
        if (now != lastNow || src != lastSrc) {
            ++frames;
            lastNow = now;
            lastSrc = src;
        }
        allocsLast = g_allocCount.load(std::memory_order_relaxed);
        if (!armed && now >= warmup) {
            armed = true;
            allocsAtWarm = allocsLast;
            framesAtWarm = frames;
        }
    }
};

/// Runs `spec` with the probe on its delivery tap (window opens at
/// `warmup`) and checks the steady-state bounds: < 0.05 heap allocations
/// per delivered frame and no SmallFn heap fallbacks. `run` executes the
/// spec; it returns false if the workload itself failed.
template <typename Run>
void expectSteadyStateAllocationFree(ScenarioSpec spec, sim::Time warmup,
                                     std::uint64_t minFrames, Run run) {
    auto probe = std::make_shared<SteadyProbe>();
    probe->warmup = warmup;
    spec.workload.deliveryTap = [probe](sim::Time now, phy::NodeId src, phy::NodeId,
                                        std::size_t, bool) {
        probe->onDelivery(now, src);
    };

    const std::uint64_t smallFn0 = sim::SmallFn::heapFallbacks();
    ASSERT_TRUE(run(spec));

    ASSERT_TRUE(probe->armed) << "run ended before the warmup window";
    const std::uint64_t steadyFrames = probe->frames - probe->framesAtWarm;
    const std::uint64_t steadyAllocs = probe->allocsLast - probe->allocsAtWarm;
    ASSERT_GT(steadyFrames, minFrames);
    const double perFrame = double(steadyAllocs) / double(steadyFrames);
    EXPECT_LT(perFrame, 0.05) << steadyAllocs << " allocs over " << steadyFrames
                              << " frames";

    // Every event closure fit the scheduler's inline storage: the relay
    // copy-on-writes these runs perform (prepend at forwarding nodes) are
    // slab-served, which is exactly why allocs/frame stays ~0 above.
    EXPECT_EQ(sim::SmallFn::heapFallbacks(), smallFn0);
}

}  // namespace

TEST(SteadyAlloc, ThreeHopBulkRunsAllocationFree) {
    if (!kCountingNew) GTEST_SKIP() << "allocation counting disabled under ASan";

    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::kLine;
    spec.topology.hops = 3;
    spec.workload.kind = WorkloadKind::kBulk;
    spec.workload.totalBytes = 200000;
    expectSteadyStateAllocationFree(spec, 10 * sim::kSecond, 1000,
                                    [](const ScenarioSpec& s) {
                                        return runBulk(s, 1).contentOk;
                                    });
}

TEST(SteadyAlloc, CityGridRunsAllocationFree) {
    if (!kCountingNew) GTEST_SKIP() << "allocation counting disabled under ASan";

    // The golden corpus's reduced city grid: 120 nodes, 24 saturating
    // mixed-direction flows, 15 simulated seconds.
    const ScenarioSpec spec = cityScaleSpec(15 * sim::kSecond, 120);
    expectSteadyStateAllocationFree(spec, spec.workload.multiFlowDuration / 3, 5000,
                                    [](const ScenarioSpec& s) {
                                        return runMultiFlow(s, 1).aggregateKbps > 0.0;
                                    });
}

TEST(SteadyAlloc, EndpointEncodeKeepsPrependFallbackCold) {
    // Single hop: mote and border router originate every datagram they
    // send, so the kDefaultHeadroom budget must cover TCP framing + IPHC
    // and the prepend slow path must never fire. (Relays DO hit it — the
    // upstream sender still holds the frame for link retries, so the
    // forwarding re-encode is a mandatory, counted, slab-served copy.)
    for (const bool uplink : {true, false}) {
        ScenarioSpec spec;
        spec.topology.kind = TopologyKind::kLine;
        spec.topology.hops = 1;
        spec.workload.kind = WorkloadKind::kBulk;
        spec.workload.totalBytes = 50000;
        spec.workload.uplink = uplink;
        const std::uint64_t prepend0 = PacketBuffer::stats().prependFallbacks;
        const BulkRunResult r = runBulk(spec, 1);
        ASSERT_TRUE(r.contentOk);
        EXPECT_EQ(PacketBuffer::stats().prependFallbacks, prepend0)
            << "uplink=" << uplink;
    }
}
