#include "probes.hpp"

#include "stats.hpp"
#include "tcplp/common/arena.hpp"
#include "tcplp/common/assert.hpp"
#include "tcplp/lowpan/frag.hpp"
#include "tcplp/sim/simulator.hpp"
#include "tcplp/tcp/segment.hpp"

namespace tcplp::bm {
namespace {

constexpr int kReps = 5;
constexpr std::int64_t kRepNs = 200'000'000;

/// Median over kReps repetitions of ns per operation; `batch` performs some
/// operations and returns how many.
template <typename Batch>
double medianNsPerOp(Batch&& batch) {
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
        std::uint64_t ops = 0;
        const std::int64_t t0 = nowNs();
        std::int64_t elapsed = 0;
        do {
            ops += batch();
            elapsed = nowNs() - t0;
        } while (elapsed < kRepNs);
        reps.push_back(double(elapsed) / double(ops));
    }
    return median(std::move(reps));
}

/// A data segment as the workloads send it: ACK flag, timestamps option,
/// `payloadBytes` of payload.
tcp::Segment dataSegment(std::size_t payloadBytes) {
    tcp::Segment seg;
    seg.srcPort = 49152;
    seg.dstPort = 80;
    seg.seq = 1000;
    seg.ack = 2000;
    seg.flags.ack = true;
    seg.setWindowBytes(4096, 0);
    seg.timestamps = tcp::Timestamps{123456, 654321};
    seg.payload = PacketBuffer::copyOf(patternBytes(0, payloadBytes));
    return seg;
}

/// The IPv6 packet carrying a data segment from a mote to the cloud.
ip6::Packet dataDatagram(const ProbeShape& shape) {
    ip6::Packet p;
    p.src = ip6::Address::meshLocal(10);
    p.dst = ip6::Address::cloud(1000);
    p.nextHeader = ip6::kProtoTcp;
    p.payload = dataSegment(shape.segmentBytes).encode();
    return p;
}

}  // namespace

double probeSchedulerNsPerEvent(std::size_t pending) {
    sim::Simulator sim(1);
    // Background load: events far beyond anything the probe runs to.
    constexpr sim::Time kFar = sim::Time(1) << 50;
    for (std::size_t i = 0; i < pending; ++i) sim.scheduleAt(kFar + sim::Time(i), [] {});
    sim::Rng rng(7);
    std::uint64_t fired = 0;
    return medianNsPerOp([&] {
        constexpr int kBatch = 256;
        constexpr sim::Time kHorizon = 10 * sim::kMillisecond;
        const sim::Time base = sim.now();
        for (int i = 0; i < kBatch; ++i)
            sim.schedule(sim::Time(1 + rng.uniformInt(kHorizon)), [&fired] { ++fired; });
        sim.runUntil(base + kHorizon + 1);
        return std::uint64_t(kBatch);
    });
}

double probeLowpanNsPerDatagram(const ProbeShape& shape) {
    sim::Simulator sim(1);  // installs the frame-storage pool, as in a run
    BufferArena arena(8192);
    std::uint64_t delivered = 0;
    lowpan::Reassembler reassembler(
        sim, [&delivered](ip6::Packet, ip6::ShortAddr) { ++delivered; }, 5 * sim::kSecond,
        &arena);
    const ip6::Packet base = dataDatagram(shape);
    std::vector<PacketBuffer> frames;
    std::uint16_t tag = 0;
    std::uint64_t sent = 0;
    const double ns = medianNsPerOp([&] {
        constexpr int kBatch = 64;
        for (int i = 0; i < kBatch; ++i) {
            ip6::Packet p = base;
            p.payload = PacketBuffer::copyOf(base.payload.view());
            lowpan::encodeDatagramInto(std::move(p), 10, 1, ++tag, shape.macPayloadBudget,
                                       frames);
            for (const PacketBuffer& f : frames) reassembler.input(10, 1, f);
        }
        sent += kBatch;
        return std::uint64_t(kBatch);
    });
    TCPLP_ASSERT(delivered == sent);
    return ns;
}

std::size_t framesPerDatagram(const ProbeShape& shape) {
    return lowpan::frameCountFor(dataDatagram(shape), 10, 1, shape.macPayloadBudget);
}

double probeSegmentNsPerSegment(const ProbeShape& shape) {
    sim::Simulator sim(1);
    const tcp::Segment seg = dataSegment(shape.segmentBytes);
    std::uint64_t bytes = 0;
    const double ns = medianNsPerOp([&] {
        constexpr int kBatch = 64;
        for (int i = 0; i < kBatch; ++i) {
            const PacketBuffer wire = seg.encode();
            const auto decoded = tcp::Segment::decode(wire);
            TCPLP_ASSERT(decoded.has_value());
            bytes += decoded->payload.size();
        }
        return std::uint64_t(kBatch);
    });
    TCPLP_ASSERT(bytes > 0);
    return ns;
}

}  // namespace tcplp::bm
