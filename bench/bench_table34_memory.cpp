// Tables 3/4: memory usage of TCPlp connection state and buffers.
//
// The paper reports ROM and RAM per module on TinyOS/RIOT; our analogue is
// the in-memory size of the protocol objects: the Tcb (protocol state), the
// full active socket (protocol + timers + callbacks), the passive socket,
// and the configured buffers. `socket_bytes` counts the socket's five
// 16-byte sim::Timers; their callbacks live in the simulator's event pool.
// The headline claim to reproduce: active connection state is a few hundred
// bytes — ~1-2% of mote RAM — while buffers dominate (§4.2, §4.3). The
// reassembly-arena pressure runs put genuine buffer pressure (drops,
// high-water marks) behind the numbers.
#include "bench/driver.hpp"

#include "tcplp/common/arena.hpp"
#include "tcplp/lowpan/frag.hpp"
#include "tcplp/mesh/node.hpp"
#include "tcplp/tcp/recv_buffer.hpp"
#include "tcplp/tcp/send_buffer.hpp"

namespace {
using namespace bench;

/// Drives the six interleaved 900 B datagram flows through a reassembler
/// backed by `arena`, returning delivered count / drops / heap blocks.
void pressureRun(BufferArena& arena, scenario::MetricRow& row, const char* prefix) {
    sim::Simulator simulator;
    std::uint64_t delivered = 0;
    lowpan::Reassembler reasm(
        simulator, [&](ip6::Packet, ip6::ShortAddr) { ++delivered; }, 5 * sim::kSecond,
        &arena);
    std::vector<std::vector<PacketBuffer>> flows;
    for (std::uint16_t s = 1; s <= 6; ++s) {
        ip6::Packet p;
        p.src = ip6::Address::meshLocal(s);
        p.dst = ip6::Address::meshLocal(99);
        p.nextHeader = ip6::kProtoTcp;
        p.payload = patternBytes(s, 900);
        flows.push_back(lowpan::encodeDatagram(p, s, 99, s, 104));
    }
    const std::uint64_t heapBlocksBefore = PacketBuffer::stats().allocations;
    for (std::size_t f = 0; f < flows[0].size(); ++f) {
        for (std::uint16_t s = 1; s <= 6; ++s) {
            if (f < flows[s - 1].size()) reasm.input(s, 99, flows[s - 1][f]);
        }
    }
    const std::string p = prefix;
    row.set(p + "_delivered", delivered)
        .set(p + "_arena_high_water", std::uint64_t(arena.stats().highWaterBytes))
        .set(p + "_overflow_drops",
             reasm.stats().arenaDrops + reasm.stats().slotDrops)
        .set(p + "_heap_blocks", PacketBuffer::stats().allocations - heapBlocksBefore);
}

ScenarioDef def() {
    ScenarioDef d;
    d.name = "table34_memory";
    d.title = "Tables 3/4: TCPlp memory footprint";
    d.measure = [](const ScenarioSpec&, const Point&) {
        scenario::MetricRow row;
        row.set("tcb_bytes", std::uint64_t(sizeof(tcp::Tcb)))
            .set("socket_bytes", std::uint64_t(sizeof(tcp::TcpSocket)))
            .set("passive_bytes", std::uint64_t(sizeof(tcp::PassiveSocket)))
            .set("config_bytes", std::uint64_t(sizeof(tcp::TcpConfig)));

        const tcp::TcpConfig mote;  // defaults = paper's mote configuration
        row.set("send_buffer_bytes", std::uint64_t(mote.sendBufferBytes))
            .set("recv_buffer_bytes",
                 std::uint64_t(mote.recvBufferBytes + mote.recvBufferBytes / 8));

        // Zero-copy send buffer: owned storage stays tiny when the app
        // hands over immutable chunks (§4.3.1).
        tcp::SendBuffer zc(4096);
        auto chunk = std::make_shared<const Bytes>(patternBytes(0, 4096));
        zc.appendShared(chunk);
        row.set("zc_queued_bytes", std::uint64_t(zc.size()))
            .set("zc_owned_bytes", std::uint64_t(zc.ownedBytes()))
            .set("zc_nodes", std::uint64_t(zc.nodeCount()));

        const mesh::NodeConfig nodeDefaults;
        row.set("arena_capacity", std::uint64_t(nodeDefaults.reassemblyArenaBytes))
            .set("arena_slots", std::uint64_t(nodeDefaults.reassemblySlots))
            .set("arena_overhead", std::uint64_t(sizeof(BufferArena)));

        // Pressure run at the default arena, overflow run at half size.
        BufferArena arena(nodeDefaults.reassemblyArenaBytes);
        pressureRun(arena, row, "pressure");
        BufferArena tightArena(nodeDefaults.reassemblyArenaBytes / 2);
        pressureRun(tightArena, row, "overflow");
        row.set("tight_arena_capacity", std::uint64_t(tightArena.capacity()));
        return row;
    };
    d.present = [](const SweepResult& r) {
        const auto& row = r.records.front().row;
        const auto n = [&row](const char* key) { return std::size_t(row.number(key)); };
        std::printf("%-42s %8s\n", "Object", "Bytes");
        std::printf("%-42s %8zu\n", "Tcb (protocol state, RAM-active analogue)",
                    n("tcb_bytes"));
        std::printf("%-42s %8zu\n", "TcpSocket (active socket incl. timers)",
                    n("socket_bytes"));
        std::printf("%-42s %8zu\n", "PassiveSocket (listening state)", n("passive_bytes"));
        std::printf("%-42s %8zu\n", "TcpConfig", n("config_bytes"));

        std::printf("\nBuffers at the default mote configuration (2 KiB each, Sec. 6.2):\n");
        std::printf("%-42s %8zu\n", "send buffer capacity", n("send_buffer_bytes"));
        std::printf("%-42s %8zu\n", "recv buffer capacity (+bitmap)",
                    n("recv_buffer_bytes"));

        const std::size_t hamiltonRam = 32 * 1024;
        std::printf("\nHamilton (Cortex-M0+) RAM: %zu B\n", hamiltonRam);
        std::printf("Tcb as %% of Hamilton RAM: %.2f%% (paper: ~2%% incl. app state)\n",
                    100.0 * row.number("tcb_bytes") / double(hamiltonRam));
        std::printf("Buffers as %% of Hamilton RAM: %.1f%%\n",
                    100.0 * (row.number("send_buffer_bytes") + 2048.0) /
                        double(hamiltonRam));

        std::printf("\nZero-copy send buffer: queued=%zu B, buffer-owned=%zu B, nodes=%zu\n",
                    n("zc_queued_bytes"), n("zc_owned_bytes"), n("zc_nodes"));

        std::printf("\nReassembly arena (per node, mote packet heap):\n");
        std::printf("%-42s %8zu\n", "arena capacity (default)", n("arena_capacity"));
        std::printf("%-42s %8zu\n", "partial-datagram slots", n("arena_slots"));
        std::printf("%-42s %8zu\n", "BufferArena object overhead", n("arena_overhead"));
        std::printf("Arena as %% of Hamilton RAM: %.1f%%\n",
                    100.0 * row.number("arena_capacity") / double(hamiltonRam));

        std::printf("\nPressure run (6 interleaved 900 B datagrams):\n");
        std::printf("%-42s %8zu\n", "datagrams delivered", n("pressure_delivered"));
        std::printf("%-42s %8zu\n", "arena high-water bytes", n("pressure_arena_high_water"));
        std::printf("%-42s %8zu\n", "overflow drops (arena + slots)",
                    n("pressure_overflow_drops"));
        std::printf("%-42s %8zu\n", "heap blocks allocated while gathering",
                    n("pressure_heap_blocks"));

        std::printf("\nOverflow run (same flows, %zu B arena):\n", n("tight_arena_capacity"));
        std::printf("%-42s %8zu\n", "datagrams delivered", n("overflow_delivered"));
        std::printf("%-42s %8zu\n", "arena high-water bytes", n("overflow_arena_high_water"));
        std::printf("%-42s %8zu\n", "overflow drops (arena + slots)",
                    n("overflow_overflow_drops"));
    };
    return d;
}

Registration reg{def()};
}  // namespace
