// The benchmark's four workloads, built directly from the public harness,
// scenario::buildTestbed, tcp and app APIs.
//
// One episode = build a testbed, open its stacks/sockets/schedules, advance
// simulated time through the workload's phases, collect the simulated
// outcome. Everything simulated is a pure function of the episode seed; the
// workload's own schedule (start phases) draws from Rng::deriveStream and
// never from the simulation RNG.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tcplp/harness/testbed.hpp"
#include "tcplp/tcp/tcp.hpp"
#include "trace.hpp"

namespace tcplp::bm {

/// Advances simulated time. The untraced clock calls Simulator::runUntil
/// once per phase; the traced clock cuts each phase into 10 s slices.
class Clock {
public:
    virtual ~Clock() = default;
    virtual void runUntil(sim::Time until) = 0;
};

/// Simulated outcome of one episode (deterministic for its seed).
struct SimMetrics {
    std::uint64_t rngDigest = 0;
    std::uint64_t frames = 0;          // radio frames over the whole episode
    double windowS = 0.0;              // simulated measurement window
    std::uint64_t bytesVerified = 0;   // application bytes verified in the window
    std::vector<double> perFlowBytes;  // fairness input (flow, sensor or mote)
    std::vector<double> rttMs;         // sender TCP RTT samples, whole ms
    std::vector<double> opLatencyS;    // due -> last byte verified
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double radioDc = 0.0;              // mean over the workload's motes
    std::uint64_t queueDrops = 0;      // app-queue overflow (sensor readings)
    std::uint64_t connsOpened = 0;     // active opens
    std::uint64_t connsFailed = 0;     // connections that errored
    std::uint64_t teardownResets = 0;  // RSTs after the report was delivered
    std::vector<double> handshakeMs;   // connect() -> established
    std::size_t liveSocketsMax = 0;
    bool correct = true;
    std::string error;                 // first verification failure

    void fail(const std::string& why) {
        if (correct) error = why;
        correct = false;
    }
    bool operator==(const SimMetrics&) const = default;
};

/// Every TCP socket a workload creates or accepts. Sockets the workload
/// destroys mid-run fold their counters into the retired totals first.
class SocketLedger {
public:
    void add(tcp::TcpSocket& s, bool sender);
    void retire(tcp::TcpSocket& s);
    void addCounters(Counters& c) const;
    /// Merged RTT samples of every sending socket, live and retired.
    std::vector<double> senderRttMs() const;
    std::size_t maxLive() const { return maxLive_; }

private:
    struct Entry {
        tcp::TcpSocket* socket;
        bool sender;
    };
    static void fold(const tcp::TcpSocket& s, Counters& c);
    std::vector<Entry> live_;
    Counters retired_{};
    std::vector<double> retiredRtt_;
    std::size_t maxLive_ = 0;
};

class Episode {
public:
    virtual ~Episode() = default;
    harness::Testbed& testbed() { return *tb_; }
    /// Creates stacks, sockets and schedules (the constructor built the testbed).
    virtual void open() = 0;
    virtual void run(Clock& clock) = 0;
    virtual SimMetrics finish() = 0;
    /// Snapshot of the public layer counters right now.
    Counters counters();

protected:
    std::unique_ptr<harness::Testbed> tb_;
    SocketLedger ledger_;
};

/// Inputs of the layer probes, taken from the workload's configuration.
struct ProbeShape {
    std::size_t segmentBytes = 0;      // payload of the workload's data segments
    std::size_t macPayloadBudget = 0;  // 6LoWPAN fragmentation budget
};

struct WorkloadDef {
    const char* name;
    ProbeShape probe;
    /// `scale` shortens every phase (1 = the benchmark's length, 1/20 for
    /// --check).
    std::unique_ptr<Episode> (*make)(std::uint64_t seed, double scale);
};

const std::vector<WorkloadDef>& workloads();
const WorkloadDef* findWorkload(const std::string& name);

}  // namespace tcplp::bm
