// The anemometer application study (§9): four duty-cycled sensor nodes
// (ids 12-15 in the office testbed, Fig. 3) stream 82-byte readings at 1 Hz
// to a cloud server, over one of four transports:
//
//   kTcp        — TCPlp sockets (full-scale TCP), app queue 64 readings;
//   kCoap       — confirmable CoAP with blockwise batches, queue 104;
//   kCocoa      — CoAP + CoCoA congestion control;
//   kUnreliable — non-confirmable CoAP (no ARQ), the §9.6 baseline.
//
// Knobs reproduce the paper's scenarios: batching on/off (Fig. 8), loss
// injected at the border router (Fig. 9), and a diurnal interference
// profile over 24 hours (Fig. 10 / Table 8).
#pragma once

#include <memory>
#include <vector>

#include "tcplp/app/sensor.hpp"
#include "tcplp/coap/coap.hpp"
#include "tcplp/harness/testbed.hpp"
#include "tcplp/tcp/tcp.hpp"
#include "tcplp/transport/udp.hpp"

namespace tcplp::harness {

enum class SensorProtocol : std::uint8_t { kTcp, kCoap, kCocoa, kUnreliable };

const char* protocolName(SensorProtocol p);

struct AnemometerOptions {
    SensorProtocol protocol = SensorProtocol::kTcp;
    bool batching = true;
    sim::Time duration = 30 * sim::kMinute;  // measurement window
    sim::Time warmup = 2 * sim::kMinute;     // connection setup, excluded
    sim::Time drain = 3 * sim::kMinute;      // post-run flush, included in reliability
    double injectedLoss = 0.0;               // at the border router (§9.4)
    bool diurnal = false;                    // 24 h ambient profile (§9.5)
    double nightLoss = 0.01;
    double peakLoss = 0.12;
    std::size_t mssFrames = 5;               // 3 for the daytime study (§9.5)
    /// Congestion-control strategy for the sensors' TCP sockets; threaded
    /// through mesh::NodeConfig::tcpCc so the rig reads it off its node.
    tcp::CcKind cc = tcp::CcKind::kNewReno;
    std::uint64_t seed = 1;
    /// Optional delivery-log tap installed on the testbed channel.
    phy::Channel::DeliveryTap deliveryTap;
};

struct AnemometerResult {
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    double reliability = 0.0;   // delivered / generated (§9.2)
    double radioDutyCycle = 0.0;  // mean over sensor nodes
    double cpuDutyCycle = 0.0;
    std::uint64_t transportRetransmissions = 0;  // TCP rexmits or CoAP retries
    std::uint64_t tcpTimeouts = 0;               // RTO subset (Fig. 9b)
    /// Fig. 10: per-hour mean radio duty cycle (diurnal runs only).
    std::vector<double> hourlyRadioDutyCycle;
    /// Rng::stateDigest at run end; sweep determinism tests compare runs
    /// executed serially vs on worker threads through this.
    std::uint64_t rngDigest = 0;
};

AnemometerResult runAnemometer(const AnemometerOptions& options);

}  // namespace tcplp::harness
