// Layer probes: host cost of three public call sequences, each fed inputs
// shaped like the workload's. They stand in for per-layer busy time, which
// cannot be measured from outside Simulator::runUntil. Each result is the
// median of 5 repetitions of at least 0.2 s.
#pragma once

#include <cstddef>

#include "workloads.hpp"

namespace tcplp::bm {

/// sim::Simulator::schedule plus runUntil with `pending` other events pending.
double probeSchedulerNsPerEvent(std::size_t pending);

/// lowpan::encodeDatagram plus Reassembler::input of one TCP datagram.
double probeLowpanNsPerDatagram(const ProbeShape& shape);

/// MAC payloads one data datagram of this shape fragments into.
std::size_t framesPerDatagram(const ProbeShape& shape);

/// tcp::Segment::encode plus decode of one data segment.
double probeSegmentNsPerSegment(const ProbeShape& shape);

}  // namespace tcplp::bm
