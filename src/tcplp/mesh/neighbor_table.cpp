#include "tcplp/mesh/neighbor_table.hpp"

namespace tcplp::mesh {

void NeighborTable::onTxOutcome(phy::NodeId neighbor, bool acked) {
    if (!config_.enabled) return;
    Entry& e = entry(neighbor);
    if (acked) {
        e.consecutiveFailures = 0;
        if (e.dead) {
            e.dead = false;
            ++stats_.revivals;
        }
        return;
    }
    ++e.consecutiveFailures;
    if (!e.dead && e.consecutiveFailures >= config_.failureThreshold) {
        e.dead = true;
        ++stats_.deadMarks;
        armProbe(e);
    }
}

void NeighborTable::armProbe(Entry& e) {
    if (config_.probeInterval <= 0 || !probeSender_ || e.probe.running()) return;
    sim::Time delay = config_.probeInterval;
    if (config_.probeJitterMax > 0)
        delay += probeRng_.uniformRange(0, config_.probeJitterMax);
    e.probe.start(delay);
}

void NeighborTable::onProbeTimer(phy::NodeId neighbor) {
    Entry& e = entries_.find(neighbor)->second;
    if (!e.dead) return;  // revived by organic traffic
    ++stats_.probesSent;
    probeSender_(neighbor);
    // Keep probing until something gets through. The probe's own MAC
    // verdict flows back through onTxOutcome like any other payload.
    armProbe(e);
}

}  // namespace tcplp::mesh
