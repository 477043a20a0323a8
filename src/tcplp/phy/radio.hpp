// AT86RF233-style radio model.
//
// Key calibrated behaviors from the paper:
//  * 250 kb/s air rate, 127 B frames (§5, Table 5).
//  * SPI transfer overhead roughly doubles the effective per-frame cost:
//    a full frame takes 4.1 ms in the air but 8.2 ms end to end (§6.4). We
//    model the SPI copy as a per-byte CPU-busy delay before transmission and
//    after reception.
//  * Optional "deaf listening": the real radio's hardware CSMA drops to a
//    low-power state during backoff and cannot hear incoming frames (§4).
//    TCPlp's fix is software CSMA that keeps the radio in listen mode; both
//    modes are implemented so the ablation bench can quantify the fix.
#pragma once

#include "tcplp/phy/channel.hpp"
#include "tcplp/phy/energy.hpp"
#include "tcplp/phy/frame.hpp"
#include "tcplp/sim/simulator.hpp"

namespace tcplp::phy {

/// The radio's one client, the MAC above it. Every call arrives from a
/// simulator event, except radioTxDone(false) for an unpowered radio,
/// which arrives before transmit() returns.
class RadioClient {
public:
    /// The frame handed to transmit() is finished: `radiated` is true once
    /// its carrier stops, false if the channel was busy at carrier-up or the
    /// radio is unpowered.
    virtual void radioTxDone(bool radiated) = 0;
    /// A frame that survived geometry, collisions and fading, after its SPI
    /// readout.
    virtual void radioReceived(const Frame& frame) = 0;
    /// The "frame pending" bit for the hardware ACK answering `src`.
    virtual bool radioFramePending(NodeId src) = 0;

protected:
    ~RadioClient() = default;
};

class Radio {
public:
    Radio(sim::Simulator& simulator, Channel& channel, NodeId id, Position pos);

    NodeId id() const { return id_; }
    const Position& position() const { return position_; }
    /// Moves the radio; the channel re-files it in the spatial grid index.
    void setPosition(Position pos);
    RadioState state() const { return state_; }
    /// True when transmit() may be called right now: no frame being loaded
    /// or radiated. The MAC's burst path checks this before skipping CCA —
    /// this radio may be mid-ACK for a frame it just received.
    bool txIdle() const { return !txBusy_ && state_ != RadioState::kTx; }
    EnergyMeter& energy() { return energy_; }
    const EnergyMeter& energy() const { return energy_; }
    sim::Simulator& simulator() { return simulator_; }
    Channel& channel() { return channel_; }

    /// SPI transfer time for `bytes` bytes between MCU and radio FIFO.
    sim::Time spiTime(std::size_t bytes) const {
        return sim::Time(double(bytes) * spiMicrosPerByte_);
    }
    void setSpiMicrosPerByte(double v) { spiMicrosPerByte_ = v; }

    /// Moves the radio between SLEEP and LISTEN. Ignored mid-TX/RX.
    void setSleeping(bool sleeping);

    /// Power rail (fault injection). Powering off forces SLEEP, abandons any
    /// in-flight RX lock, and refuses transmissions until powered back on;
    /// setSleeping(false) is a no-op while unpowered. Powering on returns
    /// the transceiver to LISTEN.
    void setPowered(bool on);

    /// Where transmit completions and received frames go. Without a client
    /// the radio still transmits, receives and auto-ACKs.
    void setClient(RadioClient* client) { client_ = client; }

    /// Loads the frame over SPI (CPU busy), re-checks the channel at
    /// carrier-up time (as the AT86RF233's TX_ARET sequence does after the
    /// frame upload), then radiates. The client's radioTxDone(true) follows
    /// when the carrier stops; radioTxDone(false) comes at once if the
    /// channel was busy or a reception was in progress at carrier-up — the
    /// MAC should back off.
    void transmit(const Frame& frame);

    /// Clear-channel assessment (CCA). A sleeping radio cannot sense.
    bool channelClear() const;

    /// Hardware acknowledgment (AT86RF233 AACK): unicast frames addressed
    /// to this radio are ACKed aTurnaroundTime after reception, without
    /// waiting for the MCU to read the frame out over SPI. The client
    /// supplies the "frame pending" bit (indirect-queue state).
    void setAutoAck(bool enabled) { autoAck_ = enabled; }
    std::uint64_t autoAcksSent() const { return autoAcksSent_; }

    // --- Channel-facing interface -------------------------------------
    void airStarted(std::uint64_t txId);
    void airCollided();
    void airFinished(std::uint64_t txId, const Frame& frame, bool corrupted);

private:
    void changeState(RadioState next);
    /// Immediate carrier-up for `frame` (caller has done all gating).
    /// `fromTransmit` is true for transmit()'s frame, whose end of air
    /// completes it, and false for a hardware auto-ACK.
    void radiate(const Frame& frame, bool fromTransmit);
    /// The state to return to when idle: LISTEN normally, SLEEP when the
    /// power rail is off.
    RadioState idleState() const { return powered_ ? RadioState::kListen : RadioState::kSleep; }

    sim::Simulator& simulator_;
    Channel& channel_;
    NodeId id_;
    Position position_;
    RadioState state_ = RadioState::kListen;
    EnergyMeter energy_;
    /// Calibrated so that a full-size 127 B frame costs ~8.2 ms end to end
    /// (air 4.26 ms + SPI + mean CSMA backoff + CCA), matching the paper's
    /// measured per-frame time (§6.4).
    double spiMicrosPerByte_ = 21.0;

    RadioClient* client_ = nullptr;
    bool autoAck_ = true;
    bool powered_ = true;
    bool txBusy_ = false;  // covers the SPI-load + air phases of transmit()
    // txBusy_ admits at most one transmit() in flight, so the pending frame
    // lives here instead of inside the scheduled closure — the event-queue
    // lambdas stay within SmallFn's inline storage.
    Frame txFrame_;
    // Reception attempt tracking (one frame at a time).
    std::uint64_t rxTxId_ = 0;
    bool rxCorrupted_ = false;
    std::uint64_t autoAcksSent_ = 0;
};

}  // namespace tcplp::phy
