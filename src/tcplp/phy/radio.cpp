#include "tcplp/phy/radio.hpp"

#include "tcplp/common/assert.hpp"
#include "tcplp/common/log.hpp"

namespace tcplp::phy {

Radio::Radio(sim::Simulator& simulator, Channel& channel, NodeId id, Position pos)
    : simulator_(simulator), channel_(channel), id_(id), position_(pos) {
    channel_.addRadio(this);
}

void Radio::setPosition(Position pos) {
    const Position old = position_;
    position_ = pos;
    channel_.radioMoved(this, old);
}

void Radio::changeState(RadioState next) {
    if (next == state_) return;
    energy_.radioTransition(state_, next, simulator_.now());
    state_ = next;
}

void Radio::setSleeping(bool sleeping) {
    if (sleeping) {
        if (state_ == RadioState::kTx) return;  // cannot sleep mid-transmit
        if (state_ == RadioState::kRx) {
            // Abandon the in-flight reception attempt.
            rxTxId_ = 0;
        }
        changeState(RadioState::kSleep);
    } else if (state_ == RadioState::kSleep && powered_) {
        changeState(RadioState::kListen);
    }
}

void Radio::setPowered(bool on) {
    if (on == powered_) return;
    powered_ = on;
    if (!on) {
        // The rail drops instantly: any reception lock is lost and a frame
        // mid-air from this radio dies with the carrier (receivers stay
        // locked on the txId and see it end; rxTxId mismatch elsewhere is
        // impossible since the carrier object lives in the channel).
        rxTxId_ = 0;
        rxCorrupted_ = false;
        changeState(RadioState::kSleep);
    } else {
        changeState(RadioState::kListen);
    }
}

bool Radio::channelClear() const {
    if (state_ == RadioState::kSleep) return false;  // cannot sense while asleep
    if (state_ == RadioState::kRx) return false;     // mid-reception: busy
    if (state_ == RadioState::kTx) return false;     // own carrier up
    if (txBusy_) return false;                       // frame being loaded/ACK pending
    return channel_.clearAt(this);
}

void Radio::transmit(const Frame& frame) {
    TCPLP_ASSERT(state_ != RadioState::kTx);
    TCPLP_ASSERT(!txBusy_);
    if (!powered_) {
        // Unpowered transceiver: fail fast so the MAC backs off/retries.
        if (client_) client_->radioTxDone(false);
        return;
    }
    txBusy_ = true;
    txFrame_ = frame;
    if (state_ == RadioState::kSleep) changeState(RadioState::kListen);

    // SPI load: the MCU copies the frame into the radio FIFO. This is the
    // overhead that halves effective throughput in §6.4. Hardware-generated
    // ACKs skip it. The radio keeps listening during the load.
    const sim::Time load = (frame.type == FrameType::kAck) ? 0 : spiTime(frame.mpduBytes());
    energy_.addCpuBusy(load);
    simulator_.schedule(load, [this] {
        // Final clear-channel check at carrier-up time: a frame may have
        // started (or be arriving at us) during the SPI load, or our own
        // hardware auto-ACK may be in the air.
        if (!powered_ || state_ == RadioState::kRx || state_ == RadioState::kTx ||
            !channel_.clearAt(this)) {
            txBusy_ = false;
            if (client_) client_->radioTxDone(false);
            return;
        }
        radiate(txFrame_, true);
    });
}

void Radio::radiate(const Frame& frame, bool fromTransmit) {
    TCPLP_ASSERT(state_ != RadioState::kTx);
    changeState(RadioState::kTx);
    channel_.startTransmission(this, frame);
    simulator_.schedule(channel_.frameAirTime(frame), [this, fromTransmit] {
        changeState(idleState());
        if (!fromTransmit) return;
        txBusy_ = false;
        if (client_) client_->radioTxDone(true);
    });
}

void Radio::airStarted(std::uint64_t txId) {
    switch (state_) {
        case RadioState::kListen:
            // Begin a reception attempt on the new carrier.
            changeState(RadioState::kRx);
            rxTxId_ = txId;
            rxCorrupted_ = false;
            break;
        case RadioState::kRx:
            // A second audible carrier while receiving: collision. Both the
            // in-flight frame and the new one are lost at this radio.
            rxCorrupted_ = true;
            break;
        case RadioState::kSleep:
        case RadioState::kTx:
            break;  // deaf to the channel
    }
}

void Radio::airFinished(std::uint64_t txId, const Frame& frame, bool faded) {
    if (rxTxId_ != txId) return;  // we were not locked onto this frame
    const bool corrupted = rxCorrupted_ || faded;
    if (rxCorrupted_) channel_.noteCollision();
    rxTxId_ = 0;
    rxCorrupted_ = false;
    if (state_ == RadioState::kRx) changeState(idleState());
    if (corrupted) return;

    // Hardware auto-ACK (AACK): fires aTurnaroundTime after the frame, in
    // parallel with the SPI readout below.
    if (autoAck_ && frame.ackRequest && frame.dst == id_ &&
        frame.type != FrameType::kAck) {
        Frame ack;
        ack.type = FrameType::kAck;
        ack.src = id_;
        ack.dst = frame.src;
        ack.seq = frame.seq;
        ack.framePending = client_ && client_->radioFramePending(frame.src);
        simulator_.schedule(192, [this, ack = std::move(ack)] {  // aTurnaroundTime = 12 symbols
            // The AACK engine bypasses the frame FIFO, so an in-progress
            // SPI upload (txBusy_) does not block it — only an actually
            // radiating or sleeping transceiver loses the ACK.
            if (state_ == RadioState::kSleep || state_ == RadioState::kTx) return;
            if (state_ == RadioState::kRx) rxTxId_ = 0;  // turnaround aborts RX
            ++autoAcksSent_;
            radiate(ack, false);
        });
    }

    // SPI readout before the MAC sees the bytes (ACK frames are consumed by
    // the transceiver front-end without a readout).
    const sim::Time readout =
        (frame.type == FrameType::kAck) ? 32 : spiTime(frame.mpduBytes());
    energy_.addCpuBusy(readout);
    // Init-capture: a plain `[this, frame]` capture of the const-reference
    // parameter would give the closure a `const Frame` member, whose "move"
    // is a copy — init-capture deduces a mutable Frame, keeping the closure
    // nothrow-move-constructible and inside SmallFn's inline storage.
    simulator_.schedule(readout, [this, frame = frame] {
        if (client_) client_->radioReceived(frame);
    });
}

}  // namespace tcplp::phy
