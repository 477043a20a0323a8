// Test-only phy::RadioClient: attaches to a bare Radio (no MAC on top) and
// hands every received frame to a test's callback. Transmit completions are
// ignored and the auto-ACK pending bit is never set.
#pragma once

#include <functional>
#include <utility>

#include "tcplp/phy/radio.hpp"

namespace tcplp::test {

class RadioProbe final : public phy::RadioClient {
public:
    RadioProbe(phy::Radio& radio, std::function<void(const phy::Frame&)> onReceive)
        : onReceive_(std::move(onReceive)) {
        radio.setClient(this);
    }

    void radioTxDone(bool) override {}
    void radioReceived(const phy::Frame& frame) override { onReceive_(frame); }
    bool radioFramePending(phy::NodeId) override { return false; }

private:
    std::function<void(const phy::Frame&)> onReceive_;
};

}  // namespace tcplp::test
