// Receive buffer with in-place reassembly queue (paper §4.3.2, Figure 1b).
//
// A flat circular buffer sized at compile/construct time holds the
// in-sequence stream; out-of-order segments are written directly into the
// space past the received data — their eventual position — and a bitmap
// records which of those bytes are valid. When the gap fills, the contiguous
// run is "committed" into the in-sequence region without any copying.
//
// This gives deterministic memory use (the paper's motivation for rejecting
// FreeBSD's mbuf-chain buffers): buffer space is reserved up front and no
// packet-heap allocation happens on the receive path.
//
// Cost model: the bitmap is indexed from rcv_nxt and works on 64-bit words
// below its high-water mark (common/bitmap.hpp), so the host cost of one
// insert, SACK-block scan or out-of-order count grows with the extent of
// the parked out-of-order data — about one word per 64 bytes from rcv_nxt
// to the highest parked byte — and not with capacity(). In-order traffic
// with nothing parked touches only the words of the segment itself. The
// byte copies in and out of the ring are at most two contiguous spans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tcplp/common/bitmap.hpp"
#include "tcplp/common/ring_buffer.hpp"

namespace tcplp::tcp {

struct RecvRange {
    std::size_t begin;  // offset past rcv_nxt
    std::size_t end;
};

class RecvBuffer {
public:
    explicit RecvBuffer(std::size_t capacity) : ring_(capacity), oooMap_(capacity) {}

    std::size_t capacity() const { return ring_.capacity(); }
    /// In-sequence bytes awaiting the application.
    std::size_t readable() const { return ring_.size(); }
    /// Advertisable receive window: free space not holding in-seq data.
    std::size_t window() const { return ring_.capacity() - ring_.size(); }

    /// Inserts segment data whose first byte is `offset` bytes past rcv_nxt
    /// (offset 0 = exactly the next expected byte). Data beyond the window
    /// is trimmed. Returns the number of bytes newly in sequence (the amount
    /// rcv_nxt advances).
    std::size_t insert(std::size_t offset, BytesView data) {
        const std::size_t win = window();
        if (offset >= win) return 0;
        const std::size_t n = std::min(data.size(), win - offset);
        if (n == 0) return 0;

        ring_.writeAt(offset, BytesView(data.data(), n));
        oooMap_.setRange(offset, offset + n);

        const std::size_t run = oooMap_.countContiguousFrom(0);
        if (run == 0) return 0;
        ring_.commit(run);
        shiftMap(run);
        return run;
    }

    /// Application read: removes up to `n` in-sequence bytes.
    Bytes read(std::size_t n) { return ring_.read(n); }

    /// read() into a reusable scratch vector (allocation-free once warm).
    std::size_t readInto(std::size_t n, Bytes& out) { return ring_.readInto(n, out); }

    /// SACK blocks describing buffered out-of-order data, as offsets past
    /// rcv_nxt, at most `maxBlocks` ranges (most recently useful first is
    /// approximated by lowest-offset first). Reads bitmap words from
    /// rcv_nxt at most up to the highest parked byte.
    std::vector<RecvRange> sackRanges(std::size_t maxBlocks = 3) const {
        std::vector<RecvRange> out;
        const std::size_t limit = window();
        for (std::size_t i = oooMap_.findNextSet(0); i < limit && out.size() < maxBlocks;) {
            const std::size_t j = std::min(oooMap_.findNextClear(i), limit);
            out.push_back(RecvRange{i, j});
            i = oooMap_.findNextSet(j);
        }
        return out;
    }

    /// Total out-of-order bytes currently parked past the in-seq data. Reads
    /// the bitmap words up to the end of the highest parked byte: none when
    /// nothing is parked.
    std::size_t outOfOrderBytes() const { return oooMap_.popcount(); }

    /// Grows the buffer in place (receive-buffer autotuning). In-sequence
    /// bytes, parked out-of-order bytes, and their bitmap offsets are all
    /// preserved; only the advertisable window gets larger. No-op if
    /// `newCapacity` does not exceed the current capacity.
    void grow(std::size_t newCapacity) {
        if (newCapacity <= capacity()) return;
        ring_.grow(newCapacity);
        oooMap_.grow(newCapacity);
    }

private:
    void shiftMap(std::size_t by) {
        // The bitmap is indexed relative to rcv_nxt; advance the origin.
        oooMap_.shiftDown(by);
    }

    RingBuffer ring_;
    Bitmap oooMap_;
};

}  // namespace tcplp::tcp
