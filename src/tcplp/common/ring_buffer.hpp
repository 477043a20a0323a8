// Fixed-capacity circular byte buffer.
//
// This is the storage primitive behind TCPlp's receive buffer (the paper's
// "flat array-based circular buffer", section 4.3.2): capacity is reserved
// up front, so memory use is deterministic regardless of how fragmented the
// arriving byte stream is.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tcplp/common/assert.hpp"
#include "tcplp/common/bytes.hpp"

namespace tcplp {

class RingBuffer {
public:
    explicit RingBuffer(std::size_t capacity) : data_(capacity) {}

    std::size_t capacity() const { return data_.size(); }
    std::size_t size() const { return size_; }
    std::size_t free() const { return capacity() - size_; }
    bool empty() const { return size_ == 0; }

    /// Appends up to `src.size()` bytes; returns the number written.
    std::size_t write(BytesView src) {
        const std::size_t n = std::min(src.size(), free());
        writeAt(0, src.first(n));
        commit(n);
        return n;
    }

    /// Writes `src` at byte offset `off` past the current tail, without
    /// advancing size. Used by the in-place reassembly queue to deposit
    /// out-of-order data into its eventual position (paper Figure 1b). The
    /// deposit must fit in the free space, so it never overwrites unread
    /// in-sequence bytes. Copies at most two contiguous spans.
    void writeAt(std::size_t off, BytesView src) {
        TCPLP_ASSERT(size_ + off + src.size() <= capacity());
        if (src.empty()) return;
        const std::size_t pos = wrap(head_ + size_ + off);
        const std::size_t first = std::min(src.size(), capacity() - pos);
        std::copy_n(src.begin(), first, data_.begin() + std::ptrdiff_t(pos));
        std::copy(src.begin() + std::ptrdiff_t(first), src.end(), data_.begin());
    }

    /// Marks `n` bytes previously deposited via writeAt() as in-sequence.
    void commit(std::size_t n) {
        TCPLP_ASSERT(size_ + n <= capacity());
        size_ += n;
    }

    /// Removes and returns up to `n` bytes from the front.
    Bytes read(std::size_t n) {
        Bytes out;
        readInto(n, out);
        return out;
    }

    /// read() into a caller-provided vector whose capacity is reused —
    /// the auto-drain delivery path calls this once per committed run, so
    /// reusing the scratch keeps the receive path allocation-free. Copies
    /// at most two contiguous spans.
    std::size_t readInto(std::size_t n, Bytes& out) {
        n = std::min(n, size_);
        out.resize(n);
        const std::size_t first = std::min(n, capacity() - head_);
        const auto head = data_.begin() + std::ptrdiff_t(head_);
        std::copy_n(head, first, out.begin());
        std::copy_n(data_.begin(), n - first, out.begin() + std::ptrdiff_t(first));
        consume(n);
        return n;
    }

    /// Drops `n` bytes from the front.
    void consume(std::size_t n) {
        TCPLP_ASSERT(n <= size_);
        head_ = wrap(head_ + n);
        size_ -= n;
    }

    /// Random access relative to the front (0 = oldest byte).
    std::uint8_t at(std::size_t i) const {
        TCPLP_ASSERT(i < size_);
        return data_[wrap(head_ + i)];
    }

    void clear() {
        head_ = 0;
        size_ = 0;
    }

    /// Grows capacity, preserving the readable bytes AND any bytes deposited
    /// past the tail via writeAt() (the in-place reassembly queue): the whole
    /// old ring is re-linearized starting at head_, so every tail-relative
    /// offset is unchanged afterwards. Shrinking is not supported.
    void grow(std::size_t newCapacity) {
        TCPLP_ASSERT(newCapacity >= capacity());
        if (newCapacity == capacity()) return;
        Bytes next(newCapacity, 0);
        std::rotate_copy(data_.begin(), data_.begin() + std::ptrdiff_t(head_), data_.end(),
                         next.begin());
        data_ = std::move(next);
        head_ = 0;
    }

private:
    std::size_t wrap(std::size_t i) const { return i % data_.size(); }

    Bytes data_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace tcplp
