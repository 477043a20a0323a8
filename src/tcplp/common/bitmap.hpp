// Dynamic bitmap with word-level range operations.
//
// TCPlp's in-place reassembly queue (paper section 4.3.2, Figure 1b) records
// which bytes past the in-sequence data are valid out-of-order data using a
// bitmap; this is that bitmap.
//
// Cost model: every operation works on whole 64-bit words, and the bitmap
// keeps a high-water mark, one past the highest set bit. setRange(b, e)
// touches only the words of its range, at most (e - b) / 64 + 2;
// popcount() and shiftDown() touch only the words below the mark;
// findNextSet()/findNextClear() touch the words from their start to the
// answer and never one past the mark. A receive buffer with no out-of-order
// data has mark 0, and every query on it reads no word at all, however
// large the buffer.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tcplp/common/assert.hpp"

namespace tcplp {

class Bitmap {
public:
    explicit Bitmap(std::size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

    std::size_t size() const { return bits_; }

    /// One past the highest set bit; 0 when no bit is set. Every bit at or
    /// past it is clear, so scans stop there.
    std::size_t highWater() const { return high_; }

    bool test(std::size_t i) const {
        TCPLP_ASSERT(i < bits_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /// Sets bits [begin, end).
    void setRange(std::size_t begin, std::size_t end) {
        TCPLP_ASSERT(begin <= end && end <= bits_);
        if (begin == end) return;
        std::size_t w = begin >> 6;
        const std::size_t last = (end - 1) >> 6;
        const std::uint64_t head = kAll << (begin & 63);
        const std::uint64_t tail = kAll >> (63 - ((end - 1) & 63));
        if (w == last) {
            words_[w] |= head & tail;
        } else {
            words_[w] |= head;
            while (++w < last) words_[w] = kAll;
            words_[last] |= tail;
        }
        high_ = std::max(high_, end);
    }

    /// Shifts every bit down by `by` in place (bit i+by moves to bit i); the
    /// vacated top bits clear. Allocation-free — the reassembly commit path
    /// advances its bitmap origin with this on every in-sequence run.
    void shiftDown(std::size_t by) {
        if (by == 0) return;
        const std::size_t used = wordsBelowHighWater();
        if (by >= high_) {
            std::fill_n(words_.begin(), used, 0);
            high_ = 0;
            return;
        }
        const std::size_t wordShift = by >> 6;
        const std::size_t bitShift = by & 63;
        for (std::size_t i = 0; i + wordShift < used; ++i) {
            std::uint64_t v = words_[i + wordShift] >> bitShift;
            if (bitShift != 0 && i + wordShift + 1 < used)
                v |= words_[i + wordShift + 1] << (64 - bitShift);
            words_[i] = v;
        }
        std::fill_n(words_.begin() + std::ptrdiff_t(used - wordShift), wordShift, 0);
        high_ -= by;
    }

    /// Grows to `bits` (new bits start clear); shrinking is not supported.
    /// Used by receive-buffer autotuning — existing bit positions keep
    /// their values, so parked out-of-order ranges survive a grow.
    void grow(std::size_t bits) {
        TCPLP_ASSERT(bits >= bits_);
        bits_ = bits;
        words_.resize((bits + 63) / 64, 0);
    }

    /// Index of the first set bit at or after `from`; size() if there is none.
    std::size_t findNextSet(std::size_t from) const {
        TCPLP_ASSERT(from <= bits_);
        if (from >= high_) return bits_;
        std::size_t w = from >> 6;
        std::uint64_t v = words_[w] & (kAll << (from & 63));
        // Terminates: bit high_ - 1 is set and lies at or after `from`.
        while (v == 0) v = words_[++w];
        return (w << 6) + std::size_t(std::countr_zero(v));
    }

    /// Index of the first clear bit at or after `from`; size() if there is
    /// none.
    std::size_t findNextClear(std::size_t from) const {
        TCPLP_ASSERT(from <= bits_);
        if (from >= high_) return from;
        const std::size_t used = wordsBelowHighWater();
        std::size_t w = from >> 6;
        std::uint64_t v = ~words_[w] & (kAll << (from & 63));
        while (v == 0) {
            // Past the last used word, every bit from `from` up to that word
            // boundary is set: the mark sits on it and is the first clear bit.
            if (++w == used) return high_;
            v = ~words_[w];
        }
        return (w << 6) + std::size_t(std::countr_zero(v));
    }

    /// Length of the run of set bits starting at `begin`.
    std::size_t countContiguousFrom(std::size_t begin) const {
        return findNextClear(begin) - begin;
    }

    std::size_t popcount() const {
        const std::size_t used = wordsBelowHighWater();
        std::size_t n = 0;
        for (std::size_t w = 0; w < used; ++w) n += std::size_t(std::popcount(words_[w]));
        return n;
    }

private:
    static constexpr std::uint64_t kAll = ~std::uint64_t(0);

    /// Words that can hold set bits; every word from here on is zero.
    std::size_t wordsBelowHighWater() const { return (high_ + 63) >> 6; }

    std::size_t bits_;
    std::vector<std::uint64_t> words_;
    std::size_t high_ = 0;
};

}  // namespace tcplp
