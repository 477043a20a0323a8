// SlabPool — a per-simulation recycler for packet-storage blocks.
//
// The PR 1 event pool killed per-event heap traffic; this applies the same
// trick to the frame datapath. Every PacketBuffer storage block (TCP
// segment, 6LoWPAN fragment, 802.15.4 frame payload) is allocated at a
// size-classed capacity (powers of two, 64 B..4 KiB of total block bytes)
// and, when its last reference dies, is pushed onto the active pool's
// per-class LIFO free list instead of going back to the heap. Steady-state
// forwarding then recycles the same handful of blocks forever: after the
// first few datagrams warm the lists, the datapath performs zero heap
// allocations per frame (the tcplp_steady_alloc tests pin this on a 3-hop
// line and on the city grid).
//
// ## Activation model (why blocks do not remember their pool)
//
// A pool is *installed* as its thread's active recycler (stack discipline:
// install saves the previous pool, uninstall restores it). sim::Simulator
// installs one for its lifetime, which is what makes the recycler
// "per-simulation" without threading a pool pointer through every layer.
// Crucially, a block does NOT record which pool it came from:
//
//  * acquire() pops from the active pool's free list, or heap-allocates a
//    block of the exact class size.
//  * release() pushes onto whatever pool is active *now*, or heap-frees
//    when none is (or the size is off-class).
//
// Because every pooled block is a plain ::operator new allocation of its
// class size, any block may be freed — or adopted — by any pool at any
// time. Buffers that outlive their simulator, nested simulators, and
// non-LIFO teardown orders are all safe by construction; the worst case is
// a missed recycle. uninstall() additionally unlinks the pool from the
// middle of the active chain, so destruction order never dangles.
//
// The install chain is per thread, so simulations on different threads
// recycle through their own pools. A pool is uninstalled on the thread that
// installed it: the chain that holds it is that thread's, and uninstall()
// asserts it finds the pool there.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

#include "tcplp/common/assert.hpp"

namespace tcplp {

/// Counters for the pooled-vs-heap split (surfaced as datapath metrics).
struct SlabPoolStats {
    std::uint64_t recycled = 0;      // blocks served from a free list
    std::uint64_t fresh = 0;         // blocks that had to hit the heap
    std::uint64_t returned = 0;      // blocks pushed back onto a free list
    std::uint64_t bytesRecycled = 0; // bytes served from free lists
    std::uint64_t bytesFresh = 0;    // bytes heap-allocated through acquire
};

class SlabPool {
public:
    static constexpr std::size_t kMinClassBytes = 64;
    static constexpr std::size_t kMaxClassBytes = 4096;
    static constexpr std::size_t kClassCount = 7;  // 64,128,...,4096

    SlabPool() = default;
    ~SlabPool() {
        uninstall();  // no-op unless still installed (crash-path safety)
        drain();
    }
    SlabPool(const SlabPool&) = delete;
    SlabPool& operator=(const SlabPool&) = delete;

    /// The pool acquire/release on this thread currently route through
    /// (nullptr = heap).
    static SlabPool* active() { return active_; }

    /// Installs this pool as this thread's active recycler, stacking on any
    /// current one. Idempotent per pool (a second install is ignored).
    void install() {
        if (installed_) return;
        installed_ = true;
        prev_ = active_;
        active_ = this;
    }

    /// Removes this pool from the active chain (restoring the previous pool
    /// when this one is on top; unlinking mid-chain otherwise, so non-LIFO
    /// destruction orders cannot leave a dangling active pointer).
    void uninstall() {
        if (!installed_) return;
        installed_ = false;
        if (active_ == this) {
            active_ = prev_;
            return;
        }
        for (SlabPool* p = active_; p != nullptr; p = p->prev_) {
            if (p->prev_ == this) {
                p->prev_ = prev_;
                return;
            }
        }
        TCPLP_ASSERT(false && "SlabPool uninstalled off the thread that installed it");
    }

    /// Rounds a block size up to its size class. Sizes above the largest
    /// class are returned unchanged — they stay plain heap blocks.
    static std::size_t roundUp(std::size_t bytes) {
        if (bytes <= kMinClassBytes) return kMinClassBytes;
        if (bytes > kMaxClassBytes) return bytes;
        return std::bit_ceil(bytes);
    }

    /// Returns a block of exactly `blockBytes` (which must be roundUp'd by
    /// the caller): recycled from the active pool when possible, fresh from
    /// the heap otherwise.
    static void* acquire(std::size_t blockBytes) {
        SlabPool* pool = active_;
        const int cls = classOf(blockBytes);
        if (pool != nullptr && cls >= 0 && pool->free_[cls] != nullptr) {
            FreeBlock* block = pool->free_[cls];
            pool->free_[cls] = block->next;
            --pool->freeCount_[cls];
            ++pool->stats_.recycled;
            pool->stats_.bytesRecycled += blockBytes;
            return block;
        }
        void* mem = ::operator new(blockBytes);
        if (pool != nullptr) {
            ++pool->stats_.fresh;
            pool->stats_.bytesFresh += blockBytes;
        }
        return mem;
    }

    /// Returns a block previously obtained from acquire(`blockBytes`):
    /// pushed onto the active pool's free list when one is installed and
    /// the size is a class, heap-freed otherwise.
    static void release(void* block, std::size_t blockBytes) noexcept {
        SlabPool* pool = active_;
        const int cls = classOf(blockBytes);
        if (pool != nullptr && cls >= 0) {
            FreeBlock* fb = ::new (block) FreeBlock{pool->free_[cls]};
            pool->free_[cls] = fb;
            ++pool->freeCount_[cls];
            ++pool->stats_.returned;
            return;
        }
        ::operator delete(block);
    }

    /// Frees every free-listed block (live blocks are unaffected).
    void drain() {
        for (std::size_t cls = 0; cls < kClassCount; ++cls) {
            FreeBlock* block = free_[cls];
            while (block != nullptr) {
                FreeBlock* next = block->next;
                ::operator delete(block);
                block = next;
            }
            free_[cls] = nullptr;
            freeCount_[cls] = 0;
        }
    }

    /// Blocks currently parked on free lists.
    std::size_t freeBlocks() const {
        std::size_t total = 0;
        for (std::size_t cls = 0; cls < kClassCount; ++cls) total += freeCount_[cls];
        return total;
    }

    const SlabPoolStats& stats() const { return stats_; }
    void resetStats() { stats_ = SlabPoolStats{}; }

private:
    struct FreeBlock {
        FreeBlock* next;
    };

    /// Exact class index for `bytes`, or -1 when off-class (not a pooled
    /// size). Pooled sizes are exactly the powers of two in range, which is
    /// what lets release() trust the size alone.
    static int classOf(std::size_t bytes) {
        if (bytes < kMinClassBytes || bytes > kMaxClassBytes) return -1;
        if (!std::has_single_bit(bytes)) return -1;
        return std::countr_zero(bytes) - std::countr_zero(kMinClassBytes);
    }

    FreeBlock* free_[kClassCount] = {};
    std::size_t freeCount_[kClassCount] = {};
    SlabPoolStats stats_;
    bool installed_ = false;
    SlabPool* prev_ = nullptr;

    static inline thread_local SlabPool* active_ = nullptr;
};

}  // namespace tcplp
