// PacketBuffer — the zero-copy byte buffer used for all packet payloads.
//
// The paper (and Ayers et al., "Design Considerations for Low Power Internet
// Protocols") observes that buffer copies dominate constrained-stack cost.
// The seed of this codebase mirrored that anti-pattern in host code: a
// payload was deep-copied at every layer boundary (TCP segment -> IPv6
// packet -> 6LoWPAN fragment -> 802.15.4 frame, then once per receiver in
// the channel). PacketBuffer replaces those copies with reference-counted
// sharing plus reserved headroom, so a datagram is materialized once at the
// transport layer and then travels down the stack — and across every
// forwarding hop — by refcount alone.
//
// ## Ownership model (who may mutate, and when copyForWrite() is required)
//
//  * A PacketBuffer is a view (offset + length) into a shared storage block.
//    Copying a PacketBuffer, or taking a subview(), bumps a refcount; the
//    bytes are shared.
//  * Readers never need anything: view(), operator[], iteration and decoding
//    are always safe on shared storage.
//  * A writer may mutate bytes only while `unique()` is true (it holds the
//    storage's only reference). `mutableData()` and `writeAt()` assert this.
//  * A holder of a *shared* buffer that needs to mutate must call
//    `copyForWrite()` first, which duplicates the bytes. Every such
//    duplication is counted in stats().deepCopies — the forwarding-path
//    copy-counter tests assert this stays at zero.
//  * `prepend()` grows the view downward into reserved headroom. It is
//    in-place (free) when the storage is unique and headroom remains;
//    otherwise it falls back to a counted deep copy. Layers are expected to
//    originate buffers with enough headroom for the headers below them
//    (kDefaultHeadroom covers TCP framing + IPHC + FRAG1).
//
// ## Arena-backed storage (reassembly gather buffers)
//
//  * `allocateFrom(arena, n)` places the storage block inside a BufferArena
//    instead of the heap — the 6LoWPAN reassembler uses this so gathering a
//    fragmented datagram performs zero heap allocations. Exhaustion returns
//    an invalid buffer (`!valid()`); callers drop the datagram and count it,
//    exactly as a mote with a full packet heap would.
//  * Sharing semantics are identical to heap storage: subview/copy bump the
//    refcount, and when the LAST reference dies the block is returned to its
//    arena (not the heap). The chunk therefore stays carved for as long as
//    any layer still references the reassembled payload — this is the
//    "buffer pressure" the Table 3/4 benches measure.
//  * Mutating fallbacks (`copyForWrite()`, the `prepend()` slow path)
//    allocate their fresh storage on the HEAP, never in the arena: a
//    shared-buffer rewrite is a host-side correctness escape hatch, and it
//    must not be able to exhaust the mote-sized pool.
//  * Lifetime rule: the arena must strictly outlive every buffer carved from
//    it (see arena.hpp). Node owns its arena and its reassembler together,
//    so the rule holds by member ordering.
//
// The refcount is deliberately non-atomic: a simulation and every buffer it
// allocates stay on the thread that built it, and this buffer is a model of
// a mote packet heap, not a concurrency primitive. stats() counts the
// calling thread's buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "tcplp/common/arena.hpp"
#include "tcplp/common/assert.hpp"
#include "tcplp/common/bytes.hpp"
#include "tcplp/common/slab_pool.hpp"

namespace tcplp {

struct PacketBufferStats {
    std::uint64_t allocations = 0;  // fresh storage blocks created
    std::uint64_t deepCopies = 0;   // copy-on-write / prepend-fallback duplications
    std::uint64_t copiedBytes = 0;  // bytes duplicated by those deep copies
    std::uint64_t shares = 0;       // refcount bumps (copies + subviews)
    std::uint64_t prependFallbacks = 0;  // prepend() slow paths (shared or headroom-less)
};

class PacketBuffer {
public:
    /// Default headroom on originated buffers: covers a FRAG1 header (4 B)
    /// plus a worst-case IPHC header (39 B) with margin, so every
    /// lower-layer prepend on the TX path lands in place.
    static constexpr std::size_t kDefaultHeadroom = 48;
    static constexpr std::size_t npos = std::size_t(-1);

    PacketBuffer() = default;

    /// Origination from legacy Bytes (copies once into counted storage).
    PacketBuffer(const Bytes& b) : PacketBuffer(copyOf(BytesView(b))) {}  // NOLINT

    // Copying never allocates (refcount bump), so it is noexcept — which
    // matters beyond hygiene: closures holding buffers (or Frames) stay
    // nothrow-move-constructible and therefore SmallFn-inline on the event
    // hot path instead of falling back to the heap.
    PacketBuffer(const PacketBuffer& other) noexcept
        : storage_(other.storage_), off_(other.off_), len_(other.len_) {
        if (storage_ != nullptr) {
            ++storage_->refs;
            ++stats_.shares;
        }
    }
    PacketBuffer& operator=(const PacketBuffer& other) noexcept {
        if (this != &other) {
            PacketBuffer tmp(other);
            swap(tmp);
        }
        return *this;
    }
    PacketBuffer(PacketBuffer&& other) noexcept
        : storage_(other.storage_), off_(other.off_), len_(other.len_) {
        other.storage_ = nullptr;
        other.off_ = other.len_ = 0;
    }
    PacketBuffer& operator=(PacketBuffer&& other) noexcept {
        if (this != &other) {
            release();
            storage_ = other.storage_;
            off_ = other.off_;
            len_ = other.len_;
            other.storage_ = nullptr;
            other.off_ = other.len_ = 0;
        }
        return *this;
    }
    ~PacketBuffer() { release(); }

    /// Fresh zero-filled buffer of `n` bytes with reserved headroom.
    static PacketBuffer allocate(std::size_t n, std::size_t headroom = kDefaultHeadroom) {
        PacketBuffer b;
        b.storage_ = newStorage(headroom + n);
        b.off_ = headroom;
        b.len_ = n;
        if (n > 0) std::memset(b.storage_->bytes() + b.off_, 0, n);
        return b;
    }

    /// Carves a zero-filled buffer of `n` bytes (plus headroom) out of
    /// `arena` instead of the heap. Returns an invalid buffer (!valid())
    /// when the arena cannot satisfy the request — the arena counts the
    /// exhaustion; the caller decides what "drop" means at its layer.
    static PacketBuffer allocateFrom(BufferArena& arena, std::size_t n,
                                     std::size_t headroom = 0) {
        void* mem = arena.carve(sizeof(Storage) + headroom + n);
        if (mem == nullptr) return PacketBuffer();
        PacketBuffer b;
        b.storage_ = ::new (mem) Storage{1, std::uint32_t(headroom + n), &arena};
        b.off_ = headroom;
        b.len_ = n;
        if (n > 0) std::memset(b.storage_->bytes() + b.off_, 0, n);
        return b;
    }

    /// False only for a default-constructed buffer or a failed arena carve.
    /// (A zero-length view of real storage is still valid.)
    bool valid() const { return storage_ != nullptr; }
    /// True when the storage block lives in a BufferArena.
    bool arenaBacked() const { return storage_ != nullptr && storage_->arena != nullptr; }

    /// Copies `data` into a fresh buffer (deliberate origination copy).
    static PacketBuffer copyOf(BytesView data, std::size_t headroom = kDefaultHeadroom) {
        PacketBuffer b = allocate(data.size(), headroom);
        if (!data.empty()) std::memcpy(b.storage_->bytes() + b.off_, data.data(), data.size());
        return b;
    }

    /// Builds [prefix | body] in one storage block (deliberate compose, e.g.
    /// a wire header in front of payload that must stay shared elsewhere).
    static PacketBuffer compose(BytesView prefix, BytesView body,
                                std::size_t headroom = kDefaultHeadroom) {
        PacketBuffer b = allocate(prefix.size() + body.size(), headroom);
        if (!prefix.empty())
            std::memcpy(b.storage_->bytes() + b.off_, prefix.data(), prefix.size());
        if (!body.empty())
            std::memcpy(b.storage_->bytes() + b.off_ + prefix.size(), body.data(), body.size());
        return b;
    }

    std::size_t size() const { return len_; }
    bool empty() const { return len_ == 0; }
    const std::uint8_t* data() const {
        return storage_ != nullptr ? storage_->bytes() + off_ : nullptr;
    }
    std::uint8_t operator[](std::size_t i) const {
        TCPLP_ASSERT(i < len_);
        return storage_->bytes()[off_ + i];
    }
    BytesView view() const { return BytesView(data(), len_); }
    operator BytesView() const { return view(); }  // NOLINT(google-explicit-constructor)
    const std::uint8_t* begin() const { return data(); }
    const std::uint8_t* end() const { return data() + len_; }

    Bytes toBytes() const { return Bytes(begin(), end()); }

    /// Content equality (not storage identity).
    bool operator==(const PacketBuffer& other) const {
        return len_ == other.len_ &&
               (len_ == 0 || std::memcmp(data(), other.data(), len_) == 0);
    }

    /// True when this is the storage's only reference (mutation is safe).
    bool unique() const { return storage_ != nullptr && storage_->refs == 1; }
    bool sharesStorageWith(const PacketBuffer& other) const {
        return storage_ != nullptr && storage_ == other.storage_;
    }
    std::size_t refCount() const { return storage_ != nullptr ? storage_->refs : 0; }
    std::size_t headroom() const { return storage_ != nullptr ? off_ : 0; }

    /// Shared view of a byte range (refcount bump, no copy).
    PacketBuffer subview(std::size_t off, std::size_t n = npos) const {
        TCPLP_ASSERT(off <= len_);
        if (n == npos) n = len_ - off;
        TCPLP_ASSERT(off + n <= len_);
        PacketBuffer b(*this);
        b.off_ += off;
        b.len_ = n;
        return b;
    }

    void trimFront(std::size_t n) {
        TCPLP_ASSERT(n <= len_);
        off_ += n;
        len_ -= n;
    }
    void trimEnd(std::size_t n) {
        TCPLP_ASSERT(n <= len_);
        len_ -= n;
    }

    /// Ensures unique storage, duplicating the bytes if currently shared.
    /// The duplication is counted — forwarding paths must never hit it.
    void copyForWrite() {
        if (storage_ == nullptr || storage_->refs == 1) return;
        const std::size_t off = off_;
        const std::size_t len = len_;
        Storage* fresh = newStorage(off + len);
        std::memcpy(fresh->bytes() + off, storage_->bytes() + off, len);
        ++stats_.deepCopies;
        stats_.copiedBytes += len;
        release();
        storage_ = fresh;
        off_ = off;
        len_ = len;
    }

    /// Mutable access; caller must hold the only reference.
    std::uint8_t* mutableData() {
        TCPLP_ASSERT(unique());
        return storage_->bytes() + off_;
    }

    /// Writes `src` at byte offset `off`; caller must hold the only reference.
    void writeAt(std::size_t off, BytesView src) {
        TCPLP_ASSERT(unique());
        TCPLP_ASSERT(off + src.size() <= len_);
        if (!src.empty()) std::memcpy(storage_->bytes() + off_ + off, src.data(), src.size());
    }

    /// Grows the view downward to place `hdr` in front of the current bytes.
    /// In place when storage is unique and headroom suffices; otherwise a
    /// counted deep-copy fallback.
    void prepend(BytesView hdr) {
        if (storage_ != nullptr && storage_->refs == 1 && off_ >= hdr.size()) {
            off_ -= hdr.size();
            if (!hdr.empty()) std::memcpy(storage_->bytes() + off_, hdr.data(), hdr.size());
            len_ += hdr.size();
            return;
        }
        ++stats_.prependFallbacks;
        const std::size_t len = len_;
        Storage* fresh = newStorage(kDefaultHeadroom + hdr.size() + len);
        if (!hdr.empty())
            std::memcpy(fresh->bytes() + kDefaultHeadroom, hdr.data(), hdr.size());
        if (len > 0) {
            std::memcpy(fresh->bytes() + kDefaultHeadroom + hdr.size(),
                        storage_->bytes() + off_, len);
            ++stats_.deepCopies;
            stats_.copiedBytes += len;
        }
        release();
        storage_ = fresh;
        off_ = kDefaultHeadroom;
        len_ = hdr.size() + len;
    }

    static const PacketBufferStats& stats() { return stats_; }
    static void resetStats() { stats_ = PacketBufferStats{}; }

private:
    struct Storage {
        std::uint32_t refs;
        std::uint32_t capacity;
        BufferArena* arena;  // nullptr = heap-owned
        std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
    };

    static Storage* newStorage(std::size_t capacity) {
        // Class-rounded through the slab recycler: the rounding slack is
        // kept as extra tail capacity, and the exact class size at release
        // is what lets the block go back on a free list.
        const std::size_t block = SlabPool::roundUp(sizeof(Storage) + capacity);
        void* mem = SlabPool::acquire(block);
        ++stats_.allocations;  // logical creations; SlabPoolStats splits pooled/heap
        return ::new (mem) Storage{1, std::uint32_t(block - sizeof(Storage)), nullptr};
    }

    void release() {
        if (storage_ != nullptr && --storage_->refs == 0) {
            BufferArena* arena = storage_->arena;
            const std::size_t block = sizeof(Storage) + storage_->capacity;
            storage_->~Storage();
            if (arena != nullptr) {
                arena->release(storage_);
            } else {
                SlabPool::release(storage_, block);
            }
        }
        storage_ = nullptr;
        off_ = len_ = 0;
    }

    void swap(PacketBuffer& other) noexcept {
        std::swap(storage_, other.storage_);
        std::swap(off_, other.off_);
        std::swap(len_, other.len_);
    }

    Storage* storage_ = nullptr;
    std::size_t off_ = 0;
    std::size_t len_ = 0;

    static inline thread_local PacketBufferStats stats_{};
};

}  // namespace tcplp
