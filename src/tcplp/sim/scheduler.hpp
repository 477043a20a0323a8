// The discrete-event simulator's ready queue.
//
// The Simulator owns a pool of event records (slab-allocated, recycled,
// generation-counted — see EventPool) and a TimerWheel that orders them:
// the structure that answers "which pending event fires next?" in the total
// order (when, then scheduling seq).
//
// TimerWheel is a hierarchical timing wheel (Varghese & Lauck), 4 levels x
// 64 slots with a ~1 ms tick (1024 us, so tick extraction is a shift) and an
// overflow list for deadlines beyond the top level's horizon (64^4 ticks
// ~= 4.8 hours of simulated time). Insert, cancel and re-arm are O(1) list
// splices; finding the next event scans a 64-bit occupancy mask per level.
// The protocol workload — RTO, delayed-ACK, persist, CSMA backoff and
// sleepy-MAC poll timers clustering at a handful of deadlines — is exactly
// the regime a wheel is built for.
//
// The wheel is exact: ticks only bucket events, and the earliest bucket is
// scanned for the (when, seq) minimum, so events fire in exact microsecond
// order with scheduling seq breaking ties. tests/test_scheduler_property.cpp
// pins this against a std::multimap oracle on seeded random and adversarial
// operation sequences; tests/test_sim.cpp covers it through the Simulator.
//
// Bucket placement is *alignment-based*: an event with deadline tick T lives
// at the lowest level L whose 64^(L+1)-tick aligned window also contains the
// wheel's base tick (base <= every pending tick, maintained at fire time).
// Within the shared parent window, T's level-L index is >= the base's, so
// each level scans forward only — no wrap-around — and the first occupied
// bucket of the lowest occupied level holds the globally earliest event.
// Advancing the base relocates exactly one bucket per level (the one the new
// base maps into), which is how far-future events cascade toward level 0 as
// simulated time approaches them.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "tcplp/common/assert.hpp"
#include "tcplp/sim/small_fn.hpp"
#include "tcplp/sim/time.hpp"

namespace tcplp::sim {

namespace detail {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNotQueued = std::numeric_limits<std::uint32_t>::max();

/// One pooled event. `queuePos` is the wheel bucket holding the record and
/// doubles as the pending flag (kNotQueued when the record is not
/// scheduled). `next`/`prev` are the intrusive links of that bucket's list.
struct EventRecord {
    SmallFn fn;
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;
    std::uint32_t queuePos = kNotQueued;
    std::uint32_t next = kNoSlot;
    std::uint32_t prev = kNoSlot;
};

/// Slab-allocated pool of event records: 256-record slabs, never relocated,
/// recycled through a free list — steady-state scheduling performs zero heap
/// allocations. Slot reuse is disambiguated by the record's generation.
class EventPool {
public:
    static constexpr std::uint32_t kSlabBits = 8;
    static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;

    EventRecord& record(std::uint32_t slot) {
        return slabs_[slot >> kSlabBits][slot & (kSlabSize - 1)];
    }
    const EventRecord& record(std::uint32_t slot) const {
        return slabs_[slot >> kSlabBits][slot & (kSlabSize - 1)];
    }

    bool contains(std::uint32_t slot) const {
        return (slot >> kSlabBits) < slabs_.size();
    }

    std::uint32_t alloc() {
        if (freeList_.empty()) {
            const auto base = std::uint32_t(slabs_.size()) * kSlabSize;
            slabs_.push_back(std::make_unique<EventRecord[]>(kSlabSize));
            freeList_.reserve(kSlabSize);
            for (std::uint32_t i = kSlabSize; i > 0; --i) freeList_.push_back(base + i - 1);
        }
        const std::uint32_t slot = freeList_.back();
        freeList_.pop_back();
        return slot;
    }

    /// Destroys the callback, invalidates outstanding handles, recycles.
    void release(std::uint32_t slot) {
        EventRecord& rec = record(slot);
        rec.fn.reset();
        rec.queuePos = kNotQueued;
        ++rec.generation;
        freeList_.push_back(slot);
    }

    std::size_t capacity() const { return slabs_.size() * kSlabSize; }

private:
    std::vector<std::unique_ptr<EventRecord[]>> slabs_;
    std::vector<std::uint32_t> freeList_;
};

}  // namespace detail

/// Hierarchical timing wheel over pooled event records: kLevels levels of
/// kSlots buckets, tick = 2^kTickShift microseconds, plus an overflow list
/// beyond the top level's horizon. All operations refer to pool slots whose
/// `when`/`seq` the Simulator has already filled in; the wheel maintains
/// `queuePos` and presents events in (when, seq) order. See the file comment
/// for the placement/cascade invariants.
class TimerWheel {
public:
    static constexpr int kTickShift = 10;  // 1024 us ~= the 1 ms protocol tick
    static constexpr int kLevelBits = 6;
    static constexpr int kLevels = 4;
    static constexpr std::uint32_t kSlots = 1u << kLevelBits;

    explicit TimerWheel(detail::EventPool& pool) : pool_(pool) {
        for (auto& level : heads_)
            for (auto& head : level) head = detail::kNoSlot;
    }
    TimerWheel(const TimerWheel&) = delete;
    TimerWheel& operator=(const TimerWheel&) = delete;

    /// Enqueues `slot` (not currently queued).
    void push(std::uint32_t slot) {
        place(slot);
        ++size_;
        // A new earlier-than-cached event becomes the cached min directly;
        // an unknown cache stays unknown.
        if (cachedMin_ != detail::kNoSlot && earlier(slot, cachedMin_)) cachedMin_ = slot;
    }

    /// Re-sorts a queued `slot` after its when/seq changed (Timer re-arm).
    void update(std::uint32_t slot) {
        unlink(slot);
        place(slot);
        if (slot == cachedMin_) {
            cachedMin_ = detail::kNoSlot;  // its key changed; rescan
        } else if (cachedMin_ != detail::kNoSlot && earlier(slot, cachedMin_)) {
            cachedMin_ = slot;
        }
    }

    /// Removes a queued `slot` (cancellation or firing).
    void remove(std::uint32_t slot) {
        unlink(slot);
        pool_.record(slot).queuePos = detail::kNotQueued;
        --size_;
        if (slot == cachedMin_) cachedMin_ = detail::kNoSlot;
    }

    /// Slot of the (when, seq)-minimum queued event; kNoSlot when empty.
    std::uint32_t peekMin() {
        if (size_ == 0) return detail::kNoSlot;
        if (cachedMin_ != detail::kNoSlot) return cachedMin_;
        for (int level = 0; level < kLevels; ++level) {
            if (masks_[level] == 0) continue;
            // Buckets below the base cursor are empty by invariant; the
            // lowest set bit is the earliest window at this level.
            const std::uint32_t bucket =
                std::uint32_t(std::countr_zero(masks_[level]));
            cachedMin_ = bucketMin(heads_[level][bucket]);
            return cachedMin_;
        }
        cachedMin_ = bucketMin(overflowHead_);
        return cachedMin_;
    }

    /// Simulated time reached `now` (every queued deadline is >= now):
    /// advances the base and cascades far-future buckets toward level 0.
    void onTimeAdvance(Time now) { advanceTo(tickOf(now)); }

    std::size_t size() const { return size_; }

private:
    static std::uint64_t tickOf(Time when) { return std::uint64_t(when) >> kTickShift; }

    bool earlier(std::uint32_t a, std::uint32_t b) const {
        const detail::EventRecord& ra = pool_.record(a);
        const detail::EventRecord& rb = pool_.record(b);
        if (ra.when != rb.when) return ra.when < rb.when;
        return ra.seq < rb.seq;
    }

    /// Buckets are addressed as level * kSlots + index; the overflow list is
    /// the bucket past the last level.
    static constexpr std::uint32_t kOverflowBucket = kLevels * kSlots;

    std::uint32_t* headOf(std::uint32_t bucket) {
        if (bucket == kOverflowBucket) return &overflowHead_;
        return &heads_[bucket >> kLevelBits][bucket & (kSlots - 1)];
    }

    void place(std::uint32_t slot) {
        detail::EventRecord& rec = pool_.record(slot);
        const std::uint64_t tick = tickOf(rec.when);
        TCPLP_ASSERT(tick >= base_ && "deadline before the wheel's base");
        std::uint32_t bucket = kOverflowBucket;
        for (int level = 0; level < kLevels; ++level) {
            const int parentShift = kLevelBits * (level + 1);
            if ((tick >> parentShift) == (base_ >> parentShift)) {
                bucket = std::uint32_t(level) * kSlots +
                         std::uint32_t((tick >> (kLevelBits * level)) & (kSlots - 1));
                break;
            }
        }
        std::uint32_t* head = headOf(bucket);
        rec.queuePos = bucket;
        rec.prev = detail::kNoSlot;
        rec.next = *head;
        if (*head != detail::kNoSlot) pool_.record(*head).prev = slot;
        *head = slot;
        if (bucket != kOverflowBucket)
            masks_[bucket >> kLevelBits] |= 1ull << (bucket & (kSlots - 1));
    }

    /// Detaches `slot` from its bucket list, leaving queuePos untouched
    /// (remove() clears it; update() re-places immediately).
    void unlink(std::uint32_t slot) {
        detail::EventRecord& rec = pool_.record(slot);
        const std::uint32_t bucket = rec.queuePos;
        std::uint32_t* head = headOf(bucket);
        if (rec.prev != detail::kNoSlot) {
            pool_.record(rec.prev).next = rec.next;
        } else {
            *head = rec.next;
        }
        if (rec.next != detail::kNoSlot) pool_.record(rec.next).prev = rec.prev;
        rec.next = detail::kNoSlot;
        rec.prev = detail::kNoSlot;
        if (bucket != kOverflowBucket && *head == detail::kNoSlot)
            masks_[bucket >> kLevelBits] &= ~(1ull << (bucket & (kSlots - 1)));
    }

    /// Linear (when, seq)-min scan of one bucket list. Bucket lists are
    /// short in practice: a level-0 bucket holds one tick's events, and
    /// higher-level buckets cascade down before they are drained.
    std::uint32_t bucketMin(std::uint32_t head) const {
        std::uint32_t best = head;
        for (std::uint32_t s = pool_.record(head).next; s != detail::kNoSlot;
             s = pool_.record(s).next) {
            if (earlier(s, best)) best = s;
        }
        return best;
    }

    /// Moves the base forward (every queued deadline is >= newTick) and
    /// relocates the one bucket per level that the new base maps into: its
    /// events now share a lower-level window with the base and cascade down.
    void advanceTo(std::uint64_t newTick) {
        if (newTick <= base_) return;
        const std::uint64_t oldBase = base_;
        base_ = newTick;
        for (int level = 1; level < kLevels; ++level) {
            const int shift = kLevelBits * level;
            if ((newTick >> shift) == (oldBase >> shift)) break;  // no window change
            const std::uint32_t bucket =
                std::uint32_t(level) * kSlots +
                std::uint32_t((newTick >> shift) & (kSlots - 1));
            relocateBucket(bucket);
        }
        if ((newTick >> (kLevelBits * kLevels)) != (oldBase >> (kLevelBits * kLevels)))
            relocateOverflow();
    }

    void relocateBucket(std::uint32_t bucket) {
        std::uint32_t* head = headOf(bucket);
        std::uint32_t slot = *head;
        *head = detail::kNoSlot;
        masks_[bucket >> kLevelBits] &= ~(1ull << (bucket & (kSlots - 1)));
        while (slot != detail::kNoSlot) {
            const std::uint32_t next = pool_.record(slot).next;
            place(slot);  // strictly lower level: the window now matches
            slot = next;
        }
    }

    void relocateOverflow() {
        std::uint32_t slot = overflowHead_;
        overflowHead_ = detail::kNoSlot;
        while (slot != detail::kNoSlot) {
            const std::uint32_t next = pool_.record(slot).next;
            place(slot);  // re-homes in-horizon events; the rest re-overflow
            slot = next;
        }
    }

    detail::EventPool& pool_;
    std::size_t size_ = 0;
    std::uint64_t base_ = 0;  // tick floor of simulated now; <= every deadline
    std::uint32_t cachedMin_ = detail::kNoSlot;
    std::uint64_t masks_[kLevels] = {};
    std::uint32_t heads_[kLevels][kSlots];
    std::uint32_t overflowHead_ = detail::kNoSlot;
};

}  // namespace tcplp::sim
