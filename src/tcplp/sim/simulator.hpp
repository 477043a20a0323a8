// Discrete-event simulation core.
//
// The entire testbed — radios, MAC timers, TCP retransmission timers,
// application sensors — runs as callbacks on this event queue. Events at the
// same instant fire in scheduling order (a stable tiebreak), which keeps runs
// deterministic.
//
// Storage model: events live in a slab-allocated pool (256-record slabs,
// never relocated, recycled through a free list), so steady-state scheduling
// performs zero heap allocations. Callbacks with captures up to
// SmallFn::kInlineBytes are stored inline in the event record. Handles are
// generation-counted slot references — no shared_ptr/weak_ptr churn per
// event.
//
// Ordering is the job of the ready queue, a hierarchical TimerWheel
// (sim/scheduler.hpp) held by value: O(1) insert/cancel/re-arm, built for
// the timer storms where RTO/delayed-ACK/persist/poll deadlines cluster,
// and exact in the (when, seq) total order.
//
// Lifetime: an EventHandle (and any Timer) must not be used after its
// Simulator is destroyed. Every component in this codebase owns a
// `Simulator&` with a strictly longer lifetime, so this is not a practical
// restriction; it is what buys handles their pointer-free cheapness.
#pragma once

#include <cstdint>
#include <utility>

#include "tcplp/common/assert.hpp"
#include "tcplp/common/slab_pool.hpp"
#include "tcplp/sim/rng.hpp"
#include "tcplp/sim/scheduler.hpp"
#include "tcplp/sim/small_fn.hpp"
#include "tcplp/sim/time.hpp"

namespace tcplp::sim {

class Simulator;

/// Cancellable handle to a scheduled event. Copies share the same event:
/// cancelling through any copy cancels it, and once the event fires (or is
/// cancelled) every copy reports !pending(). Handles stay cheap (16 bytes,
/// no refcount) because slot reuse is disambiguated by a generation counter.
class EventHandle {
public:
    EventHandle() = default;

    /// Cancels the event if it has not fired yet. Safe to call repeatedly.
    inline void cancel();

    /// True if the event is still scheduled and will fire.
    inline bool pending() const;

private:
    friend class Simulator;
    EventHandle(Simulator* simulator, std::uint32_t slot, std::uint32_t generation)
        : simulator_(simulator), slot_(slot), generation_(generation) {}

    Simulator* simulator_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
};

/// Counters describing scheduler behavior, exported for benches/tests.
struct SchedulerStats {
    std::uint64_t scheduled = 0;    // schedule/scheduleAt calls
    std::uint64_t rescheduled = 0;  // in-place deadline updates (Timer re-arm)
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::size_t poolCapacity = 0;  // event records currently allocated
};

class Simulator {
public:
    explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {
        // Frame-storage recycler for this simulation: every PacketBuffer
        // allocated while this simulator exists recycles through it (see
        // slab_pool.hpp for why buffers may safely outlive the pool).
        framePool_.install();
    }
    ~Simulator() { framePool_.uninstall(); }

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    Time now() const { return now_; }
    Rng& rng() { return rng_; }

    /// Schedules `fn` to run `delay` microseconds from now.
    template <typename F>
    EventHandle schedule(Time delay, F&& fn) {
        return scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /// Schedules `fn` at absolute time `when` (>= now).
    template <typename F>
    EventHandle scheduleAt(Time when, F&& fn) {
        TCPLP_ASSERT(when >= now_);
        const std::uint32_t slot = pool_.alloc();
        detail::EventRecord& rec = pool_.record(slot);
        rec.fn = SmallFn(std::forward<F>(fn));
        rec.when = when;
        rec.seq = nextSeq_++;
        wheel_.push(slot);
        ++stats_.scheduled;
        return EventHandle(this, slot, rec.generation);
    }

    /// Moves a still-pending event to a new deadline without releasing its
    /// record or callback — an O(1) in-place re-sort in the wheel. Returns
    /// false (and does nothing) if the handle's event already fired or was
    /// cancelled.
    bool reschedule(const EventHandle& handle, Time when) {
        TCPLP_ASSERT(when >= now_);
        if (handle.simulator_ != this || !slotPending(handle.slot_, handle.generation_)) {
            return false;
        }
        detail::EventRecord& rec = pool_.record(handle.slot_);
        rec.when = when;
        rec.seq = nextSeq_++;  // re-armed events fire after existing same-time events
        wheel_.update(handle.slot_);
        ++stats_.rescheduled;
        return true;
    }

    /// Runs events until the queue drains or simulated time reaches `until`.
    void runUntil(Time until) {
        for (;;) {
            const std::uint32_t slot = wheel_.peekMin();
            if (slot == detail::kNoSlot || pool_.record(slot).when > until) break;
            fireMin(slot);
        }
        if (now_ < until) now_ = until;
    }

    /// Runs until the event queue is exhausted (or `maxEvents` fired —
    /// a guard against accidental infinite timer loops in tests).
    void run(std::uint64_t maxEvents = UINT64_MAX) {
        std::uint64_t fired = 0;
        while (fired < maxEvents) {
            const std::uint32_t slot = wheel_.peekMin();
            if (slot == detail::kNoSlot) break;
            fireMin(slot);
            ++fired;
        }
    }

    std::size_t pendingEvents() const { return wheel_.size(); }
    const SchedulerStats& stats() const {
        stats_.poolCapacity = pool_.capacity();
        return stats_;
    }

    /// This simulation's frame-storage recycler (datapath counters live in
    /// its stats; benches and scenario rows read them from here).
    SlabPool& framePool() { return framePool_; }
    const SlabPool& framePool() const { return framePool_; }

    /// Cancels every pending event, destroying the captured callbacks NOW.
    /// Orchestration layers call this before tearing down the components
    /// those callbacks reference — e.g. Testbed's destructor must release
    /// in-flight packets (which may hold arena-backed reassembly buffers)
    /// while the owning nodes are still alive.
    void cancelAllPending() {
        for (;;) {
            const std::uint32_t slot = wheel_.peekMin();
            if (slot == detail::kNoSlot) break;
            wheel_.remove(slot);
            pool_.release(slot);
            ++stats_.cancelled;
        }
    }

private:
    friend class EventHandle;

    bool slotPending(std::uint32_t slot, std::uint32_t generation) const {
        if (!pool_.contains(slot)) return false;
        const detail::EventRecord& rec = pool_.record(slot);
        return rec.generation == generation && rec.queuePos != detail::kNotQueued;
    }

    void cancelSlot(std::uint32_t slot, std::uint32_t generation) {
        if (!slotPending(slot, generation)) return;
        wheel_.remove(slot);
        pool_.release(slot);
        ++stats_.cancelled;
    }

    void fireMin(std::uint32_t slot) {
        detail::EventRecord& rec = pool_.record(slot);
        TCPLP_ASSERT(rec.when >= now_);
        now_ = rec.when;
        // Move the callback out and retire the record *before* invoking, so
        // a callback that re-arms its own timer allocates a fresh event
        // instead of mutating a slot that is about to be recycled.
        SmallFn fn = std::move(rec.fn);
        wheel_.remove(slot);
        pool_.release(slot);
        wheel_.onTimeAdvance(now_);
        ++stats_.fired;
        fn();
    }

    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    Rng rng_;
    mutable SchedulerStats stats_;
    detail::EventPool pool_;
    TimerWheel wheel_{pool_};  // declared after pool_, which it references
    SlabPool framePool_;
};

inline void EventHandle::cancel() {
    if (simulator_ != nullptr) simulator_->cancelSlot(slot_, generation_);
    simulator_ = nullptr;
}

inline bool EventHandle::pending() const {
    return simulator_ != nullptr && simulator_->slotPending(slot_, generation_);
}

/// Restartable one-shot timer bound to a simulator — the idiom used by all
/// protocol timers (TCP retransmit, delayed ACK, CoAP retransmit, MAC sleep).
/// Re-arming a pending timer reuses its pooled event record via
/// Simulator::reschedule — no allocation, no tombstone in the ready queue.
class Timer {
public:
    template <typename F>
    Timer(Simulator& simulator, F&& fn) : simulator_(simulator), fn_(std::forward<F>(fn)) {}

    ~Timer() { stop(); }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// (Re)arms the timer `delay` from now; any earlier arming is cancelled.
    void start(Time delay) {
        const Time when = simulator_.now() + delay;
        if (simulator_.reschedule(handle_, when)) return;
        handle_ = simulator_.scheduleAt(when, [this] { fn_(); });
    }

    void stop() { handle_.cancel(); }
    bool running() const { return handle_.pending(); }

private:
    Simulator& simulator_;
    SmallFn fn_;
    EventHandle handle_;
};

}  // namespace tcplp::sim
