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
// SmallFn::kInlineBytes are stored inline in the event record. A one-shot
// schedule() takes a record and firing returns it. A Timer owns one record,
// callback included, for its whole life: start() queues it or re-sorts it in
// place, stop() unqueues it, and firing runs the callback in place, so arming
// or firing a Timer builds and frees no closure. Timer::stop() is the one
// way to cancel an event; one-shot events cannot be cancelled.
//
// Ordering is the job of the ready queue, a hierarchical TimerWheel
// (sim/scheduler.hpp) held by value: O(1) insert/cancel/re-arm, built for
// the timer storms where RTO/delayed-ACK/persist/poll deadlines cluster,
// and exact in the (when, seq) total order.
//
// Lifetime: a Timer is destroyed before its Simulator, and never from inside
// its own callback (~Timer asserts the latter). Every component in this
// codebase owns a `Simulator&` with a strictly longer lifetime.
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

/// Counters describing scheduler behavior, exported for benches/tests.
struct SchedulerStats {
    std::uint64_t scheduled = 0;    // one-shots and starts of an idle Timer
    std::uint64_t rescheduled = 0;  // in-place deadline updates (pending Timer re-arm)
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;    // pending events unqueued without firing
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

    /// Schedules `fn` to run `delay` microseconds from now. A one-shot
    /// cannot be cancelled: work that may be called off belongs on a Timer.
    template <typename F>
    void schedule(Time delay, F&& fn) {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /// Schedules `fn` at absolute time `when` (>= now).
    template <typename F>
    void scheduleAt(Time when, F&& fn) {
        const std::uint32_t slot = pool_.alloc();
        pool_.record(slot).fn = SmallFn(std::forward<F>(fn));
        arm(slot, when);
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

    /// Cancels every pending event, destroying one-shot callbacks NOW.
    /// Orchestration layers call this before tearing down the components
    /// those callbacks reference — e.g. Testbed's destructor must release
    /// in-flight packets (which may hold arena-backed reassembly buffers)
    /// while the owning nodes are still alive. A pending Timer is stopped;
    /// its record and callback stay with it.
    void cancelAllPending() {
        for (;;) {
            const std::uint32_t slot = wheel_.peekMin();
            if (slot == detail::kNoSlot) break;
            wheel_.remove(slot);
            if (!pool_.record(slot).owned) pool_.release(slot);
            ++stats_.cancelled;
        }
    }

private:
    friend class Timer;

    /// Stamps `slot` with `when` and the next seq (so it fires after events
    /// already due at the same time), then queues it, or re-sorts it in place
    /// when it is already queued.
    void arm(std::uint32_t slot, Time when) {
        TCPLP_ASSERT(when >= now_);
        detail::EventRecord& rec = pool_.record(slot);
        rec.when = when;
        rec.seq = nextSeq_++;
        if (rec.queuePos == detail::kNotQueued) {
            wheel_.push(slot);
            ++stats_.scheduled;
        } else {
            wheel_.update(slot);
            ++stats_.rescheduled;
        }
    }

    void disarm(std::uint32_t slot) {
        if (pool_.record(slot).queuePos == detail::kNotQueued) return;
        wheel_.remove(slot);
        ++stats_.cancelled;
    }

    void fireMin(std::uint32_t slot) {
        detail::EventRecord& rec = pool_.record(slot);
        TCPLP_ASSERT(rec.when >= now_);
        now_ = rec.when;
        wheel_.remove(slot);
        wheel_.onTimeAdvance(now_);
        ++stats_.fired;
        if (!rec.owned) {
            // Move a one-shot callback out and retire its record *before*
            // invoking, so whatever it schedules can reuse the slot.
            SmallFn fn = std::move(rec.fn);
            pool_.release(slot);
            fn();
            return;
        }
        // A Timer's callback runs in place (it may re-arm its own Timer). The
        // mark lets ~Timer refuse to destroy the running callback; it is
        // restored even if the callback throws.
        struct Mark {
            std::uint32_t& firing;
            std::uint32_t outer;
            ~Mark() { firing = outer; }
        } mark{firingOwned_, std::exchange(firingOwned_, slot)};
        rec.fn();
    }

    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    Rng rng_;
    mutable SchedulerStats stats_;
    detail::EventPool pool_;
    TimerWheel wheel_{pool_};  // declared after pool_, which it references
    std::uint32_t firingOwned_ = detail::kNoSlot;  // Timer slot whose callback runs
    SlabPool framePool_;
};

/// Restartable one-shot timer bound to a simulator — the idiom used by all
/// protocol timers (TCP retransmit, delayed ACK, CoAP retransmit, MAC sleep).
/// It owns one pooled event record, callback included, for its whole life:
/// re-arming re-sorts that record in the ready queue and firing runs the
/// callback in place — no allocation, no closure, no tombstone.
class Timer {
public:
    template <typename F>
    Timer(Simulator& simulator, F&& fn) : simulator_(simulator), slot_(simulator.pool_.alloc()) {
        detail::EventRecord& rec = simulator_.pool_.record(slot_);
        rec.fn = SmallFn(std::forward<F>(fn));
        rec.owned = true;
    }

    ~Timer() {
        TCPLP_ASSERT(simulator_.firingOwned_ != slot_ && "Timer destroyed in its own callback");
        stop();
        simulator_.pool_.release(slot_);
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// (Re)arms the timer `delay` from now, replacing any earlier arming.
    void start(Time delay) { simulator_.arm(slot_, simulator_.now() + delay); }
    void stop() { simulator_.disarm(slot_); }
    bool running() const {
        return simulator_.pool_.record(slot_).queuePos != detail::kNotQueued;
    }

private:
    Simulator& simulator_;
    std::uint32_t slot_;
};

}  // namespace tcplp::sim
