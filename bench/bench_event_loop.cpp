// Event-core microbenchmark: the pooled timer-wheel scheduler vs the seed
// design.
//
// The presenter emits ONE line of JSON to stdout so future PRs can track
// the perf trajectory in BENCH_*.json files:
//
//   {"bench":"event_loop","events":...,"pooled_allocs_per_event":...,...}
//
// The workload models what the protocol stack actually does to the
// scheduler: a set of restartable millisecond-scale timers (TCP RTO,
// delayed ACK, MAC sleep/poll — all of which cluster at a handful of
// deadlines) that fire, re-arm themselves, and occasionally re-arm a
// neighbor before it expires. Heap allocations are counted by the shared
// counting operator new (bench/alloc_count.hpp) — no instrumentation in the
// measured code.
//
// "Legacy" is a frozen copy of the seed scheduler (shared_ptr<State> per
// event + type-erased std::function + lazy-cancel priority_queue), kept here
// so the comparison survives the seed's replacement. "Pooled" is today's
// sim::Simulator: the slab event pool ordered by the hierarchical
// TimerWheel (sim/scheduler.hpp). Both fire the identical event order, so
// the delta is pure scheduler cost.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "bench/alloc_count.hpp"
#include "bench/driver.hpp"
#include "tcplp/sim/simulator.hpp"

namespace {

using tcplp::sim::Time;

// --- Frozen seed scheduler (the "before") ----------------------------------

class LegacySimulator;

class LegacyEventHandle {
public:
    LegacyEventHandle() = default;
    void cancel() {
        if (auto s = state_.lock()) s->cancelled = true;
        state_.reset();
    }

private:
    friend class LegacySimulator;
    struct State {
        bool cancelled = false;
        bool fired = false;
    };
    explicit LegacyEventHandle(std::weak_ptr<State> state) : state_(std::move(state)) {}
    std::weak_ptr<State> state_;
};

class LegacySimulator {
public:
    Time now() const { return now_; }

    LegacyEventHandle schedule(Time delay, std::function<void()> fn) {
        auto state = std::make_shared<LegacyEventHandle::State>();
        queue_.push(Event{now_ + delay, nextSeq_++, state, std::move(fn)});
        return LegacyEventHandle(state);
    }

    void run() {
        while (!queue_.empty()) {
            Event ev = std::move(const_cast<Event&>(queue_.top()));
            queue_.pop();
            now_ = ev.when;
            if (!ev.state->cancelled) {
                ev.state->fired = true;
                ev.fn();
            }
        }
    }

private:
    struct Event {
        Time when;
        std::uint64_t seq;
        std::shared_ptr<LegacyEventHandle::State> state;
        std::function<void()> fn;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

class LegacyTimer {
public:
    LegacyTimer(LegacySimulator& simulator, std::function<void()> fn)
        : simulator_(simulator), fn_(std::move(fn)) {}
    void start(Time delay) {
        handle_.cancel();
        handle_ = simulator_.schedule(delay, [this] { fn_(); });
    }

private:
    LegacySimulator& simulator_;
    std::function<void()> fn_;
    LegacyEventHandle handle_;
};

// --- Workload ---------------------------------------------------------------

constexpr int kTimers = 64;
constexpr std::uint64_t kEvents = 1'000'000;

struct RunResult {
    double nsPerEvent = 0.0;
    double allocsPerEvent = 0.0;
    double eventsPerSec = 0.0;
};

template <typename Sim, typename Tmr, typename... Args>
RunResult runWorkload(Args&&... args) {
    Sim simulator(std::forward<Args>(args)...);
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<Tmr>> timers;
    timers.reserve(kTimers);
    constexpr Time kMs = tcplp::sim::kMillisecond;  // protocol timers are ms-scale
    for (int i = 0; i < kTimers; ++i) {
        timers.push_back(std::make_unique<Tmr>(simulator, [&, i] {
            ++fired;
            if (fired >= kEvents) return;
            // Re-arm self (the RTO idiom)...
            timers[std::size_t(i)]->start(kMs * (1 + i % 13));
            // ...and every third fire, re-arm a neighbor that has not
            // expired yet (the delayed-ACK-reset / sleep-extend idiom).
            if (fired % 3 == 0) {
                timers[std::size_t((i + 1) % kTimers)]->start(kMs * (2 + i % 11));
            }
        }));
    }

    const std::uint64_t allocsBefore = bench::allocCount();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimers; ++i) timers[std::size_t(i)]->start(kMs + i);
    simulator.run();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs = bench::allocCount() - allocsBefore;

    const double ns = double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    RunResult r;
    r.nsPerEvent = ns / double(fired);
    r.allocsPerEvent = double(allocs) / double(fired);
    r.eventsPerSec = double(fired) * 1e9 / ns;
    return r;
}

using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "event_loop";
    d.title = "Event-core microbench: pooled scheduler vs the seed design";
    d.measure = [](const ScenarioSpec&, const Point&) {
        // Delta, not the absolute counter: the global accumulates across
        // every simulation this process ran before (in a campaign a worker
        // executes other scenarios' points back-to-back), and rows must be
        // independent of execution order.
        const std::uint64_t fallbacksBefore = tcplp::sim::SmallFn::heapFallbacks();
        const RunResult pooled = runWorkload<tcplp::sim::Simulator, tcplp::sim::Timer>(1);
        const RunResult legacy = runWorkload<LegacySimulator, LegacyTimer>();
        const double denom = pooled.allocsPerEvent > 1e-9 ? pooled.allocsPerEvent : 1e-9;
        scenario::MetricRow row;
        row.set("events", kEvents)
            .set("timers", std::int64_t(kTimers))
            .set("pooled_events_per_sec", pooled.eventsPerSec)
            .set("pooled_ns_per_event", pooled.nsPerEvent)
            .set("pooled_allocs_per_event", pooled.allocsPerEvent)
            .set("legacy_events_per_sec", legacy.eventsPerSec)
            .set("legacy_ns_per_event", legacy.nsPerEvent)
            .set("legacy_allocs_per_event", legacy.allocsPerEvent)
            .set("alloc_reduction_factor", legacy.allocsPerEvent / denom)
            .set("smallfn_heap_fallbacks",
                 tcplp::sim::SmallFn::heapFallbacks() - fallbacksBefore);
        return row;
    };
    d.present = [](const SweepResult& r) {
        const auto& row = r.records.front().row;
        std::printf(
            "{\"bench\":\"event_loop\",\"events\":%.0f,\"timers\":%.0f,"
            "\"pooled_events_per_sec\":%.0f,\"pooled_ns_per_event\":%.1f,"
            "\"pooled_allocs_per_event\":%.6f,"
            "\"legacy_events_per_sec\":%.0f,\"legacy_ns_per_event\":%.1f,"
            "\"legacy_allocs_per_event\":%.6f,"
            "\"alloc_reduction_factor\":%.1f,"
            "\"smallfn_heap_fallbacks\":%.0f}\n",
            row.number("events"), row.number("timers"),
            row.number("pooled_events_per_sec"), row.number("pooled_ns_per_event"),
            row.number("pooled_allocs_per_event"), row.number("legacy_events_per_sec"),
            row.number("legacy_ns_per_event"), row.number("legacy_allocs_per_event"),
            row.number("alloc_reduction_factor"), row.number("smallfn_heap_fallbacks"));
    };
    return d;
}

Registration reg{def()};
}  // namespace
