// Unit tests: discrete-event simulator core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tcplp/sim/simulator.hpp"

using namespace tcplp;
using namespace tcplp::sim;

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator simulator;
    std::vector<int> order;
    simulator.schedule(300, [&] { order.push_back(3); });
    simulator.schedule(100, [&] { order.push_back(1); });
    simulator.schedule(200, [&] { order.push_back(2); });
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(simulator.now(), 300);
}

TEST(Simulator, SimultaneousEventsFifo) {
    Simulator simulator;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) simulator.schedule(10, [&order, i] { order.push_back(i); });
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsFiring) {
    Simulator simulator;
    bool fired = false;
    Timer t(simulator, [&] { fired = true; });
    t.start(50);
    EXPECT_TRUE(t.running());
    t.stop();
    t.stop();  // stopping an idle timer is a no-op
    simulator.run();
    EXPECT_FALSE(fired);
    EXPECT_FALSE(t.running());
    EXPECT_EQ(simulator.stats().cancelled, 1u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator simulator;
    int count = 0;
    // Self-rescheduling ticker.
    std::function<void()> tick = [&] {
        ++count;
        simulator.schedule(10, tick);
    };
    simulator.schedule(10, tick);
    simulator.runUntil(105);
    EXPECT_EQ(count, 10);
    EXPECT_GE(simulator.now(), 100);
}

TEST(Simulator, NestedSchedulingDuringCallback) {
    Simulator simulator;
    std::vector<int> order;
    simulator.schedule(10, [&] {
        order.push_back(1);
        simulator.schedule(0, [&] { order.push_back(2); });
    });
    simulator.schedule(20, [&] { order.push_back(3); });
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timer, RestartReplacesDeadline) {
    Simulator simulator;
    int fires = 0;
    Timer t(simulator, [&] { ++fires; });
    t.start(100);
    t.start(500);  // re-arm
    simulator.runUntil(200);
    EXPECT_EQ(fires, 0);
    simulator.runUntil(600);
    EXPECT_EQ(fires, 1);
}

TEST(Timer, StopPreventsFire) {
    Simulator simulator;
    int fires = 0;
    Timer t(simulator, [&] { ++fires; });
    t.start(100);
    t.stop();
    simulator.run();
    EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmAfterFiringCountsAsScheduled) {
    Simulator simulator;
    int fires = 0;
    Timer t(simulator, [&] { ++fires; });
    t.start(10);
    simulator.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(t.running());
    // A fired timer is idle: re-arming queues its record again rather than
    // re-sorting a pending one.
    t.start(100);
    EXPECT_TRUE(t.running());
    EXPECT_EQ(simulator.stats().scheduled, 2u);
    EXPECT_EQ(simulator.stats().rescheduled, 0u);
    simulator.run();
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(simulator.now(), 110);
}

TEST(Simulator, RescheduleMovesDeadlineBothWays) {
    Simulator simulator;
    std::vector<int> order;
    Timer a(simulator, [&] { order.push_back(1); });
    Timer c(simulator, [&] { order.push_back(3); });
    a.start(300);
    simulator.schedule(200, [&] { order.push_back(2); });
    // Pull `a` earlier than the other event...
    a.start(100);
    // ...and push a third event later than everything.
    c.start(50);
    c.start(400);
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(simulator.stats().rescheduled, 2u);
}

TEST(Timer, ThrowingCallbackClearsTheFiringMark) {
    // The firing mark ~Timer checks is cleared even when the callback throws
    // (the chaos watchdog ends a run by throwing out of runUntil).
    Simulator simulator;
    auto t = std::make_unique<Timer>(simulator, [] { throw std::runtime_error("stall"); });
    t->start(10);
    EXPECT_THROW(simulator.run(), std::runtime_error);
    t.reset();  // would trip the in-own-callback assert if the mark leaked
    EXPECT_EQ(simulator.pendingEvents(), 0u);
}

TEST(Timer, CancelAllPendingStopsButKeepsTheCallback) {
    Simulator simulator;
    int fires = 0;
    Timer t(simulator, [&] { ++fires; });
    t.start(10);
    simulator.cancelAllPending();
    EXPECT_FALSE(t.running());
    EXPECT_EQ(simulator.stats().cancelled, 1u);
    t.start(20);  // the record and its callback stayed with the timer
    simulator.run();
    EXPECT_EQ(fires, 1);
}

TEST(TimerDeathTest, DestroyedInsideItsOwnCallbackAborts) {
    EXPECT_DEATH(
        {
            Simulator simulator;
            std::unique_ptr<Timer> t;
            t = std::make_unique<Timer>(simulator, [&t] { t.reset(); });
            t->start(10);
            simulator.run();
        },
        "Timer destroyed in its own callback");
}

// --- Timer-storm suite over the timer-wheel ready queue --------------------
//
// The wheel buckets deadlines by ~1 ms tick across four levels plus an
// overflow list, yet must fire in the exact (when, scheduling-seq) total
// order. The tests below drive it through the Simulator across bucket,
// level and horizon boundaries; tests/test_scheduler_property.cpp checks the
// same order against a std::multimap oracle on random op sequences.

TEST(TimerWheel, RestartStormReusesOnePooledEvent) {
    Simulator simulator;
    int fires = 0;
    Timer t(simulator, [&] { ++fires; });
    // A TCP RTO-style storm: re-arm thousands of times before expiry.
    for (int i = 0; i < 10000; ++i) t.start(100 + (i % 7));
    EXPECT_EQ(simulator.pendingEvents(), 1u);
    // One slab of event records is enough for the whole storm: re-arming
    // re-sorts the timer's own pooled record instead of allocating.
    EXPECT_EQ(simulator.stats().scheduled, 1u);
    EXPECT_EQ(simulator.stats().rescheduled, 9999u);
    EXPECT_LE(simulator.stats().poolCapacity, 256u);
    simulator.run();
    EXPECT_EQ(fires, 1);
}

TEST(TimerWheel, ManyTimersRestartingStayDeterministic) {
    // Interleaved restart storms across many timers: firing order must stay
    // the (when, scheduling-seq) total order regardless of pool recycling.
    Simulator simulator;
    std::vector<int> order;
    std::vector<std::unique_ptr<Timer>> timers;
    for (int i = 0; i < 16; ++i) {
        timers.push_back(
            std::make_unique<Timer>(simulator, [&order, i] { order.push_back(i); }));
    }
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 16; ++i) timers[std::size_t(i)]->start(Time(1000 + i));
    }
    simulator.run();
    std::vector<int> expect;
    for (int i = 0; i < 16; ++i) expect.push_back(i);
    EXPECT_EQ(order, expect);
}

TEST(TimerWheel, RearmInsideOwnCallbackKeepsFiring) {
    Simulator simulator;
    int fires = 0;
    Timer t(simulator, [&] {
        if (++fires < 5) t.start(10);
    });
    t.start(10);
    simulator.run(100);
    EXPECT_EQ(fires, 5);
}

TEST(TimerWheel, CancelMidFlightSkipsExactlyTheCancelled) {
    // Cancel from inside a running callback (the delayed-ACK-quash idiom):
    // timer 2's callback stops timers 5 and 9 while 3..11 are pending.
    Simulator simulator;
    std::vector<int> order;
    std::vector<std::unique_ptr<Timer>> timers;
    for (int i = 0; i < 12; ++i) {
        timers.push_back(std::make_unique<Timer>(simulator, [&, i] {
            order.push_back(i);
            if (i == 2) {
                timers[5]->stop();
                timers[9]->stop();
            }
        }));
        timers.back()->start(Time(100 * (i + 1)));
    }
    timers[2]->stop();
    timers[2]->start(Time(250));  // idle again: a fresh arming
    timers[3]->stop();            // cancel before the run starts, too
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 6, 7, 8, 10, 11}));
    EXPECT_EQ(simulator.stats().cancelled, 4u);
}

TEST(TimerWheel, RescheduleToEarlierSlotCrossesBuckets) {
    // Pull pending events backwards across wheel-bucket and wheel-level
    // boundaries: far-future events rescheduled to near deadlines (and one
    // near event pushed far out) must still fire in (when, seq) order.
    Simulator simulator;
    std::vector<int> order;
    Timer farA(simulator, [&] { order.push_back(1); });
    Timer farB(simulator, [&] { order.push_back(2); });
    Timer near(simulator, [&] { order.push_back(3); });
    farA.start(2 * kMinute);
    farB.start(3 * kHour);
    near.start(5 * kMillisecond);
    simulator.schedule(10 * kMillisecond, [&] { order.push_back(4); });
    farA.start(2 * kMillisecond);  // minutes -> ticks
    farB.start(3 * kMillisecond);  // hours -> ticks
    near.start(30 * kMinute);      // ticks -> level 2+
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
    EXPECT_EQ(simulator.stats().rescheduled, 3u);
}

TEST(TimerWheel, FarFutureOverflowDeadlines) {
    // Deadlines past the wheel horizon (4 levels x 64 slots x ~1 ms tick
    // ~= 4.8 h) live on the overflow list and must cascade back in as
    // simulated time approaches them — including events scheduled mid-run
    // once the wheel base has advanced by days.
    Simulator simulator;
    std::vector<int> order;
    simulator.schedule(3 * 24 * kHour, [&] { order.push_back(5); });
    simulator.schedule(10 * kHour, [&] { order.push_back(3); });
    simulator.schedule(kMillisecond, [&] {
        order.push_back(1);
        simulator.schedule(26 * kHour, [&] { order.push_back(4); });  // re-overflow
        simulator.schedule(kSecond, [&] { order.push_back(2); });
    });
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(simulator.now(), 3 * 24 * kHour);
}

TEST(TimerWheel, SameTickOrderingIsExactMicrosecondOrder) {
    // Events inside one ~1 ms wheel tick (1024 us) still fire in exact
    // microsecond order, with scheduling seq breaking when-ties — the wheel
    // may bucket them together but must not coarsen the order.
    Simulator simulator;
    std::vector<int> order;
    simulator.schedule(900, [&] { order.push_back(3); });
    simulator.schedule(100, [&] { order.push_back(1); });
    simulator.schedule(500, [&] { order.push_back(2); });
    simulator.schedule(1000, [&] { order.push_back(4); });  // same tick, later us
    simulator.schedule(1000, [&] { order.push_back(5); });  // when-tie: seq order
    simulator.schedule(1030, [&] { order.push_back(6); });  // next tick
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(SmallFn, InlineCapturesAvoidHeap) {
    const auto before = SmallFn::heapFallbacks();
    int x = 0;
    SmallFn small([&x] { ++x; });  // one pointer: inline
    small();
    EXPECT_EQ(x, 1);
    EXPECT_EQ(SmallFn::heapFallbacks(), before);

    struct Big {
        std::uint64_t pad[9];  // 72 B > kInlineBytes
    } big{};
    SmallFn large([big, &x] { x += int(big.pad[0]) + 1; });
    large();
    EXPECT_EQ(x, 2);
    EXPECT_EQ(SmallFn::heapFallbacks(), before + 1);
}

TEST(Simulator, PoolRecyclesSlotsAcrossManyEvents) {
    // A long self-rescheduling run must not grow the pool beyond one slab.
    Simulator simulator;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5000) simulator.schedule(10, tick);
    };
    simulator.schedule(10, tick);
    simulator.run();
    EXPECT_EQ(count, 5000);
    EXPECT_LE(simulator.stats().poolCapacity, 256u);
}

TEST(Rng, DeterministicGivenSeed) {
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformBounds) {
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        const auto v = r.uniformRange(5, 9);
        ASSERT_GE(v, 5);
        ASSERT_LE(v, 9);
    }
}

TEST(Rng, ChanceFrequency) {
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) hits += r.chance(0.3);
    EXPECT_NEAR(double(hits) / 100000.0, 0.3, 0.01);
}

// --- deriveStream: the per-run-point stream keying every sharded sweep -----
//
// Every parallel sweep and campaign keys a point's RNG stream on its grid
// position via deriveStream. If its mixing constants (or the xoshiro
// seeding behind it) ever change — even "harmlessly" — every golden
// artifact and every pinned digest in the repo silently shifts. The pinned
// values below make such a change fail loudly; they are pure integer
// arithmetic, so they must hold on every platform and compiler.

TEST(RngStreams, DeriveStreamPinnedValues) {
    EXPECT_EQ(Rng::deriveStream(1, 0), 0x910a2dec89025cc1ULL);
    EXPECT_EQ(Rng::deriveStream(1, 1), 0xbeeb8da1658eec67ULL);
    EXPECT_EQ(Rng::deriveStream(42, 7), 0xccf635ee9e9e2fa4ULL);
    // First draw of the derived stream: pins the seed -> xoshiro expansion.
    Rng r(Rng::deriveStream(42, 7));
    EXPECT_EQ(r.next(), 0xd156fe7ba6b2616eULL);
}

TEST(RngStreams, DerivedDigestStableAcrossPlatforms) {
    // The cross-refactor determinism oracle in one assertion: seed a stream
    // from a derived key, consume 1000 draws, pin the order-sensitive state
    // digest. Shift/xor/multiply only — platform-independent.
    Rng r(Rng::deriveStream(42, 7));
    for (int i = 0; i < 1000; ++i) r.next();
    EXPECT_EQ(r.stateDigest(), 0xcfeed6755cd25666ULL);
}

TEST(RngStreams, AdjacentStreamsAreIndependent) {
    // Cross-correlation smoke over adjacent grid positions (the pairing a
    // sweep actually produces): bitwise agreement of paired draws should be
    // ~50%, and the sample correlation of paired uniforms ~0.
    Rng a(Rng::deriveStream(42, 0));
    Rng b(Rng::deriveStream(42, 1));
    constexpr int kDraws = 100000;
    std::uint64_t agreeingBits = 0;
    double sumA = 0, sumB = 0, sumAB = 0, sumA2 = 0, sumB2 = 0;
    for (int i = 0; i < kDraws; ++i) {
        const std::uint64_t xa = a.next();
        const std::uint64_t xb = b.next();
        agreeingBits += std::uint64_t(64 - __builtin_popcountll(xa ^ xb));
        const double ua = double(xa >> 11) * (1.0 / 9007199254740992.0);
        const double ub = double(xb >> 11) * (1.0 / 9007199254740992.0);
        sumA += ua;
        sumB += ub;
        sumAB += ua * ub;
        sumA2 += ua * ua;
        sumB2 += ub * ub;
    }
    const double bitAgreement = double(agreeingBits) / double(kDraws) / 64.0;
    EXPECT_NEAR(bitAgreement, 0.5, 0.005);
    const double n = kDraws;
    const double cov = sumAB / n - (sumA / n) * (sumB / n);
    const double varA = sumA2 / n - (sumA / n) * (sumA / n);
    const double varB = sumB2 / n - (sumB / n) * (sumB / n);
    const double corr = cov / std::sqrt(varA * varB);
    EXPECT_LT(std::abs(corr), 0.02);
}

TEST(RngStreams, StreamIdsAndBaseSeedsBothSeparate) {
    // No collisions across a realistic sweep's worth of derived seeds.
    std::vector<std::uint64_t> seen;
    for (std::uint64_t base : {1ULL, 42ULL, 1000003ULL}) {
        for (std::uint64_t id = 0; id < 256; ++id)
            seen.push_back(Rng::deriveStream(base, id));
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}
