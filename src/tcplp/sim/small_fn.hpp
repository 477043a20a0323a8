// Move-only callable with inline storage for small captures.
//
// The event core schedules hundreds of thousands of timer callbacks per
// simulated second; wrapping each in std::function would heap-allocate for
// any capture larger than the implementation's tiny SBO. SmallFn stores
// captures up to kInlineBytes (48 B — enough for every callback in the
// stack: a `this` pointer plus a few ints or a shared payload buffer)
// directly inside the event record, falling back to the heap only for
// oversized captures. The fallback count is observable so benches can assert
// the hot path stays allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace tcplp::sim {

class SmallFn {
public:
    static constexpr std::size_t kInlineBytes = 48;

    SmallFn() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, SmallFn> &&
                 std::is_invocable_r_v<void, std::decay_t<F>&>)
    SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
            ops_ = &kInlineOps<Fn>;
        } else {
            heap_ = new Fn(std::forward<F>(f));
            ops_ = &kHeapOps<Fn>;
            ++heapFallbacks_;
        }
    }

    SmallFn(SmallFn&& other) noexcept { moveFrom(other); }
    SmallFn& operator=(SmallFn&& other) noexcept {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }
    SmallFn(const SmallFn&) = delete;
    SmallFn& operator=(const SmallFn&) = delete;
    ~SmallFn() { reset(); }

    void reset() {
        if (ops_ != nullptr) ops_->destroy(object());
        ops_ = nullptr;
        heap_ = nullptr;
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->invoke(object()); }

    /// Total callables constructed on this thread that did not fit inline
    /// (benches use this to prove the scheduler hot path performs zero heap
    /// allocations).
    static std::uint64_t heapFallbacks() { return heapFallbacks_; }

private:
    struct Ops {
        void (*invoke)(void* obj);
        /// Move-constructs into `to` and destroys `from` (inline storage only).
        void (*relocate)(void* from, void* to);
        void (*destroy)(void* obj);
        bool onHeap;
    };

    template <typename Fn>
    static constexpr Ops kInlineOps{
        [](void* o) { (*static_cast<Fn*>(o))(); },
        [](void* from, void* to) {
            ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
            static_cast<Fn*>(from)->~Fn();
        },
        [](void* o) { static_cast<Fn*>(o)->~Fn(); },
        false,
    };
    template <typename Fn>
    static constexpr Ops kHeapOps{
        [](void* o) { (*static_cast<Fn*>(o))(); },
        nullptr,
        [](void* o) { delete static_cast<Fn*>(o); },
        true,
    };

    void* object() { return ops_ != nullptr && ops_->onHeap ? heap_ : static_cast<void*>(inline_); }

    void moveFrom(SmallFn& other) noexcept {
        ops_ = other.ops_;
        heap_ = other.heap_;
        if (ops_ != nullptr && !ops_->onHeap) ops_->relocate(other.inline_, inline_);
        other.ops_ = nullptr;
        other.heap_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char inline_[kInlineBytes];
    void* heap_ = nullptr;
    const Ops* ops_ = nullptr;

    static inline thread_local std::uint64_t heapFallbacks_ = 0;
};

}  // namespace tcplp::sim
