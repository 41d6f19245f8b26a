// sim::Callback: the closure type of Engine::at / Engine::after.
//
// A move-only `void()` callable stored in fixed inline storage, so posting a
// timed callback never touches the heap. There is no heap fallback: a
// closure that does not fit is a compile error, not a silent allocation.
// The largest closure in the simulator is Rank::post_ctrl's (a Rank* and a
// CtrlMsg); kInlineBytes is sized for it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace scimpi::sim {

class Callback {
public:
    static constexpr std::size_t kInlineBytes = 168;
    static constexpr std::size_t kAlign = alignof(void*);

    Callback() = default;

    template <class F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
                 std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
    Callback(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert
        emplace(std::forward<F>(fn));
    }

    Callback(Callback&& o) noexcept { take(o); }
    Callback& operator=(Callback&& o) noexcept {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { reset(); }

    /// Destroy the held closure (if any) and construct `fn` in place.
    template <class F>
    void emplace(F&& fn) {
        using Fn = std::remove_cvref_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "closure too large for sim::Callback's inline storage");
        static_assert(alignof(Fn) <= kAlign, "closure over-aligned for sim::Callback");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "sim::Callback closures must be nothrow-movable");
        reset();
        ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &kOps<Fn>;
    }

    /// Run the held closure; requires one.
    void operator()() { ops_->invoke(buf_); }

    [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

    /// Destroy the held closure, leaving the callback empty.
    void reset() noexcept {
        if (ops_ == nullptr) return;
        if (ops_->destroy != nullptr) ops_->destroy(buf_);
        ops_ = nullptr;
    }

private:
    struct Ops {
        void (*invoke)(void*);
        void (*relocate)(void* dst, void* src) noexcept;  // move-construct, destroy src
        void (*destroy)(void*) noexcept;                  // null: trivially destructible
    };

    template <class Fn>
    static constexpr Ops kOps{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
        },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
    };

    void take(Callback& o) noexcept {
        if (o.ops_ == nullptr) return;
        o.ops_->relocate(buf_, o.buf_);
        ops_ = std::exchange(o.ops_, nullptr);
    }

    alignas(kAlign) std::byte buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

}  // namespace scimpi::sim
