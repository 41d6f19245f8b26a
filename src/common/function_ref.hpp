// FunctionRef<R(A...)>: a non-owning reference to a callable, two words
// wide. For parameters that are only called during the call that receives
// them (retry policies, visitors); unlike std::function it never copies the
// callable or allocates. The referenced callable must outlive the
// FunctionRef, which a temporary lambda argument does.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace scimpi {

template <class Sig>
class FunctionRef;

template <class R, class... A>
class FunctionRef<R(A...)> {
public:
    template <class F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                 std::is_invocable_r_v<R, F&, A...>)
    FunctionRef(F&& fn) noexcept  // NOLINT(google-explicit-constructor)
        : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
          call_([](void* obj, A... args) -> R {
              return (*static_cast<std::remove_reference_t<F>*>(obj))(
                  std::forward<A>(args)...);
          }) {}

    R operator()(A... args) const { return call_(obj_, std::forward<A>(args)...); }

private:
    void* obj_;
    R (*call_)(void*, A...);
};

}  // namespace scimpi
