// FunctionRef<R(Args...)>: a non-owning reference to a callable.
//
// Two words (object pointer + trampoline), never allocates, and is cheap to
// pass by value. It borrows the callable, so it must not outlive it: take a
// FunctionRef as a parameter and call it during the call, never store it.
// std::function, by contrast, heap-allocates any closure larger than its
// small-object buffer (16 bytes in libstdc++).

#ifndef PRONGHORN_SRC_COMMON_FUNCTION_REF_H_
#define PRONGHORN_SRC_COMMON_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace pronghorn {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_object_v<std::remove_reference_t<F>> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& callable) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(callable)))),
        invoke_([](void* object, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(object),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return invoke_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*invoke_)(void*, Args...);
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_COMMON_FUNCTION_REF_H_
