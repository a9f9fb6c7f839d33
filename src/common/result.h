// Result<T>: value-or-Status, the return type of fallible factory and lookup
// operations (equivalent in spirit to absl::StatusOr<T>).

#ifndef PRONGHORN_SRC_COMMON_RESULT_H_
#define PRONGHORN_SRC_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/status.h"

namespace pronghorn {

// Holds either a T or a non-OK Status. Accessing the value of an error Result
// is a programming error (checked by assert in debug builds).
template <typename T>
class Result {
 public:
  // Implicit construction from a value or from an error Status keeps call
  // sites terse: `return value;` / `return NotFoundError(...);`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result<T> must not be built from an OK Status");
    if (status_.ok()) {
      status_ = InternalError("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  // For a pointer-like T (a smart pointer), `result->member` reaches the
  // pointee, as `(*result)->member` does; otherwise it names T's member.
  decltype(auto) operator->() const {
    if constexpr (kPointerLike) {
      return (value());
    } else {
      return &value();
    }
  }
  decltype(auto) operator->() {
    if constexpr (kPointerLike) {
      return (value());
    } else {
      return &value();
    }
  }

  // Returns the value, or `fallback` if this Result holds an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  // Smart pointers (std::unique_ptr, std::shared_ptr), not std::optional.
  static constexpr bool kPointerLike = requires(const T& t) {
    typename T::element_type;
    t.get();
    t.operator->();
  };

  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

}  // namespace pronghorn

// Assigns the value of a fallible expression to `lhs`, or propagates its
// error Status. Usage: PRONGHORN_ASSIGN_OR_RETURN(auto v, MakeThing());
#define PRONGHORN_ASSIGN_OR_RETURN(lhs, expr)                 \
  PRONGHORN_ASSIGN_OR_RETURN_IMPL_(                           \
      PRONGHORN_MACRO_CONCAT_(result_tmp_, __LINE__), lhs, expr)

#define PRONGHORN_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                     \
  if (!tmp.ok()) {                                       \
    return tmp.status();                                 \
  }                                                      \
  lhs = std::move(tmp).value()

#define PRONGHORN_MACRO_CONCAT_(a, b) PRONGHORN_MACRO_CONCAT_IMPL_(a, b)
#define PRONGHORN_MACRO_CONCAT_IMPL_(a, b) a##b

#endif  // PRONGHORN_SRC_COMMON_RESULT_H_
