// Lightweight status type for error handling without exceptions.
//
// Library code in this project never throws across module boundaries; fallible
// operations return a Status (or a Result<T>, see result.h). This mirrors the
// error-handling idiom of large os-systems codebases (Fuchsia, Abseil) while
// keeping the dependency footprint at zero.

#ifndef PRONGHORN_SRC_COMMON_STATUS_H_
#define PRONGHORN_SRC_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace pronghorn {

// Canonical error space, a deliberately small subset of the Abseil canonical
// codes that covers every failure mode in this codebase.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,   // Caller passed a value outside the documented domain.
  kNotFound = 2,          // Key / object / snapshot does not exist.
  kAlreadyExists = 3,     // Insert would overwrite under exclusive semantics.
  kFailedPrecondition = 4,// Object is in the wrong state for the operation.
  kOutOfRange = 5,        // Index or cursor beyond the valid range.
  kDataLoss = 6,          // Corruption detected (bad checksum, truncation).
  kResourceExhausted = 7, // Capacity limit hit (pool, store quota).
  kUnimplemented = 8,     // Feature intentionally not provided.
  kInternal = 9,          // Invariant violation; indicates a bug.
  kAborted = 10,          // Concurrency conflict (e.g. CAS version mismatch).
  kUnavailable = 11,      // Transient failure, safe to retry (fault injection).
};

// Human-readable name for a code ("kOk" -> "OK").
std::string_view StatusCodeName(StatusCode code);

// Value type carrying a code plus an optional message. One word of payload:
// the message lives behind a pointer that is null when the status is OK or
// carries no text, so building, moving and destroying an OK status (every
// successful Result<T>) touches no string. Copying deep-copies the message;
// moving moves the pointer, leaving the source with its code and no message.
class Status {
 public:
  // Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty() ? nullptr
                                 : std::make_unique<std::string>(std::move(message))) {}

  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_ == nullptr
                     ? nullptr
                     : std::make_unique<std::string>(*other.message_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      *this = Status(other);
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;
  ~Status() = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  // The message, or a static empty string when there is none.
  const std::string& message() const {
    return message_ == nullptr ? EmptyMessage() : *message_;
  }

  // "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message() == other.message();
  }

 private:
  static const std::string& EmptyMessage();

  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;
};

// Convenience constructors, mirroring absl::InvalidArgumentError etc.
inline Status OkStatus() { return Status(); }
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status DataLossError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);
Status AbortedError(std::string message);
Status UnavailableError(std::string message);

}  // namespace pronghorn

// Propagates an error Status from a fallible expression, mirroring
// RETURN_IF_ERROR in Abseil-style codebases.
#define PRONGHORN_RETURN_IF_ERROR(expr)              \
  do {                                               \
    ::pronghorn::Status status_macro_tmp_ = (expr);  \
    if (!status_macro_tmp_.ok()) {                   \
      return status_macro_tmp_;                      \
    }                                                \
  } while (false)

#endif  // PRONGHORN_SRC_COMMON_STATUS_H_
