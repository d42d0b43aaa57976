// Minimal Status / StatusOr error-handling vocabulary.
//
// The library does not throw exceptions across its public boundary
// (Google C++ style).  Fallible operations return Status (or
// StatusOr<T> when they produce a value).  Internal invariants use the
// LDPR_CHECK* macros from util/logging.h, which abort on violation.

#ifndef LDPR_UTIL_STATUS_H_
#define LDPR_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace ldpr {

/// Canonical error codes, a small subset of absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kFailedPrecondition = 4,
  kInternal = 5,
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: an error code plus a message.
///
/// A default-constructed Status is OK.  Status is cheap to copy and is
/// intended to be returned by value.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "CODE: message".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Convenience constructors mirroring absl::
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status FailedPreconditionError(std::string message);
Status InternalError(std::string message);

/// A value-or-error union.  Accessing value() on an error aborts, so
/// callers must test ok() (or use value_or) first.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value: allows `return v;` in StatusOr functions.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  /// Implicit from error status; must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok() && "value() called on errored StatusOr");
    return *value_;
  }
  T& value() & {
    assert(ok() && "value() called on errored StatusOr");
    return *value_;
  }
  T&& value() && {
    assert(ok() && "value() called on errored StatusOr");
    return std::move(*value_);
  }

  /// Returns the contained value or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace ldpr

#endif  // LDPR_UTIL_STATUS_H_
