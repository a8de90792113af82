#ifndef EPFIS_UTIL_STATUS_H_
#define EPFIS_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace epfis {

/// Canonical error codes used throughout the library. Library code never
/// throws; fallible operations return a Status (or Result<T>, see result.h).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kIoError,
  kCorruption,
  kInternal,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Value type describing the outcome of a fallible operation.
///
/// The OK status carries no message and is cheap to copy. Non-OK statuses
/// carry a code and a free-form message for diagnostics.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define EPFIS_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::epfis::Status _epfis_st = (expr);        \
    if (!_epfis_st.ok()) return _epfis_st;     \
  } while (false)

}  // namespace epfis

#endif  // EPFIS_UTIL_STATUS_H_
