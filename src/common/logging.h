#ifndef RPAS_COMMON_LOGGING_H_
#define RPAS_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace rpas {

/// Log severity levels, ordered by importance.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum level emitted by RPAS_LOG. Defaults to kInfo.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Accumulates one log line and flushes it (with level prefix) on
/// destruction. Created by the RPAS_LOG macro; not used directly.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// LogMessage that aborts the process after flushing. Used by RPAS_CHECK.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Failure path of RPAS_HOT_CHECK: prints like a failed RPAS_CHECK and
/// aborts.
[[noreturn]] [[gnu::cold]] void CheckFailed(const char* file, int line,
                                            const char* condition);

/// Swallows a streamed expression when a check passes; enables the
/// `RPAS_CHECK(x) << "msg"` syntax with zero cost on the success path.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace rpas

/// Streams one log line at the given level:
///   RPAS_LOG(kInfo) << "trained " << n << " epochs";
#define RPAS_LOG(level)                                             \
  if (::rpas::LogLevel::level < ::rpas::GetLogLevel()) {            \
  } else                                                            \
    ::rpas::internal::LogMessage(::rpas::LogLevel::level, __FILE__, \
                                 __LINE__)                          \
        .stream()

/// Aborts with a diagnostic when `condition` is false. Active in all build
/// modes: these guard programming errors, not data errors (data errors
/// return Status).
#define RPAS_CHECK(condition)                                              \
  if (condition) {                                                         \
  } else /* NOLINT */                                                      \
    ::rpas::internal::FatalLogMessage(__FILE__, __LINE__, #condition)      \
        .stream()

#define RPAS_DCHECK(condition) RPAS_CHECK(condition)

/// RPAS_CHECK for the hottest inline accessors (Matrix element access): the
/// same always-on abort, but the failure path is one out-of-line call, so
/// the inlined success path is a compare and a branch. RPAS_CHECK's inline
/// FatalLogMessage made GCC leave those accessors as calls inside hot
/// loops. Takes no streamed message.
#define RPAS_HOT_CHECK(condition)                                      \
  (__builtin_expect(static_cast<bool>(condition), 1)                   \
       ? static_cast<void>(0)                                          \
       : ::rpas::internal::CheckFailed(__FILE__, __LINE__, #condition))

#endif  // RPAS_COMMON_LOGGING_H_
