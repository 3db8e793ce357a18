#include "common/logging.h"

#include <atomic>

namespace rpas {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  if (level_ == LogLevel::kError) {
    std::cerr.flush();
  }
}

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  std::cerr.flush();
  std::abort();
}

void CheckFailed(const char* file, int line, const char* condition) {
  FatalLogMessage(file, line, condition);
}

}  // namespace internal
}  // namespace rpas
