#include "sim/logger.hh"

#include <atomic>
#include <cstdio>

#include "sim/event_queue.hh"

namespace cdna::sim {

namespace {

// Atomic so sweep worker threads can consult the threshold while the
// main thread (or a test) adjusts it; relaxed is enough for a level.
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char *
levelTag(LogLevel lvl)
{
    switch (lvl) {
      case LogLevel::kError: return "ERROR";
      case LogLevel::kWarn:  return "WARN ";
      case LogLevel::kInfo:  return "INFO ";
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kTrace: return "TRACE";
    }
    return "?";
}

} // namespace

Logger::Logger(std::string name, const EventQueue *eq)
    : name_(std::move(name)), eq_(eq)
{
}

void
Logger::setGlobalLevel(LogLevel lvl)
{
    g_level.store(lvl, std::memory_order_relaxed);
}

void
Logger::setLevel(LogLevel lvl)
{
    hasOverride_ = true;
    override_ = lvl;
}

bool
Logger::enabled(LogLevel lvl) const
{
    LogLevel threshold =
        hasOverride_ ? override_ : g_level.load(std::memory_order_relaxed);
    return static_cast<int>(lvl) <= static_cast<int>(threshold);
}

void
Logger::emit(LogLevel lvl, const char *fmt, va_list ap) const
{
    Time t = eq_ ? eq_->now() : 0;
    std::fprintf(stderr, "[%14.3f us] %s %-14s ", toMicroseconds(t),
                 levelTag(lvl), name_.c_str());
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

#define CDNA_LOG_BODY(lvl)                        \
    do {                                          \
        if (!enabled(lvl))                        \
            return;                               \
        va_list ap;                               \
        va_start(ap, fmt);                        \
        emit(lvl, fmt, ap);                       \
        va_end(ap);                               \
    } while (0)

void Logger::error(const char *fmt, ...) const { CDNA_LOG_BODY(LogLevel::kError); }
void Logger::warn(const char *fmt, ...) const { CDNA_LOG_BODY(LogLevel::kWarn); }
void Logger::info(const char *fmt, ...) const { CDNA_LOG_BODY(LogLevel::kInfo); }
void Logger::trace(const char *fmt, ...) const { CDNA_LOG_BODY(LogLevel::kTrace); }

#undef CDNA_LOG_BODY

} // namespace cdna::sim
