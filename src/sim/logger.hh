/**
 * @file
 * Leveled, component-tagged trace logging.
 *
 * Logging is off by default (kWarn) so experiment binaries stay quiet;
 * tests and examples raise the level per component.  Every line carries
 * the simulated timestamp, making traces directly comparable across runs.
 */

#ifndef CDNA_SIM_LOGGER_HH
#define CDNA_SIM_LOGGER_HH

#include <cstdarg>
#include <string>

#include "sim/time.hh"

namespace cdna::sim {

class EventQueue;

/** Severity / verbosity levels, most severe first. */
enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

/**
 * A named logging channel bound to the simulation clock.
 *
 * Cheap to copy; all channels share a single global threshold plus an
 * optional per-channel override.
 */
class Logger
{
  public:
    /**
     * @param name component tag printed on each line (e.g. "cdna-nic0")
     * @param eq   event queue supplying timestamps (may be null: wall "0")
     */
    explicit Logger(std::string name = "sim", const EventQueue *eq = nullptr);

    /** Set the process-wide default threshold. */
    static void setGlobalLevel(LogLevel lvl);

    /** Override the threshold for this channel only. */
    void setLevel(LogLevel lvl);

    bool enabled(LogLevel lvl) const;

    void error(const char *fmt, ...) const;
    void warn(const char *fmt, ...) const;
    void info(const char *fmt, ...) const;
    void trace(const char *fmt, ...) const;

    const std::string &name() const { return name_; }

  private:
    void emit(LogLevel lvl, const char *fmt, va_list ap) const;

    std::string name_;
    const EventQueue *eq_;
    bool hasOverride_ = false;
    LogLevel override_ = LogLevel::kWarn;
};

} // namespace cdna::sim

#endif // CDNA_SIM_LOGGER_HH
