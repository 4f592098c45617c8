/**
 * @file
 * gem5-style status/error reporting for the tlbpf library.
 *
 * Severity discipline (mirrors gem5's base/logging.hh):
 *  - panic():  an internal invariant was violated — a bug in tlbpf itself.
 *              Aborts so a debugger/core dump can capture the state.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, invalid arguments).  Exits with code 1.
 *  - warn():   something is questionable but the run can continue.
 *  - inform(): normal operational status.
 */

#ifndef TLBPF_UTIL_LOGGING_HH
#define TLBPF_UTIL_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

namespace tlbpf
{

/** Verbosity levels for the global logger. */
enum class LogLevel
{
    Quiet,   ///< only fatal/panic output
    Normal,  ///< warnings and informational messages
    Verbose  ///< additionally, debug messages
};

/** Process-wide logging configuration. */
class Logger
{
  public:
    /** Returns the singleton logger. */
    static Logger &instance();

    LogLevel level() const { return _level; }
    void level(LogLevel lvl) { _level = lvl; }

    /** Emit a message at the given severity label. */
    void emit(const char *label, const std::string &msg);

    /** Number of warnings emitted so far (used by tests). */
    std::uint64_t warnCount() const { return _warnCount.load(); }
    void countWarning() { _warnCount.fetch_add(1); }

  private:
    Logger() = default;

    LogLevel _level = LogLevel::Normal;
    std::atomic<std::uint64_t> _warnCount{0}; ///< any thread may warn
};

namespace detail
{

/** Formats a parameter pack into a string via operator<<. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream oss;
    ((oss << std::forward<Args>(args)), ...);
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

} // namespace tlbpf

/** Abort on an internal tlbpf bug; never returns. */
#define tlbpf_panic(...) \
    ::tlbpf::detail::panicImpl(__FILE__, __LINE__, \
                               ::tlbpf::detail::format(__VA_ARGS__))

/** Exit(1) on an unrecoverable user/configuration error; never returns. */
#define tlbpf_fatal(...) \
    ::tlbpf::detail::fatalImpl(__FILE__, __LINE__, \
                               ::tlbpf::detail::format(__VA_ARGS__))

/** Warn but continue. */
#define tlbpf_warn(...) \
    ::tlbpf::detail::warnImpl(::tlbpf::detail::format(__VA_ARGS__))

/** Informational status message. */
#define tlbpf_inform(...) \
    ::tlbpf::detail::informImpl(::tlbpf::detail::format(__VA_ARGS__))

/** Panic if an invariant does not hold. */
#define tlbpf_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            tlbpf_panic("assertion '" #cond "' failed: ", \
                        ::tlbpf::detail::format(__VA_ARGS__)); \
        } \
    } while (0)

#endif // TLBPF_UTIL_LOGGING_HH
