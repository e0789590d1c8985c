/**
 * @file
 * Status and error reporting helpers, following the gem5 severity split:
 * panic() for internal invariant violations (simulator bugs) and fatal()
 * for user-caused conditions the run cannot survive.  warn()/inform()
 * never stop the program.
 */

#ifndef AIM_UTIL_LOGGING_HH
#define AIM_UTIL_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace aim::util
{

/** Severity of a log record. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

/**
 * Emit a log record to stderr and return.  Fatal and Panic records go
 * through logAndStop, which calls this and then stops.
 *
 * @param level severity class
 * @param file  source file of the call site
 * @param line  source line of the call site
 * @param msg   formatted message
 */
[[gnu::cold]]
void logMessage(LogLevel level, const char *file, int line,
                const std::string &msg);

/**
 * Emit a Fatal or Panic record to stderr and stop: Fatal exits with
 * status 1; Panic aborts, which can dump core or enter a debugger.
 * Never returns, so a function that ends in aim_fatal or aim_panic
 * needs no return after it.
 */
[[noreturn, gnu::cold]]
void logAndStop(LogLevel level, const char *file, int line,
                const std::string &msg);

namespace detail
{

inline void
streamAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
streamAll(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    streamAll(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    streamAll(os, args...);
    return os.str();
}

} // namespace detail

} // namespace aim::util

/** Something happened that should never happen: an internal bug. */
#define aim_panic(...)                                                     \
    ::aim::util::logAndStop(::aim::util::LogLevel::Panic, __FILE__,        \
                            __LINE__, ::aim::util::detail::concat(         \
                                __VA_ARGS__))

/** The run cannot continue because of a user-provided condition. */
#define aim_fatal(...)                                                     \
    ::aim::util::logAndStop(::aim::util::LogLevel::Fatal, __FILE__,        \
                            __LINE__, ::aim::util::detail::concat(         \
                                __VA_ARGS__))

/** Something may be wrong; execution continues. */
#define aim_warn(...)                                                      \
    ::aim::util::logMessage(::aim::util::LogLevel::Warn, __FILE__,         \
                            __LINE__, ::aim::util::detail::concat(         \
                                __VA_ARGS__))

/** Normal operating message. */
#define aim_inform(...)                                                    \
    ::aim::util::logMessage(::aim::util::LogLevel::Inform, __FILE__,       \
                            __LINE__, ::aim::util::detail::concat(         \
                                __VA_ARGS__))

/** panic() if the condition does not hold. */
#define aim_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            aim_panic("assertion '" #cond "' failed: ",                    \
                      ::aim::util::detail::concat(__VA_ARGS__));           \
        }                                                                  \
    } while (0)

#endif // AIM_UTIL_LOGGING_HH
