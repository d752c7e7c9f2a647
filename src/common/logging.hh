/**
 * @file
 * Error reporting and status-message helpers.
 *
 * Follows the gem5 convention: panic() for internal simulator bugs
 * (aborts), fatal() for user/configuration errors (clean exit),
 * warn()/inform() for status messages that never stop the simulation.
 */

#ifndef DISE_COMMON_LOGGING_HH
#define DISE_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dise {

/** Exception thrown by panic(); tests catch it via EXPECT_THROW. */
struct PanicError : std::logic_error {
    using std::logic_error::logic_error;
};

/** Exception thrown by fatal(); distinguishes user error from bug. */
struct FatalError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/** Message severities, most to least severe. panic/fatal always
 *  throw regardless of level; the level only gates what is printed. */
enum class LogLevel : int {
    Error = 0, ///< only panic/fatal messages
    Warn = 1,
    Info = 2,  ///< the default: warn() + inform()
    Debug = 3, ///< + debugMsg() diagnostics
};

/** The process log level. Initialized once from the DISE_LOG
 *  environment variable ("error" / "warn" / "info" / "debug", default
 *  info); rsp_server's --log-level flag overrides it. */
LogLevel logLevel();
void setLogLevel(LogLevel level);
/** Parse a level token; false (level untouched) when unknown. */
bool parseLogLevel(const std::string &token, LogLevel &level);

namespace detail {

void emitMessage(const char *prefix, const std::string &msg);
/** True when messages of @p level should be printed. */
bool levelEnabled(LogLevel level);

template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Report an internal invariant violation (a simulator bug) and throw.
 * Never returns normally.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string msg = detail::formatParts(std::forward<Args>(args)...);
    detail::emitMessage("panic", msg);
    throw PanicError(msg);
}

/**
 * Report an unrecoverable user/configuration error and throw.
 * Never returns normally.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::formatParts(std::forward<Args>(args)...);
    detail::emitMessage("fatal", msg);
    throw FatalError(msg);
}

/**
 * Reject a command line: one line on stderr and exit status 2, not the
 * abort an uncaught FatalError would be. For CLI argument parsing.
 */
template <typename... Args>
[[noreturn]] void
usageError(Args &&...args)
{
    std::string msg = detail::formatParts(std::forward<Args>(args)...);
    std::fprintf(stderr, "%s (try --help)\n", msg.c_str());
    std::exit(2);
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (!detail::levelEnabled(LogLevel::Warn))
        return;
    detail::emitMessage("warn",
                        detail::formatParts(std::forward<Args>(args)...));
}

/** Informative status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (!detail::levelEnabled(LogLevel::Info))
        return;
    detail::emitMessage("info",
                        detail::formatParts(std::forward<Args>(args)...));
}

/** Diagnostic chatter, silent unless the level is raised to debug
 *  (DISE_LOG=debug or --log-level=debug). The format-parts expansion
 *  is skipped entirely when disabled. */
template <typename... Args>
void
debugMsg(Args &&...args)
{
    if (!detail::levelEnabled(LogLevel::Debug))
        return;
    detail::emitMessage("debug",
                        detail::formatParts(std::forward<Args>(args)...));
}

/** panic() unless the condition holds. */
#define DISE_ASSERT(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::dise::panic("assertion '", #cond, "' failed at ", __FILE__,    \
                          ":", __LINE__, ": ", ##__VA_ARGS__);               \
        }                                                                    \
    } while (0)

} // namespace dise

#endif // DISE_COMMON_LOGGING_HH
