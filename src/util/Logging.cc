#include "util/Logging.hh"

#include <cstdio>
#include <cstdlib>

namespace aim::util
{

namespace
{

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

} // namespace

void
logMessage(LogLevel level, const char *file, int line,
           const std::string &msg)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", levelName(level),
                 msg.c_str(), file, line);
}

void
logAndStop(LogLevel level, const char *file, int line,
           const std::string &msg)
{
    logMessage(level, file, line, msg);
    if (level == LogLevel::Fatal)
        std::exit(1);
    std::abort();
}

} // namespace aim::util
