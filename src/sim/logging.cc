#include "src/sim/logging.h"

#include <cstdio>

#include "src/sim/thread_domain.h"
#include "src/sim/sim_context.h"

namespace apiary {
namespace {

// Process-wide observability defaults. A domain with its own trace sink
// (SimContext::SetLogSink) shadows g_sink while installed; the level
// threshold stays global — it is set once at startup and only read on the
// hot path.
// APIARY-SHARED(process): log threshold, set before any run starts.
LogLevel g_level = LogLevel::kOff;
// APIARY-SHARED(process): default sink for code outside any domain.
LogSink g_sink = nullptr;
// APIARY-SHARED(process): user cookie for g_sink.
void* g_sink_user = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

LogLevel GetLogLevel() { return g_level; }

void SetLogSink(LogSink sink, void* user) {
  g_sink = sink;
  g_sink_user = user;
}

void LogMessage(LogLevel level, const std::string& msg) {
  if (level < g_level || level == LogLevel::kOff) {
    return;
  }
  // Domain sink first: a threaded run captures each domain's trace
  // separately, without any write to process state.
  SimContext* context = ThreadDomain::Current();
  if (context != nullptr && context->log_sink() != nullptr) {
    context->log_sink()(level, msg, context->log_sink_user());
    return;
  }
  if (g_sink != nullptr) {
    g_sink(level, msg, g_sink_user);
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), msg.c_str());
}

}  // namespace apiary
