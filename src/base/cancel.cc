#include "base/cancel.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "base/env.h"

namespace aql {

namespace {
thread_local const ExecScope* g_current_scope = nullptr;
}  // namespace

ExecOptions ParseExecOptions(const char* threads, const char* par_threshold,
                             const char* max_elems, int hardware_threads) {
  ExecOptions o;
  const uint64_t n = std::min<uint64_t>(ParseU64Or(threads, 0), 256);
  o.threads = n > 0 ? static_cast<int>(n) : std::max(hardware_threads, 1);
  o.par_threshold = std::max<uint64_t>(ParseU64Or(par_threshold, o.par_threshold), 1);
  if (const uint64_t cap = ParseU64Or(max_elems, 0); cap != 0) o.max_elems = cap;
  return o;
}

const ExecOptions& DefaultExecOptions() {
  // getenv is mt-unsafe only against a concurrent setenv; this runs once.
  static const ExecOptions options = ParseExecOptions(
      std::getenv("AQL_EXEC_THREADS"),        // NOLINT(concurrency-mt-unsafe)
      std::getenv("AQL_EXEC_PAR_THRESHOLD"),  // NOLINT(concurrency-mt-unsafe)
      std::getenv("AQL_EXEC_MAX_ELEMS"),      // NOLINT(concurrency-mt-unsafe)
      static_cast<int>(std::thread::hardware_concurrency()));
  return options;
}

const ExecOptions& CurrentExecOptions() {
  return g_current_scope != nullptr ? g_current_scope->options_ : DefaultExecOptions();
}

ExecScope::ExecScope(const CancelToken* token, const ExecOptions& options)
    : token_(token), options_(options), previous_(g_current_scope) {
  g_current_scope = this;
}

ExecScope::~ExecScope() { g_current_scope = previous_; }

const CancelToken* CurrentCancelToken() {
  return g_current_scope != nullptr ? g_current_scope->token_ : nullptr;
}

}  // namespace aql
