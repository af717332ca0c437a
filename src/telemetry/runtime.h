/**
 * @file
 * Runtime on/off switch for telemetry collection.
 *
 * This flag is the only gate: every instrumentation site is compiled in,
 * and a disabled one pays one relaxed atomic load and a predictable
 * branch.
 *
 * The initial state comes from the CA_TELEMETRY *environment variable*
 * ("1"/"on"/"true" enable it); programs that want artifacts
 * unconditionally call setEnabled(true) (the CliSession does this when
 * --metrics-out/--trace-out is passed).
 */
#ifndef CA_TELEMETRY_RUNTIME_H
#define CA_TELEMETRY_RUNTIME_H

#include <atomic>

namespace ca::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** True when instrumentation sites should record. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

void setEnabled(bool on);

} // namespace ca::telemetry

#endif // CA_TELEMETRY_RUNTIME_H
