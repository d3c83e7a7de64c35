// Host and process probes for the serving benchmark: monotonic time, the
// process's CPU and context switches, per-thread CPU clocks, host steal
// time and peak RSS. Linux-only (getrusage, /proc).
#ifndef SERVEBENCH_HOST_H_
#define SERVEBENCH_HOST_H_

#include <pthread.h>

#include <cstdint>

namespace servebench {

/// Steady-clock nanoseconds; the clock obs::Trace marks use, so benchmark
/// timestamps and engine marks compare directly.
std::uint64_t now_ns();

/// Sleeps until `due_ns` (steady clock) with sub-10-microsecond accuracy:
/// a coarse sleep to just before the deadline, then a short spin.
void sleep_until_ns(std::uint64_t due_ns);

/// Drops this thread's timer slack to 1 ns so short sleeps wake on time.
void tighten_timer_slack();

/// CPU time consumed so far by a live thread of this process.
std::uint64_t thread_cpu_ns(pthread_t thread);

/// Process-wide counters read at the edges of the measured window.
struct ProcSample {
  std::uint64_t cpu_ns = 0;       ///< getrusage(RUSAGE_SELF) user + sys
  std::uint64_t nivcsw = 0;       ///< involuntary context switches
  std::uint64_t steal_ticks = 0;  ///< host steal time, /proc/stat USER_HZ ticks
};
ProcSample sample_process();

/// Steal ticks to milliseconds.
double steal_ticks_to_ms(std::uint64_t ticks);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// Online CPUs.
unsigned online_cpus();

}  // namespace servebench

#endif  // SERVEBENCH_HOST_H_
