#include "host.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.h"

namespace servebench {

std::uint64_t now_ns() { return noble::obs::Trace::now_ns(); }

void sleep_until_ns(std::uint64_t due_ns) {
  // Wake-up latency of a timed sleep on a loaded VM is tens of microseconds;
  // the final stretch spins so arrivals leave on schedule.
  constexpr std::uint64_t kSpinNs = 60'000;
  const std::uint64_t now = now_ns();
  if (due_ns > now + kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (now_ns() < due_ns) {
  }
}

void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

std::uint64_t thread_cpu_ns(pthread_t thread) {
  clockid_t clock;
  if (::pthread_getcpuclockid(thread, &clock) != 0) return 0;
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

std::uint64_t timeval_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
}

std::uint64_t read_steal_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};
  in >> label;
  for (std::uint64_t& f : fields) in >> f;
  return in && label == "cpu" ? fields[7] : 0;
}

}  // namespace

ProcSample sample_process() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_ns = timeval_ns(ru.ru_utime) + timeval_ns(ru.ru_stime);
  s.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  s.steal_ticks = read_steal_ticks();
  return s;
}

double steal_ticks_to_ms(std::uint64_t ticks) {
  const long hz = ::sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(ticks) * 1000.0 / static_cast<double>(hz) : 0.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

unsigned online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

}  // namespace servebench
