#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

namespace perfbench {

const Metric* WorkloadResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // Return the freed reference-computation heap to the kernel first, so the
  // mark restarts from what is still in use, then reset it: writing "5" to
  // clear_refs sets VmHWM to the current RSS (Linux >= 4.0).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {
double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_seconds() {
  return clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

IdleSpinners::IdleSpinners() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int i = 0; i < CPU_COUNT(&allowed); ++i) {
    threads_.emplace_back([this] {
      const sched_param lowest{};
      if (sched_setscheduler(0, SCHED_IDLE, &lowest) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

double IdleSpinners::cpu_seconds() const {
  double total = 0.0;
  for (const std::thread& t : threads_) {
    clockid_t clock;
    if (pthread_getcpuclockid(const_cast<std::thread&>(t).native_handle(),
                              &clock) == 0) {
      total += clock_seconds(clock);
    }
  }
  return total;
}

void log_phase(const char* what, Clock::time_point start) {
  std::fprintf(stderr, "perfbench: %s in %.2f s\n", what,
               seconds_between(start, Clock::now()));
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

SpanLog::Id SpanLog::add(const char* name, Clock::time_point start,
                         Clock::time_point end, Id parent,
                         std::uint64_t request) {
  if (!enabled_) return 0;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  spans_.push_back({name, ns(start), ns(end), parent, request});
  return static_cast<Id>(spans_.size());
}

SpanLog::Id SpanLog::open(const char* name, Id parent,
                          std::uint64_t request) {
  const Clock::time_point now = Clock::now();
  return add(name, now, now, parent, request);
}

void SpanLog::close(Id id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - epoch_)
                              .count();
}

std::map<std::string, double> SpanLog::self_seconds_by_layer() const {
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.parent <= spans_.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i + 1];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 std::size_t max_events) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t n = std::min(max_events, spans_.size());
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_recorded\":"
      << spans_.size() << ",\"spans_written\":" << n << "},\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::string name(s.name);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%u,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  name.substr(0, name.find('.')).c_str(),
                  static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i + 1,
                  s.parent, static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void report_spans(const SpanLog& spans, const RunOptions& opts,
                  const std::vector<std::string>& layers,
                  WorkloadResult& out) {
  const auto self = spans.self_seconds_by_layer();
  for (const std::string& layer : layers) {
    const auto it = self.find(layer);
    out.add("trace.self_ms." + layer,
            it == self.end() ? 0.0 : it->second * 1e3, "ms");
  }
  out.notes.push_back(std::to_string(spans.size()) + " spans recorded");
  if (!opts.trace_path.empty()) {
    if (spans.write_chrome_trace(opts.trace_path, 200000)) {
      out.notes.push_back("trace written to " + opts.trace_path);
    } else {
      out.notes.push_back("could not write trace to " + opts.trace_path);
    }
  }
}

}  // namespace perfbench
