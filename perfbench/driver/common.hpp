#pragma once

// Shared pieces of the benchmark driver: run options, the result record that
// main() prints as JSON, order statistics, process memory, and the
// benchmark's own in-memory span log (spans are recorded around the calls the
// driver makes into each library layer; nothing inside src/ is traced).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupts one expected answer so the correctness gate must fire.
  bool plant_wrong = false;
  /// Where the traced run writes its Chrome-trace JSON ("" = do not write).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable notes: in the report, not among the metrics.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  const Metric* find(const std::string& name) const;
};

/// Nearest-rank quantile of an unsorted sample (copies; q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib();
/// Resets the VmHWM high-water mark so later peaks exclude earlier phases
/// (the benchmark's own reference computation). No-op where unsupported.
void reset_peak_rss();

/// Set-up repetitions: the timed ones run after kWarmupS of discarded ones.
/// On a VM whose vCPUs sat idle (the reference computation before the
/// set-up is mostly single-threaded), the first second or so of parallel
/// work can run 2-3x slower than the rest.
///
///   for (SetupReps reps(5); reps.more();) {
///     const bool timed = reps.next();
///     ... set up; record the times only when `timed` ...
///   }
class SetupReps {
 public:
  static constexpr double kWarmupS = 1.5;

  explicit SetupReps(int timed)
      : timed_(timed),
        warm_until_(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(kWarmupS))) {}
  bool more() const { return kept_ < timed_; }
  /// Starts a repetition; true when it is timed. The peak-RSS mark
  /// restarts with the first timed repetition, so the heap the discarded
  /// ones churned through does not count.
  bool next() {
    if (Clock::now() < warm_until_) return false;
    if (kept_++ == 0) reset_peak_rss();
    return true;
  }

 private:
  int timed_;
  int kept_ = 0;
  Clock::time_point warm_until_;
};

/// CPU time used so far by the whole process and by the calling thread, in
/// seconds. Unlike wall time, it leaves out the time threads wait for a
/// wake-up or a vCPU, which on a shared VM varies far more from run to run
/// than the work done.
double process_cpu_seconds();
double thread_cpu_seconds();

/// Keeps the CPUs the process may use busy at the lowest scheduling
/// priority while alive: one spinning SCHED_IDLE thread per CPU, which
/// yields to any other runnable thread at once. On a VM an idle vCPU halts,
/// and waking a thread on it waits for the hypervisor to run the vCPU
/// again; that wait grows with the load of the whole host and would
/// otherwise set the latency the benchmark reports. Spinners make context
/// switches dearer and slowed parallel set-up down on the reference host, so
/// they run only while latency is measured. Where SCHED_IDLE is refused, no
/// spinner runs.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// CPU time the spinners have used so far, in seconds.
  double cpu_seconds() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Prints "perfbench: <what> in <seconds since start> s" to stderr.
void log_phase(const char* what, Clock::time_point start);

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ull);

/// The benchmark's spans: name, start, end, parent span and request id, kept
/// in memory and written at exit. Recording is a no-op when disabled, so the
/// same code path runs in the untraced and the traced pass.
class SpanLog {
 public:
  using Id = std::uint32_t;

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled). `name` must
  /// have static storage duration.
  Id add(const char* name, Clock::time_point start, Clock::time_point end,
         Id parent = 0, std::uint64_t request = 0);

  /// Opens a span starting now whose end close() sets later, so that spans
  /// recorded in between can name it as their parent. Returns 0 when
  /// disabled.
  Id open(const char* name, Id parent = 0, std::uint64_t request = 0);
  void close(Id id);

  std::size_t size() const noexcept { return spans_.size(); }

  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the part of its interval that its children cover.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON ("X" complete events, loadable in Perfetto).
  /// At most `max_events` spans are written; the rest are counted in the
  /// metadata. Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          std::size_t max_events) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Id parent = 0;
    std::uint64_t request = 0;
  };

  bool enabled_;
  Clock::time_point epoch_;
  std::deque<Span> spans_;
};

/// Adds "trace.self_ms.<layer>" metrics for the listed layers (0 when a
/// layer recorded no span) and writes the Chrome trace when a path is set.
void report_spans(const SpanLog& spans, const RunOptions& opts,
                  const std::vector<std::string>& layers, WorkloadResult& out);

/// Runs `pass(false)`; with opts.trace, runs `pass(true)` after it and
/// returns the traced result, with "trace.overhead.<name>" = traced -
/// untraced value for each end-to-end metric and both passes' counts.
template <typename Pass>
WorkloadResult run_passes(const RunOptions& opts, Pass pass) {
  WorkloadResult untraced = pass(false);
  if (!opts.trace) return untraced;
  WorkloadResult out = pass(true);
  for (const Metric& base : untraced.metrics) {
    const Metric* t = out.find(base.name);
    if (t != nullptr) {
      out.add("trace.overhead." + base.name, t->value - base.value,
              base.unit);
    }
  }
  out.attempted += untraced.attempted;
  out.failed += untraced.failed;
  out.correct = out.correct && untraced.correct;
  return out;
}

// Workload entry points. Each returns the end-to-end metrics (untraced
// pass) or, with opts.trace, the per-layer metrics of a traced pass plus the
// tracing overhead against an untraced pass run first.
WorkloadResult run_frames_dynamic(const RunOptions& opts);
WorkloadResult run_serve_mixed(const RunOptions& opts);
WorkloadResult run_shard_rays(const RunOptions& opts);

}  // namespace perfbench
