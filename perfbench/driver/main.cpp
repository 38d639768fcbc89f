// perfbench_driver: runs one benchmark workload and prints one JSON object
// (metrics, correctness, run context) on stdout. perfbench/run.py builds and
// calls it; see perfbench/README.md for the workloads and metric definitions.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--plant-wrong] [--trace-out PATH]
//
// Exit status: 0 when every answer matched the reference, 1 on a mismatch,
// 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "kdtree/simd_dispatch.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::WorkloadResult;

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The end-to-end metrics every untraced run reports, for every workload.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
    {"ok_share", "fraction"}, {"latency_p50_us", "us"},
    {"cpu_us_per_op", "us"},
};

// The per-layer metrics every traced run reports, for every workload (0 for
// a layer the workload does not exercise).
std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs = {
      {"scene.generate_s", "s"},
      {"serve.admit_s", "s"},
      {"shard.cluster_build_s", "s"},
      {"kdtree.build_ms_p50", "ms"},
      {"dynamic.build_wait_ms_p50", "ms"},
      {"dynamic.advance_ms_p50", "ms"},
      {"dynamic.frame_ms_p50", "ms"},
      {"dynamic.frame_ms_p90", "ms"},
      {"dynamic.frames", "count"},
      {"render.frame_ms_p50", "ms"},
      {"render.rays", "count"},
      {"kdtree.sah_cost", "cost"},
      {"kdtree.node_count", "count"},
      {"kdtree.interior_per_ray", "count"},
      {"kdtree.tris_per_ray", "count"},
      {"tuning.session_frame_ms_p50", "ms"},
      {"tuning.session_frame_ms_p90", "ms"},
      {"tuning.frames_to_converge", "count"},
      {"tuning.search_share", "fraction"},
      {"tuning.retunes", "count"},
      {"tuning.tuned_frame_ms", "ms"},
      {"tuning.base_frame_ms", "ms"},
      {"tuning.gain_vs_base", "ratio"},
      {"serve.latency_p90_us", "us"},
      {"serve.latency_p99_us", "us"},
      {"serve.submit_us_p50", "us"},
      {"generator.lateness_us_p99", "us"},
      {"generator.throughput_per_s", "1/s"},
  };
  for (const char* family : {"closest_hit", "any_hit", "packet", "range",
                             "knn", "closest_point"}) {
    specs.push_back({std::string("serve.") + family + ".latency_p50_us", "us"});
    specs.push_back({std::string("serve.") + family + ".latency_p99_us", "us"});
    specs.push_back({std::string("kdtree.") + family + ".direct_us_p50", "us"});
  }
  const std::vector<MetricSpec> tail = {
      {"kdtree.direct_us_p50", "us"},
      {"serve.overhead_us_p50", "us"},
      {"kdtree.knn.popped_per_query", "count"},
      {"kdtree.knn.pruned_per_query", "count"},
      {"serve.batch_occupancy_mean", "requests"},
      {"serve.batches", "count"},
      {"serve.rejected_overflow", "count"},
      {"serve.timed_out", "count"},
      {"shard.fanout_mean", "shards"},
      {"shard.subqueries_per_request", "count"},
      {"shard.wave_us_p50", "us"},
      {"shard.direct_latency_p50_us", "us"},
  };
  specs.insert(specs.end(), tail.begin(), tail.end());
  for (const char* layer : {"bench", "scene", "kdtree", "render", "tuning",
                            "dynamic", "serve", "shard"}) {
    specs.push_back({std::string("trace.self_ms.") + layer, "ms"});
  }
  for (const MetricSpec& e2e : kEndToEnd) {
    specs.push_back({"trace.overhead." + e2e.name, e2e.unit});
  }
  return specs;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Steal and total jiffies of all CPUs from /proc/stat ({0, 0} if absent).
std::pair<double, double> cpu_steal_and_total() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return {0.0, 0.0};
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

int usage(const char* msg) {
  std::cerr << "perfbench_driver: " << msg
            << "\nusage: perfbench_driver --workload "
               "frames_dynamic|serve_mixed|shard_rays --seed N --seconds S "
               "--trace 0|1 [--plant-wrong] [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string trace_flag = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace_flag = value();
    } else if (arg == "--trace-out") {
      opts.trace_path = value();
    } else if (arg == "--plant-wrong") {
      opts.plant_wrong = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (trace_flag != "0" && trace_flag != "1") {
    return usage("--trace takes 0 or 1");
  }
  opts.trace = trace_flag == "1";
  if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  const auto [steal0, total0] = cpu_steal_and_total();
  WorkloadResult result;
  try {
    if (opts.workload == "frames_dynamic") {
      result = perfbench::run_frames_dynamic(opts);
    } else if (opts.workload == "serve_mixed") {
      result = perfbench::run_serve_mixed(opts);
    } else if (opts.workload == "shard_rays") {
      result = perfbench::run_shard_rays(opts);
    } else {
      return usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opts.workload << " failed: "
              << e.what() << "\n";
    return 3;
  }

  // Report exactly the metric set BENCHMARK.json declares, in its order. An
  // end-to-end metric a workload failed to produce is a bug here; a per-layer
  // metric a workload does not exercise reads 0 ("not on this workload's
  // path").
  const std::vector<MetricSpec> specs =
      opts.trace ? per_layer_specs() : kEndToEnd;
  std::vector<std::string> absent;
  std::ostringstream metrics;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MetricSpec& spec = specs[i];
    const Metric* m = result.find(spec.name);
    if ((m == nullptr && !opts.trace) ||
        (m != nullptr && m->unit != spec.unit)) {
      std::cerr << "perfbench_driver: " << opts.workload << " reports "
                << spec.name << (m ? " in unit " + m->unit : " not at all")
                << "\n";
      return 3;
    }
    if (m == nullptr) absent.push_back(spec.name);
    metrics << (i ? "," : "") << "\"" << spec.name << "\":{\"value\":"
            << number(m ? m->value : 0.0) << ",\"unit\":\"" << spec.unit
            << "\"}";
  }
  for (const Metric& m : result.metrics) {
    bool listed = false;
    for (const MetricSpec& spec : specs) listed = listed || spec.name == m.name;
    if (!listed && opts.trace) {
      result.notes.push_back("also " + m.name + " = " + number(m.value) + " " +
                             m.unit);
    }
  }
  if (!absent.empty()) {
    std::string list;
    for (const std::string& a : absent) list += (list.empty() ? "" : " ") + a;
    result.notes.push_back("not on this workload's path (reported as 0): " +
                           list);
  }

  // Share of CPU time the hypervisor took from this machine during the run:
  // on a shared virtual machine, the first thing to read when figures move.
  const auto [steal1, total1] = cpu_steal_and_total();
  const double steal_share =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream notes;
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    notes << (i ? "," : "") << "\"" << json_escape(result.notes[i]) << "\"";
  }
  std::cout << "{\"workload\":\"" << json_escape(opts.workload)
            << "\",\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{"
            << metrics.str() << "},\"context\":{\"nproc\":"
            << std::thread::hardware_concurrency() << ",\"simd\":\""
            << kdtune::to_string(kdtune::detect_simd_level())
            << "\",\"simd_compiled\":\""
            << kdtune::to_string(kdtune::simd_compiled_level())
            << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
            << "\",\"build_type\":\"" << json_escape(PERFBENCH_BUILD_TYPE)
            << "\",\"optimized\":" << (optimized ? "true" : "false")
            << ",\"ndebug\":" << (ndebug ? "true" : "false")
            << ",\"steal_share\":" << number(steal_share)
            << "},\"notes\":[" << notes.str() << "]}" << std::endl;
  return result.correct ? 0 : 1;
}
