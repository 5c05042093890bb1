// aift_e2e — one workload of the end-to-end benchmark per process.
//
//   aift_e2e --workload W --seed N --seconds S [--trace 0|1] [--smoke]
//            [--trace-out PATH]
//
// Prints one JSON object: the workload's correctness verdict, attempted
// and failed operation counts, every end-to-end metric and — when traced —
// every per-layer metric. A per-layer metric of a layer the workload does
// not exercise reads 0 and is listed under detail "not_exercised". Exits 1
// when an output was incorrect or any operation failed, 2 on a usage or
// run-time error.
// run.py builds this binary and is the intended entry point.

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace aift::e2e {
namespace {

// Every per-layer metric, with its unit. BENCHMARK.json lists the same set
// (selftest.py checks the two agree).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"serving.submit_us_p99", "us"},
    {"serving.queue_ms_p50", "ms"},
    {"serving.queue_ms_p99", "ms"},
    {"serving.batch_size_mean", "count"},
    {"serving.max_queue_depth", "count"},
    {"serving.shed", "count"},
    {"serving.slo_attainment", "ratio"},
    {"executor.execute_ms_p50", "ms"},
    {"executor.execute_ms_p99", "ms"},
    {"executor.batch_ms", "ms"},
    {"executor.step_ms_p50", "ms"},
    {"executor.deferred_checks", "count"},
    {"executor.unaccounted_share", "ratio"},
    {"gemm.ms_per_req", "ms"},
    {"gemm.gflops", "GFLOP/s"},
    {"gemm.gbytes_per_s", "GB/s"},
    {"gemm.pack_ms", "ms"},
    {"core.thread_check_ms_per_req", "ms"},
    {"core.global_check_ms_per_req", "ms"},
    {"core.check_share", "ratio"},
    {"core.plan_agreement", "ratio"},
    {"core.measured_overhead_pct", "%"},
    {"core.model_overhead_pct", "%"},
    {"core.prepare_ms", "ms"},
    {"nn.activation_ms_per_req", "ms"},
    {"plan.compile_ms", "ms"},
    {"session.construct_ms", "ms"},
    {"plan.profile_cache_hit_ratio", "ratio"},
    {"fault.trial_us", "us"},
    {"fault.global_trial_us", "us"},
    {"fault.detected", "count"},
    {"fault.recovered", "count"},
    {"fault.masked", "count"},
    {"fault.sdc", "count"},
    {"fault.unrecovered", "count"},
    {"fault.detected_corrupted", "count"},
    {"fault.coverage", "ratio"},
    {"fault.global_coverage", "ratio"},
    {"fault.sdc_frac", "ratio"},
    {"fault.global_sdc_frac", "ratio"},
    {"common.scratch_misses_steady", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
};

// Orders the workload's per-layer metrics like kPerLayer, fills the layers
// it bypasses with 0, and flags names or units outside the list.
void complete_per_layer(Result& result) {
  std::map<std::string, Metric> reported;
  for (Metric& m : result.per_layer) reported[m.name] = std::move(m);
  result.per_layer.clear();
  double bypassed = 0;
  for (const auto& [name, unit] : kPerLayer) {
    auto it = reported.find(name);
    if (it == reported.end()) {
      result.per_layer.push_back({name, 0.0, unit});
      ++bypassed;
      continue;
    }
    if (it->second.unit != unit) {
      result.error("metric " + name + " has unit " + it->second.unit);
    }
    result.per_layer.push_back(std::move(it->second));
    reported.erase(it);
  }
  for (const auto& [name, m] : reported) {
    result.error("unlisted metric " + name);
  }
  result.note("not_exercised", bypassed);
}

void check_finite(Result& result) {
  for (auto* set : {&result.e2e, &result.per_layer}) {
    for (Metric& m : *set) {
      if (!std::isfinite(m.value)) {
        result.error("metric " + m.name + " is not finite");
        m.value = 0.0;
      }
    }
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "aift_e2e: %s\nusage: aift_e2e --workload W --seed N "
               "--seconds S [--trace 0|1] [--smoke] [--trace-out PATH]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  const std::map<std::string, std::function<Result(const RunConfig&, Tracer&)>>
      workloads = {{"dlrm-online", dlrm_online},
                   {"coral-online", coral_online},
                   {"amsterdam-offline", amsterdam_offline},
                   {"fault-campaign", fault_campaign}};
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = std::stoi(value()) != 0;
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--trace-out") {
      cfg.trace_path = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto it = workloads.find(workload);
  if (it == workloads.end()) return usage("unknown or missing --workload");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  Tracer tracer(cfg.trace);
  Result result = it->second(cfg, tracer);
  if (cfg.trace) complete_per_layer(result);
  check_finite(result);
  tracer.write(cfg.trace_path);
  std::printf("%s\n", result.to_json().c_str());
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace aift::e2e

int main(int argc, char** argv) {
  try {
    return aift::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aift_e2e: %s\n", e.what());
    return 2;
  }
}
