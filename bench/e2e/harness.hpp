#pragma once
// Shared pieces of the end-to-end benchmark program: run configuration,
// sample statistics, the metric/result record every workload fills, the
// in-memory span recorder, input pools and the common set-up helpers.
//
// Everything here measures the library from outside: spans are taken
// around calls into public functions, never inside src/.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "gemm/cost_model.hpp"
#include "nn/model.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan.hpp"
#include "runtime/session.hpp"

namespace aift::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< timed phase length
  bool trace = false;     ///< per-layer run: spans, layer replay
  bool smoke = false;     ///< tiny pools and checks, one set-up
  std::string trace_path; ///< Chrome trace-event JSON written at exit
};

/// Whether a workload sets up once more, `done` set-ups after `start`.
/// Set-up time is reported as the median of at least 5 set-ups, repeated
/// until 2 s have passed (up to 100); a smoke run sets up once.
[[nodiscard]] inline bool more_setups(const RunConfig& cfg, std::size_t done,
                                      Clock::time_point start) {
  if (cfg.smoke) return done < 1;
  return done < 5 || (ms_between(start, Clock::now()) < 2e3 && done < 100);
}
/// Time the layer replay may take beyond its three repetitions.
[[nodiscard]] inline double replay_budget_s(const RunConfig& cfg) {
  return cfg.smoke ? 0.2 : 2.0;
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `errors` holds correctness failures; a
/// run is incorrect when it has any, or when any operation failed (errored,
/// shed, unrecovered, detected but corrupted, or mismatched).
struct Result {
  std::string workload;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> e2e;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;  ///< sample counts and context, not gated

  /// Records a correctness failure (the first 20 are kept).
  void error(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit = "count") {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] bool correct() const { return errors.empty() && failed == 0; }
  [[nodiscard]] std::string to_json() const;
};

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
/// Spans with a request id become async events keyed by it, so a
/// request's spans nest on one track; the rest are complete events.
/// Thread-safe; every call is a no-op when disabled.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Records [start, end] and returns the span's id (0 when disabled).
  std::int64_t span(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::int64_t parent = 0,
                    std::int64_t request = -1);
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = 0;
    std::int64_t request = -1;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Child spans collected while their parent is still open, recorded under
/// it once the parent ends (a span's id exists only once it is recorded).
class SpanGroup {
 public:
  void add(std::string name, Clock::time_point start, Clock::time_point end) {
    children_.push_back({std::move(name), start, end});
  }
  /// Records the parent [start, end], then every collected child under it.
  void emit(Tracer& tracer, const std::string& name, Clock::time_point start,
            Clock::time_point end) const;

 private:
  struct Child {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Child> children_;
};

/// `n` distinct rows x cols inputs in [-0.5, 0.5), drawn from the benchmark's
/// own generator so the library sees only the generated matrices.
[[nodiscard]] std::vector<Matrix<half_t>> make_pool(std::uint64_t seed,
                                                    std::size_t n,
                                                    std::int64_t rows,
                                                    std::int64_t cols);

/// Standalone InferenceSession::run output of every pool input. A clean
/// input that flags a check is a correctness failure.
[[nodiscard]] std::vector<Matrix<half_t>> references(
    const InferenceSession& session, const std::vector<Matrix<half_t>>& pool,
    Result& result);

/// compile_plan with a fresh ProfileCache; adds its hit ratio to
/// `hit_ratio_sum` so set-up can average it over the plans it compiles.
[[nodiscard]] InferencePlan compile(const Model& m, ProtectionPolicy policy,
                                    double& hit_ratio_sum);

/// The device the plans are compiled for (the paper's T4 cost model).
[[nodiscard]] const GemmCostModel& cost_model();

/// Timings of one set-up: plan compile, session or engine construction,
/// warm-up. Workloads set up several times and report medians.
struct SetupTiming {
  double total_s = 0.0;
  double compile_ms = 0.0;
  double construct_ms = 0.0;
  double hit_ratio = 0.0;
};
/// The timing of one set-up whose compile ran [t0, t1], construction
/// [t1, t2] and warm-up [t2, t3]; records its spans.
[[nodiscard]] SetupTiming setup_timing(Tracer& tracer, Clock::time_point t0,
                                       Clock::time_point t1,
                                       Clock::time_point t2,
                                       Clock::time_point t3, double hit_ratio);
/// Adds the set-up layer metrics; returns the median set-up time in s.
double report_setup(const std::vector<SetupTiming>& reps, Result& result);

/// Guided-vs-unprotected batch pairs: the paper's overhead, measured. Each
/// pair runs one batch of `batch` pool inputs through both sessions,
/// alternating which goes first; outputs are checked against references.
/// An enabled tracer records spans for odd pairs only (see
/// trace_overhead_pct).
struct PairSamples {
  std::vector<double> guided_ms;
  std::vector<double> none_ms;
  std::vector<double> ratio;
  std::int64_t requests = 0;  ///< guided requests executed
};
void run_pairs(const InferenceSession& guided, const InferenceSession& none,
               const std::vector<Matrix<half_t>>& pool,
               const std::vector<Matrix<half_t>>& guided_refs,
               const std::vector<Matrix<half_t>>& none_refs,
               std::int64_t batch, double seconds, std::size_t min_pairs,
               Tracer& tracer, PairSamples& out, Result& result);

/// Batch `index` of `batch` consecutive pool inputs (wrapping).
[[nodiscard]] std::vector<BatchRequest> pool_batch(
    const std::vector<Matrix<half_t>>& pool, std::int64_t batch,
    std::int64_t index);

/// Tracing overhead of a traced run whose odd units were traced and even
/// units not: median odd unit time over median even unit time, minus 1, in
/// percent. Alternating units share the host's slow drift.
[[nodiscard]] double trace_overhead_pct(const std::vector<double>& unit_ms);

/// Process peak resident set (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void report_e2e(Result& result, double latency_p50_ms, double latency_p90_ms,
                double throughput_per_s, double abft_slowdown,
                double setup_s);

/// Layer replay of one representative batch (replay.cpp): per-layer GEMM,
/// check and activation times through the public functions, checked bit
/// for bit against the executor. Adds the gemm/core/nn/executor metrics.
void replay_layers(const InferenceSession& session,
                   const std::vector<Matrix<half_t>>& pool,
                   const std::vector<Matrix<half_t>>& refs,
                   std::int64_t batch, double budget_s, Tracer& tracer,
                   Result& result);

// The four workloads.
Result dlrm_online(const RunConfig& cfg, Tracer& tracer);
Result coral_online(const RunConfig& cfg, Tracer& tracer);
Result amsterdam_offline(const RunConfig& cfg, Tracer& tracer);
Result fault_campaign(const RunConfig& cfg, Tracer& tracer);

}  // namespace aift::e2e
