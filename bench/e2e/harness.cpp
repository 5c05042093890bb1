#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "gemm/profile_cache.hpp"

namespace aift::e2e {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string metric_map(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string Result::to_json() const {
  std::string out = "{\"workload\": " + json_string(workload);
  out += ", \"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(errors[i]);
  }
  out += "], \"e2e\": " + metric_map(e2e);
  out += ", \"per_layer\": " + metric_map(per_layer);
  out += ", \"detail\": " + metric_map(detail) + "}";
  return out;
}

std::int64_t Tracer::span(const std::string& name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent,
                          std::int64_t request) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  s.parent = parent;
  s.request = request;
  const std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    out << (first ? "" : ",\n") << event;
    first = false;
  };
  for (const Span& s : spans_) {
    const std::string args = "\"args\": {\"id\": " + std::to_string(s.id) +
                             ", \"parent\": " + std::to_string(s.parent) +
                             ", \"request\": " + std::to_string(s.request) +
                             "}";
    const std::string head = "{\"name\": " + json_string(s.name) +
                             ", \"cat\": \"e2e\", \"pid\": 1, ";
    if (s.request >= 0) {
      const std::string id = ", \"id\": " + std::to_string(s.request);
      emit(head + "\"tid\": 1, \"ph\": \"b\", \"ts\": " +
           json_number(s.start_us) + id + ", " + args + "}");
      emit(head + "\"tid\": 1, \"ph\": \"e\", \"ts\": " +
           json_number(s.start_us + s.dur_us) + id + "}");
    } else {
      emit(head + "\"tid\": 0, \"ph\": \"X\", \"ts\": " +
           json_number(s.start_us) + ", \"dur\": " + json_number(s.dur_us) +
           ", " + args + "}");
    }
  }
  out << "\n]}\n";
}

void SpanGroup::emit(Tracer& tracer, const std::string& name,
                     Clock::time_point start, Clock::time_point end) const {
  const std::int64_t parent = tracer.span(name, start, end);
  for (const Child& c : children_) tracer.span(c.name, c.start, c.end, parent);
}

std::vector<Matrix<half_t>> make_pool(std::uint64_t seed, std::size_t n,
                                      std::int64_t rows, std::int64_t cols) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<float> dist(-0.5f, 0.5f);
  std::vector<Matrix<half_t>> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Matrix<half_t> m(rows, cols);
    for (std::int64_t j = 0; j < m.size(); ++j) {
      m.data()[j] = half_t(dist(gen));
    }
    pool.push_back(std::move(m));
  }
  return pool;
}

std::vector<Matrix<half_t>> references(const InferenceSession& session,
                                       const std::vector<Matrix<half_t>>& pool,
                                       Result& result) {
  std::vector<Matrix<half_t>> refs;
  refs.reserve(pool.size());
  for (const auto& input : pool) {
    SessionResult r = session.run(input);
    if (!r.clean()) result.error("a clean reference run flagged a check");
    refs.push_back(std::move(r.output));
  }
  return refs;
}

const GemmCostModel& cost_model() {
  static const GemmCostModel model(devices::t4());
  return model;
}

InferencePlan compile(const Model& m, ProtectionPolicy policy,
                      double& hit_ratio_sum) {
  ProfileCache cache;
  InferencePlan plan =
      compile_plan(cost_model(), m, policy, DType::f16, {}, &cache);
  const ProfileCacheStats stats = cache.stats();
  hit_ratio_sum += stats.lookups() > 0
                       ? static_cast<double>(stats.hits) /
                             static_cast<double>(stats.lookups())
                       : 0.0;
  return plan;
}

SetupTiming setup_timing(Tracer& tracer, Clock::time_point t0,
                         Clock::time_point t1, Clock::time_point t2,
                         Clock::time_point t3, double hit_ratio) {
  SpanGroup spans;
  spans.add("plan.compile", t0, t1);
  spans.add("session.construct", t1, t2);
  spans.add("warmup", t2, t3);
  spans.emit(tracer, "setup", t0, t3);
  SetupTiming t;
  t.compile_ms = ms_between(t0, t1);
  t.construct_ms = ms_between(t1, t2);
  t.total_s = ms_between(t0, t3) / 1e3;
  t.hit_ratio = hit_ratio;
  return t;
}

double report_setup(const std::vector<SetupTiming>& reps, Result& result) {
  std::vector<double> total, compile_ms, construct_ms, hits;
  for (const SetupTiming& t : reps) {
    total.push_back(t.total_s);
    compile_ms.push_back(t.compile_ms);
    construct_ms.push_back(t.construct_ms);
    hits.push_back(t.hit_ratio);
  }
  result.layer("plan.compile_ms", median(compile_ms), "ms");
  result.layer("session.construct_ms", median(construct_ms), "ms");
  result.layer("plan.profile_cache_hit_ratio", median(hits), "ratio");
  result.note("setup_reps", static_cast<double>(reps.size()));
  return median(total);
}

std::vector<BatchRequest> pool_batch(const std::vector<Matrix<half_t>>& pool,
                                     std::int64_t batch, std::int64_t index) {
  std::vector<BatchRequest> requests(static_cast<std::size_t>(batch));
  for (std::int64_t r = 0; r < batch; ++r) {
    const auto slot =
        static_cast<std::size_t>(index * batch + r) % pool.size();
    requests[static_cast<std::size_t>(r)].input = pool[slot];
  }
  return requests;
}

void run_pairs(const InferenceSession& guided, const InferenceSession& none,
               const std::vector<Matrix<half_t>>& pool,
               const std::vector<Matrix<half_t>>& guided_refs,
               const std::vector<Matrix<half_t>>& none_refs,
               std::int64_t batch, double seconds, std::size_t min_pairs,
               Tracer& tracer, PairSamples& out, Result& result) {
  const BatchExecutor guided_exec(guided);
  const BatchExecutor none_exec(none);
  const auto check = [&](const BatchResult& br, std::int64_t index,
                         const std::vector<Matrix<half_t>>& refs) {
    for (std::int64_t r = 0; r < batch; ++r) {
      const auto slot =
          static_cast<std::size_t>(index * batch + r) % pool.size();
      if (!(br.requests[static_cast<std::size_t>(r)].output == refs[slot])) {
        ++result.failed;
        result.error("batch output differs from its standalone reference");
      }
    }
  };
  const auto start = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    if (out.ratio.size() >= min_pairs &&
        ms_between(start, Clock::now()) >= seconds * 1e3) {
      break;
    }
    const std::vector<BatchRequest> requests = pool_batch(pool, batch, i);
    double g_ms = 0.0, n_ms = 0.0;
    // Alternate which side runs first, so neither inherits the other's
    // cache state systematically.
    for (int side = 0; side < 2; ++side) {
      const bool run_guided = (side == 0) == (i % 2 == 0);
      const auto t0 = Clock::now();
      const BatchResult br = run_guided ? guided_exec.run(requests)
                                        : none_exec.run(requests);
      const auto t1 = Clock::now();
      if (i % 2 == 1) {
        tracer.span(run_guided ? "batch.guided" : "batch.none", t0, t1);
      }
      if (run_guided) {
        g_ms = ms_between(t0, t1);
        check(br, i, guided_refs);
      } else {
        n_ms = ms_between(t0, t1);
        check(br, i, none_refs);
      }
    }
    out.guided_ms.push_back(g_ms);
    out.none_ms.push_back(n_ms);
    out.ratio.push_back(g_ms / n_ms);
    out.requests += batch;
  }
}

double trace_overhead_pct(const std::vector<double>& unit_ms) {
  std::vector<double> traced, untraced;
  for (std::size_t i = 0; i < unit_ms.size(); ++i) {
    (i % 2 == 1 ? traced : untraced).push_back(unit_ms[i]);
  }
  return (median(traced) / median(untraced) - 1.0) * 100.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void report_e2e(Result& result, double latency_p50_ms, double latency_p90_ms,
                double throughput_per_s, double abft_slowdown,
                double setup_s) {
  result.e2e = {
      {"latency_p50_ms", latency_p50_ms, "ms"},
      {"latency_p90_ms", latency_p90_ms, "ms"},
      {"throughput_per_s", throughput_per_s, "1/s"},
      {"abft_slowdown", abft_slowdown, "x"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

}  // namespace aift::e2e
