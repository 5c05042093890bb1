// The two online workloads: open-loop Poisson traffic into a threaded
// ServingEngine. One submitter (this thread) sends each request at its due
// time; one collector thread resolves futures in submission order. Every
// online workload has one priority class and one SLO, so completion order
// equals submission order and one in-order collector observes each
// completion promptly. Latency runs from a request's due time, so a stall
// also charges the requests queued behind it.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "harness.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/serving.hpp"

namespace aift::e2e {
namespace {

struct OnlineSpec {
  std::string name;
  Model model;
  double rate_per_s = 0.0;
  BatchPolicy policy;
  double slo_ms = 0.0;  ///< attainment limit (the deadline sheds later)
  std::size_t pool_size = 0;
};

// A traced run records spans only for requests due in odd half-second
// windows, so traced and untraced requests share the host's slow drift
// and their latency difference is the tracing overhead.
constexpr double kTraceWindowS = 0.5;

// The load phase, as the submitter and collector observed it.
struct Load {
  std::vector<double> latency_ms;  // due -> completion observed
  std::vector<bool> traced;        // per completed request
  std::vector<double> queue_ms;    // ServedResult.queue_us
  std::vector<double> execute_ms;  // ServedResult.execute_us
  std::vector<double> submit_us;   // time inside submit()
  std::vector<double> late_ms;     // submit start - due
  std::int64_t sent = 0;
  std::int64_t failed = 0;  // errored, shed or output mismatch
  std::int64_t shed = 0;
  std::int64_t slo_hits = 0;
  std::int64_t max_queue_depth = 0;
  double window_s = 0.0;  // first due -> last completion
  double batch_size_mean = 0.0;
  std::int64_t scratch_misses = 0;
};

Load run_load(ServingEngine& engine, const OnlineSpec& spec,
              const std::vector<Matrix<half_t>>& pool,
              const std::vector<Matrix<half_t>>& refs, std::uint64_t seed,
              double seconds, Tracer& tracer, Result& result) {
  // The arrival schedule: a Poisson process conditioned on its count (the
  // sorted uniform times of rate * seconds arrivals), so every run sends
  // the same number of requests; uniform pool picks.
  struct Arrival {
    double offset_s = 0.0;
    std::size_t slot = 0;
  };
  const auto n = static_cast<std::size_t>(spec.rate_per_s * seconds);
  std::vector<Arrival> arrivals(n);
  {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> when(0.0, seconds);
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    for (Arrival& a : arrivals) a = {when(gen), pick(gen)};
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival& a, const Arrival& b) {
                return a.offset_s < b.offset_s;
              });
  }

  struct InFlight {
    std::future<ServedResult> future;
    Clock::time_point due;
    Clock::time_point submit_begin;
    Clock::time_point submit_end;
    std::string submit_error;  // reported by the collector, which owns result
  };
  std::vector<InFlight> flights(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t published = 0;

  Load load;
  load.sent = static_cast<std::int64_t>(n);
  const ServingStats before = engine.stats();
  const ScratchStats scratch_before = scratch_stats();
  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  const auto traced = [&](std::size_t i) {
    const auto window =
        static_cast<std::int64_t>(arrivals[i].offset_s / kTraceWindowS);
    return tracer.enabled() && window % 2 == 1;
  };

  // Collector: resolves futures in submission order.
  std::vector<double> dispatch_ms(n, 0.0);  // relative to origin
  Clock::time_point last_done = origin;
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      InFlight& f = flights[i];
      if (!f.future.valid()) {
        ++load.failed;
        result.error(spec.name + ": submit threw: " + f.submit_error);
        continue;
      }
      try {
        const ServedResult served = f.future.get();
        const auto done = Clock::now();
        last_done = done;
        const double latency = ms_between(f.due, done);
        const double q_ms = served.queue_us / 1e3;
        const double e_ms = served.execute_us / 1e3;
        load.latency_ms.push_back(latency);
        load.traced.push_back(traced(i));
        load.queue_ms.push_back(q_ms);
        load.execute_ms.push_back(e_ms);
        dispatch_ms[i] = ms_between(origin, f.submit_begin) + q_ms;
        if (!(served.session.output == refs[arrivals[i].slot]) ||
            !served.session.recovered()) {
          ++load.failed;
          result.error(spec.name + ": served output differs from reference");
        } else if (latency <= spec.slo_ms) {
          ++load.slo_hits;
        }
        if (traced(i)) {
          const auto req = static_cast<std::int64_t>(i);
          const auto at = [&](double ms) {
            return f.submit_begin +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
          };
          const std::int64_t root = tracer.span("request", f.due, done, 0, req);
          tracer.span("serving.submit", f.submit_begin, f.submit_end, root,
                      req);
          tracer.span("serving.queue", f.submit_begin, at(q_ms), root, req);
          tracer.span("executor.execute", at(q_ms), at(q_ms + e_ms), root, req);
        }
      } catch (const DeadlineExceeded&) {
        ++load.shed;
        ++load.failed;
      } catch (const std::exception& e) {
        ++load.failed;
        result.error(spec.name + ": request failed: " + e.what());
      }
    }
  });

  // Submitter: this thread, on schedule.
  for (std::size_t i = 0; i < n; ++i) {
    // Copied before its due time, so the copy is not charged to latency.
    Matrix<half_t> input = pool[arrivals[i].slot];
    const auto due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals[i].offset_s));
    std::this_thread::sleep_until(due);
    InFlight& f = flights[i];
    f.due = due;
    f.submit_begin = Clock::now();
    try {
      f.future = engine.submit(spec.name, std::move(input));
    } catch (const std::exception& e) {
      f.submit_error = e.what();
    }
    f.submit_end = Clock::now();
    load.submit_us.push_back(
        std::chrono::duration<double, std::micro>(f.submit_end - f.submit_begin)
            .count());
    load.late_ms.push_back(ms_between(due, f.submit_begin));
    {
      const std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  collector.join();

  load.window_s = ms_between(origin, last_done) / 1e3;
  const ServingStats after = engine.stats();
  const std::int64_t batches = after.batches - before.batches;
  const std::int64_t batched = (after.completed - before.completed) +
                               (after.failed - before.failed);
  load.batch_size_mean =
      batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                  : 0.0;
  load.scratch_misses = scratch_stats().misses - scratch_before.misses;
  // The deepest queue a request found at submit: requests sent before it
  // whose dispatch (submit + queue_us) had not happened yet.
  std::size_t oldest_waiting = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double at = ms_between(origin, flights[i].submit_begin);
    while (oldest_waiting < i && dispatch_ms[oldest_waiting] <= at) {
      ++oldest_waiting;
    }
    load.max_queue_depth = std::max(
        load.max_queue_depth, static_cast<std::int64_t>(i - oldest_waiting));
  }
  return load;
}

Result run_online(const OnlineSpec& spec, const RunConfig& cfg,
                  Tracer& tracer) {
  Result result;
  result.workload = spec.name;

  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<InferenceSession> none;
  const GemmShape& first = spec.model.layers().front().gemm;
  const std::vector<Matrix<half_t>> pool =
      make_pool(derive_seed(cfg.seed, 1), spec.pool_size, first.m, first.k);

  std::vector<SetupTiming> setups;
  for (const auto start = Clock::now();
       more_setups(cfg, setups.size(), start);) {
    engine.reset();
    none.reset();
    double hits = 0.0;
    const auto t0 = Clock::now();
    InferencePlan guided_plan =
        compile(spec.model, ProtectionPolicy::intensity_guided, hits);
    InferencePlan none_plan =
        compile(spec.model, ProtectionPolicy::none, hits);
    const auto t1 = Clock::now();
    engine = std::make_unique<ServingEngine>();
    engine->add_model(spec.name, std::move(guided_plan), spec.policy);
    none = std::make_unique<InferenceSession>(std::move(none_plan));
    const auto t2 = Clock::now();
    // Warm-up: one full batch through the engine and one full-size pair on
    // this thread, so scratch arenas reach their timed-phase sizes.
    std::vector<std::future<ServedResult>> warm;
    for (std::int64_t r = 0; r < spec.policy.max_batch; ++r) {
      warm.push_back(engine->submit(
          spec.name, pool[static_cast<std::size_t>(r) % pool.size()]));
    }
    for (auto& f : warm) (void)f.get();
    const auto batch = pool_batch(pool, spec.policy.max_batch, 0);
    (void)BatchExecutor(engine->session(spec.name)).run(batch);
    (void)BatchExecutor(*none).run(batch);
    const auto t3 = Clock::now();
    setups.push_back(setup_timing(tracer, t0, t1, t2, t3, hits / 2));
  }
  const double setup_s = report_setup(setups, result);
  const InferenceSession& guided = engine->session(spec.name);
  const auto guided_refs = references(guided, pool, result);
  const auto none_refs = references(*none, pool, result);

  const Load load = run_load(*engine, spec, pool, guided_refs,
                             derive_seed(cfg.seed, 2), cfg.seconds * 0.8,
                             tracer, result);
  // Pairs and the layer replay run batches of the size the engine served.
  const std::int64_t served_batch =
      std::max<std::int64_t>(1, std::llround(load.batch_size_mean));
  Tracer off(false);
  PairSamples pairs;
  run_pairs(guided, *none, pool, guided_refs, none_refs, served_batch,
            cfg.seconds * 0.2, 5, off, pairs, result);

  result.attempted = load.sent;
  result.failed += load.failed;
  report_e2e(result, percentile(load.latency_ms, 0.5),
             percentile(load.latency_ms, 0.9),
             static_cast<double>(load.slo_hits) / load.window_s,
             median(pairs.ratio), setup_s);
  result.note("latency_samples", static_cast<double>(load.latency_ms.size()));
  result.note("latency_p99_ms", percentile(load.latency_ms, 0.99), "ms");
  result.note("offered_per_s", spec.rate_per_s, "1/s");
  result.note("pairs", static_cast<double>(pairs.ratio.size()));
  result.note("pair_batch", static_cast<double>(served_batch));
  result.note("pair_guided_ms_p50", median(pairs.guided_ms), "ms");
  result.note("pair_none_ms_p50", median(pairs.none_ms), "ms");

  if (cfg.trace) {
    std::vector<double> on, off_ms;
    for (std::size_t i = 0; i < load.latency_ms.size(); ++i) {
      (load.traced[i] ? on : off_ms).push_back(load.latency_ms[i]);
    }
    result.layer("serving.submit_us_p99", percentile(load.submit_us, 0.99),
                 "us");
    result.layer("serving.queue_ms_p50", percentile(load.queue_ms, 0.5), "ms");
    result.layer("serving.queue_ms_p99", percentile(load.queue_ms, 0.99), "ms");
    result.layer("serving.batch_size_mean", load.batch_size_mean, "count");
    result.layer("serving.max_queue_depth",
                 static_cast<double>(load.max_queue_depth), "count");
    result.layer("serving.shed", static_cast<double>(load.shed), "count");
    result.layer("serving.slo_attainment",
                 static_cast<double>(load.slo_hits) /
                     static_cast<double>(load.sent),
                 "ratio");
    result.layer("executor.execute_ms_p50", percentile(load.execute_ms, 0.5),
                 "ms");
    result.layer("executor.execute_ms_p99", percentile(load.execute_ms, 0.99),
                 "ms");
    result.layer("common.scratch_misses_steady",
                 static_cast<double>(load.scratch_misses), "count");
    result.layer("loadgen.late_ms_p99", percentile(load.late_ms, 0.99), "ms");
    result.layer("trace.overhead_pct",
                 (median(on) / median(off_ms) - 1.0) * 100.0, "%");
    replay_layers(guided, pool, guided_refs, served_batch,
                  replay_budget_s(cfg), tracer, result);
  }
  return result;
}

}  // namespace

Result dlrm_online(const RunConfig& cfg, Tracer& tracer) {
  OnlineSpec spec;
  spec.name = "dlrm-online";
  spec.model = zoo::dlrm_mlp_bottom(1);
  spec.rate_per_s = 2000.0;
  spec.policy.max_batch = 16;
  spec.policy.max_delay = std::chrono::milliseconds(1);
  // Batches still dispatch at max_delay; the long deadline only keeps a
  // host stall from shedding requests, which would fail the run.
  spec.policy.default_slo = std::chrono::seconds(1);
  spec.slo_ms = 5.0;
  spec.pool_size = cfg.smoke ? 32 : 256;
  return run_online(spec, cfg, tracer);
}

Result coral_online(const RunConfig& cfg, Tracer& tracer) {
  OnlineSpec spec;
  spec.name = "coral-online";
  spec.model = zoo::noscope_coral(1);
  spec.rate_per_s = 100.0;
  spec.policy.max_batch = 16;
  spec.policy.max_delay = std::chrono::milliseconds(5);
  spec.policy.default_slo = std::chrono::seconds(1);
  spec.policy.continuous = true;
  spec.slo_ms = 100.0;
  spec.pool_size = cfg.smoke ? 16 : 64;
  return run_online(spec, cfg, tracer);
}

}  // namespace aift::e2e
