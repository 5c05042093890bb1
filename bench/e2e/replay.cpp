// Layer replay: one representative batch, executed once through the
// executor (stepped from outside via begin/admit/step) and once layer by
// layer through the public GEMM, checker and activation functions. The
// replay must reproduce the executor's outputs bit for bit — otherwise its
// per-layer times would describe some other computation — and the share
// of executor time the replay does not account for is reported.

#include <algorithm>
#include <optional>

#include "core/global_abft.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"
#include "gemm/packed_operand.hpp"
#include "harness.hpp"
#include "nn/activation.hpp"

namespace aift::e2e {
namespace {

Matrix<half_t> copy_band(const Matrix<half_t>& src, std::int64_t band,
                         std::int64_t rows) {
  Matrix<half_t> out(rows, src.cols());
  std::copy(src.data() + band * rows * src.cols(),
            src.data() + (band + 1) * rows * src.cols(), out.data());
  return out;
}

bool is_thread(Scheme s) {
  return s == Scheme::thread_one_sided || s == Scheme::thread_two_sided;
}

// Both checkers of one layer: the planned one and the alternative, so the
// plan's choice can be compared with what measured cheaper.
struct LayerCheckers {
  Scheme planned = Scheme::none;
  std::optional<ThreadLevelAbft> thread;
  std::optional<GlobalAbft> global;
};

struct RepTimes {
  double exec_ms = 0.0;
  std::vector<double> step_ms;
  double gemm_ms = 0.0;
  double stack_ms = 0.0;
  double act_ms = 0.0;
  double thread_check_ms = 0.0;  // planned thread-level checks
  double global_check_ms = 0.0;  // planned global checks
  std::vector<double> planned_ms;      // per layer
  std::vector<double> alternative_ms;  // per layer
};

}  // namespace

void replay_layers(const InferenceSession& session,
                   const std::vector<Matrix<half_t>>& pool,
                   const std::vector<Matrix<half_t>>& refs,
                   std::int64_t batch, double budget_s, Tracer& tracer,
                   Result& result) {
  const InferencePlan& plan = session.plan();
  const std::size_t num_layers = session.num_layers();
  const Activation act = session.options().activation;
  const std::vector<BatchRequest> requests = pool_batch(pool, batch, 0);
  const auto ref_of = [&](std::int64_t r) -> const Matrix<half_t>& {
    return refs[static_cast<std::size_t>(r) % refs.size()];
  };

  // Set-up layers: weight packing and checker preparation, timed as the
  // session constructor would do them.
  auto t0 = Clock::now();
  for (std::size_t l = 0; l < num_layers; ++l) {
    (void)pack_operand(session.weights(l), plan.entries[l].exec_tile());
  }
  const double pack_ms = ms_between(t0, Clock::now());
  std::vector<LayerCheckers> checkers(num_layers);
  double prepare_ms = 0.0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    const LayerPlanEntry& entry = plan.entries[l];
    LayerCheckers& lc = checkers[l];
    lc.planned = entry.scheme();
    const auto side = entry.scheme() == Scheme::thread_two_sided
                          ? ThreadAbftSide::two_sided
                          : ThreadAbftSide::one_sided;
    const auto build_thread = [&] {
      lc.thread.emplace(entry.exec_tile(), side);
      lc.thread->prepare(session.weights(l));
    };
    const auto build_global = [&] {
      lc.global.emplace(session.weights(l), plan.abft_options.num_checksums);
    };
    if (is_thread(lc.planned)) {
      t0 = Clock::now();
      build_thread();
      prepare_ms += ms_between(t0, Clock::now());
      build_global();
    } else if (lc.planned == Scheme::global_abft) {
      t0 = Clock::now();
      build_global();
      prepare_ms += ms_between(t0, Clock::now());
      build_thread();
    }
  }

  std::vector<RepTimes> reps;
  std::int64_t deferred_checks = 0;
  const auto start = Clock::now();
  while (reps.size() < 3 ||
         (ms_between(start, Clock::now()) < budget_s * 1e3 &&
          reps.size() < 50)) {
    RepTimes rep;
    rep.planned_ms.assign(num_layers, 0.0);
    rep.alternative_ms.assign(num_layers, 0.0);

    // The executor, stepped from outside.
    std::vector<Matrix<half_t>> exec_out(static_cast<std::size_t>(batch));
    {
      SpanGroup spans;
      const auto e0 = Clock::now();
      ContinuousBatch cont = BatchExecutor(session).begin();
      for (const BatchRequest& req : requests) (void)cont.admit(req);
      spans.add("executor.admit", e0, Clock::now());
      while (!cont.idle()) {
        const auto s0 = Clock::now();
        cont.step();
        const auto s1 = Clock::now();
        rep.step_ms.push_back(ms_between(s0, s1));
        spans.add("executor.step", s0, s1);
      }
      const auto e1 = Clock::now();
      rep.exec_ms = ms_between(e0, e1);
      spans.emit(tracer, "executor.batch", e0, e1);
      deferred_checks = cont.stats().deferred_checks;
      for (auto& [id, res] : cont.take_finished()) {
        exec_out[static_cast<std::size_t>(id)] = std::move(res.output);
      }
    }

    // The same batch, layer by layer.
    SpanGroup spans;
    const GemmShape& first = plan.entries.front().layer.gemm;
    const auto p0 = Clock::now();
    Matrix<half_t> stacked_a(batch * first.m, first.k);
    for (std::int64_t r = 0; r < batch; ++r) {
      const Matrix<half_t>& in = requests[static_cast<std::size_t>(r)].input;
      std::copy(in.data(), in.data() + in.size(),
                stacked_a.data() + r * in.size());
    }
    rep.stack_ms += ms_between(p0, Clock::now());
    for (std::size_t l = 0; l < num_layers; ++l) {
      const LayerPlanEntry& entry = plan.entries[l];
      const GemmShape& shape = entry.layer.gemm;
      const std::string& name = entry.layer.name;
      Matrix<half_t> stacked_c(batch * shape.m, shape.n);
      BatchedGemmOptions gopts;
      const auto g0 = Clock::now();
      functional_gemm_batched(stacked_a, *session.packed_weights(l), stacked_c,
                              shape.m, entry.exec_tile(), gopts);
      const auto g1 = Clock::now();
      rep.gemm_ms += ms_between(g0, g1);
      spans.add("gemm." + name, g0, g1);

      const LayerCheckers& lc = checkers[l];
      if (lc.thread || l + 1 == num_layers) {
        // Request-local operands, as the executor keeps them per row.
        const auto b0 = Clock::now();
        std::vector<Matrix<half_t>> a_band, c_band;
        for (std::int64_t r = 0; r < batch; ++r) {
          a_band.push_back(copy_band(stacked_a, r, shape.m));
          c_band.push_back(copy_band(stacked_c, r, shape.m));
        }
        rep.stack_ms += ms_between(b0, Clock::now());
        if (lc.thread) {
          // The planned checker, then the alternative, per request band.
          for (const bool planned : {true, false}) {
            const bool thread_check = planned == is_thread(lc.planned);
            bool flagged = false;
            const auto c0 = Clock::now();
            for (std::int64_t r = 0; r < batch; ++r) {
              const auto i = static_cast<std::size_t>(r);
              flagged |= thread_check
                             ? lc.thread->check(a_band[i], session.weights(l),
                                                c_band[i])
                                   .fault_detected
                             : lc.global->check(a_band[i], c_band[i])
                                   .fault_detected;
            }
            const auto c1 = Clock::now();
            const double ms = ms_between(c0, c1);
            if (!planned) {
              rep.alternative_ms[l] = ms;
              continue;
            }
            if (flagged) {
              result.error("layer " + name + ": clean check flagged");
            }
            rep.planned_ms[l] = ms;
            (thread_check ? rep.thread_check_ms : rep.global_check_ms) += ms;
            spans.add("check." + name, c0, c1);
          }
        }
        if (l + 1 == num_layers) {
          for (std::int64_t r = 0; r < batch; ++r) {
            const auto i = static_cast<std::size_t>(r);
            if (!(c_band[i] == exec_out[i]) || !(exec_out[i] == ref_of(r))) {
              result.error("layer replay output differs from the executor");
            }
          }
        }
      }
      if (l + 1 < num_layers) {
        const GemmShape& next = plan.entries[l + 1].layer.gemm;
        const auto a0 = Clock::now();
        stacked_a = activate_and_repack_stacked(stacked_c, batch, act, next.m,
                                                next.k);
        const auto a1 = Clock::now();
        rep.act_ms += ms_between(a0, a1);
        spans.add("activation." + name, a0, a1);
      }
    }
    spans.emit(tracer, "replay.batch", p0, Clock::now());
    reps.push_back(std::move(rep));
  }

  // Medians over repetitions, per quantity.
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const RepTimes& r : reps) v.push_back(field(r));
    return median(v);
  };
  const double gemm_ms = med([](const RepTimes& r) { return r.gemm_ms; });
  const double act_ms = med([](const RepTimes& r) { return r.act_ms; });
  const double thread_ms =
      med([](const RepTimes& r) { return r.thread_check_ms; });
  const double global_ms =
      med([](const RepTimes& r) { return r.global_check_ms; });
  const double exec_ms = med([](const RepTimes& r) { return r.exec_ms; });
  const double replay_ms = med([](const RepTimes& r) {
    return r.gemm_ms + r.stack_ms + r.act_ms + r.thread_check_ms +
           r.global_check_ms;
  });
  std::vector<double> steps;
  for (const RepTimes& r : reps) {
    steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
  }

  double flops = 0.0, bytes = 0.0;
  int protected_layers = 0, agreeing = 0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    const GemmShape& s = plan.entries[l].layer.gemm;
    const auto rows = static_cast<double>(batch * s.m);
    const auto n = static_cast<double>(s.n), k = static_cast<double>(s.k);
    flops += 2.0 * rows * n * k;
    bytes += 2.0 * (rows * k + k * n + rows * n);  // FP16 A, B and C
    if (!checkers[l].thread) continue;
    ++protected_layers;
    const double planned =
        med([&](const RepTimes& r) { return r.planned_ms[l]; });
    const double alternative =
        med([&](const RepTimes& r) { return r.alternative_ms[l]; });
    if (planned <= alternative) ++agreeing;
  }
  const auto per_req = static_cast<double>(batch);
  result.layer("executor.batch_ms", exec_ms, "ms");
  result.layer("executor.step_ms_p50", median(steps), "ms");
  result.layer("executor.deferred_checks", static_cast<double>(deferred_checks),
               "count");
  result.layer("executor.unaccounted_share", 1.0 - replay_ms / exec_ms,
               "ratio");
  result.layer("gemm.ms_per_req", gemm_ms / per_req, "ms");
  result.layer("gemm.gflops", flops / (gemm_ms * 1e6), "GFLOP/s");
  result.layer("gemm.gbytes_per_s", bytes / (gemm_ms * 1e6), "GB/s");
  result.layer("gemm.pack_ms", pack_ms, "ms");
  result.layer("core.thread_check_ms_per_req", thread_ms / per_req, "ms");
  result.layer("core.global_check_ms_per_req", global_ms / per_req, "ms");
  result.layer("core.check_share", (thread_ms + global_ms) / replay_ms,
               "ratio");
  result.layer("core.plan_agreement",
               protected_layers > 0
                   ? static_cast<double>(agreeing) / protected_layers
                   : 1.0,
               "ratio");
  result.layer("core.measured_overhead_pct",
               (thread_ms + global_ms) / gemm_ms * 100.0, "%");
  result.layer("core.model_overhead_pct", plan.overhead_pct(), "%");
  result.layer("core.prepare_ms", prepare_ms, "ms");
  result.layer("nn.activation_ms_per_req", act_ms / per_req, "ms");
  result.note("replay.batch", static_cast<double>(batch));
  result.note("replay.reps", static_cast<double>(reps.size()));
  result.note("replay.protected_layers", protected_layers);
}

}  // namespace aift::e2e
