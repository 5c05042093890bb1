#include "runtime/session.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "runtime/executor.hpp"

namespace aift {

int SessionResult::total_detections() const {
  int n = 0;
  for (const auto& l : layers) n += l.detections;
  return n;
}

int SessionResult::total_retries() const {
  int n = 0;
  for (const auto& l : layers) n += l.retries();
  return n;
}

bool SessionResult::recovered() const {
  for (const auto& l : layers) {
    if (l.unrecovered) return false;
  }
  return true;
}

InferenceSession::InferenceSession(InferencePlan plan, SessionOptions opts)
    : plan_(std::move(plan)), opts_(opts) {
  AIFT_CHECK_MSG(!plan_.entries.empty(), "cannot instantiate an empty plan");
  AIFT_CHECK(opts_.max_retries >= 0);
  for (const auto& entry : plan_.entries) {
    // Replication is the paper's strawman (§4): plans price it through the
    // cost model, but no session executes it.
    const bool replicated = entry.scheme() == Scheme::repl_traditional ||
                            entry.scheme() == Scheme::repl_single_acc;
    AIFT_CHECK_MSG(!replicated, "policy " << policy_name(plan_.policy)
                                          << ": layer " << entry.layer.name
                                          << " plans "
                                          << scheme_name(entry.scheme())
                                          << ", which sessions do not execute");
  }
  layers_.reserve(plan_.entries.size());
  for (std::size_t i = 0; i < plan_.entries.size(); ++i) {
    const auto& entry = plan_.entries[i];
    Layer layer{entry,
                Matrix<half_t>(entry.layer.gemm.k, entry.layer.gemm.n),
                std::nullopt, std::nullopt, std::nullopt};
    Rng rng(derive_seed(opts_.weight_seed, static_cast<std::uint64_t>(i)));
    rng.fill_uniform(layer.weights, -0.5, 0.5);
    if (opts_.pack_weights) {
      // Pack once for the layer's planned execution tile; every GEMM of
      // this layer — waves, retries, campaign trials — serves from it.
      layer.packed = pack_operand(layer.weights, entry.exec_tile());
    }

    switch (entry.scheme()) {
      case Scheme::none:
      case Scheme::repl_traditional:  // rejected above
      case Scheme::repl_single_acc:
        break;
      case Scheme::global_abft:
        // Offline weight-checksum construction (§2.5), reused across runs.
        layer.global.emplace(layer.weights, plan_.abft_options.num_checksums);
        break;
      case Scheme::thread_one_sided:
        layer.thread.emplace(entry.exec_tile(), ThreadAbftSide::one_sided);
        break;
      case Scheme::thread_two_sided:
        layer.thread.emplace(entry.exec_tile(), ThreadAbftSide::two_sided);
        break;
    }
    if (layer.thread) {
      // The per-lane Bt checksums are a pure function of the immutable
      // weights and tile, so build them once here instead of once per
      // request-check, whatever pack_weights says.
      layer.thread->prepare(layer.weights);
    }
    layers_.push_back(std::move(layer));
  }
}

std::int64_t InferenceSession::input_rows() const {
  return layers_.front().entry.layer.gemm.m;
}

std::int64_t InferenceSession::input_cols() const {
  return layers_.front().entry.layer.gemm.k;
}

Matrix<half_t> InferenceSession::make_input(std::uint64_t seed) const {
  Matrix<half_t> input(input_rows(), input_cols());
  Rng rng(seed);
  rng.fill_uniform(input, -0.5, 0.5);
  return input;
}

const Matrix<half_t>& InferenceSession::weights(std::size_t layer) const {
  AIFT_CHECK(layer < layers_.size());
  return layers_[layer].weights;
}

const PackedOperand* InferenceSession::packed_weights(std::size_t layer) const {
  AIFT_CHECK(layer < layers_.size());
  return layers_[layer].packed ? &*layers_[layer].packed : nullptr;
}

void InferenceSession::layer_gemm(std::size_t layer, const Matrix<half_t>& a,
                                  Matrix<half_t>& c,
                                  const FunctionalOptions& opts) const {
  const Layer& l = layers_[layer];
  if (l.packed) {
    functional_gemm(a, *l.packed, c, l.entry.exec_tile(), opts);
  } else {
    functional_gemm(a, l.weights, c, l.entry.exec_tile(), opts);
  }
}

void InferenceSession::layer_gemm_batched(std::size_t layer,
                                          const Matrix<half_t>& a,
                                          Matrix<half_t>& c,
                                          std::int64_t rows_per_request,
                                          const BatchedGemmOptions& opts) const {
  const Layer& l = layers_[layer];
  if (l.packed) {
    functional_gemm_batched(a, *l.packed, c, rows_per_request,
                            l.entry.exec_tile(), opts);
  } else {
    functional_gemm_batched(a, pack_operand(l.weights, l.entry.exec_tile()),
                            c, rows_per_request, l.entry.exec_tile(), opts);
  }
}

bool InferenceSession::check_layer(const Layer& layer, const Matrix<half_t>& a,
                                   const Matrix<half_t>& c) const {
  switch (layer.entry.scheme()) {
    case Scheme::none:
    case Scheme::repl_traditional:  // rejected at construction
    case Scheme::repl_single_acc:
      return false;
    case Scheme::global_abft:
      return layer.global->check(a, c).fault_detected;
    case Scheme::thread_one_sided:
    case Scheme::thread_two_sided:
      return layer.thread->check(a, layer.weights, c).fault_detected;
  }
  return false;
}

SessionResult InferenceSession::run(const Matrix<half_t>& input,
                                    const SessionRunOptions& run_opts) const {
  return run_from(0, input, run_opts);
}

std::vector<Matrix<half_t>> InferenceSession::layer_inputs(
    const Matrix<half_t>& input) const {
  std::vector<Matrix<half_t>> inputs;
  inputs.reserve(layers_.size());
  inputs.push_back(input);
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    const GemmShape& shape = layers_[i].entry.layer.gemm;
    const GemmShape& next = layers_[i + 1].entry.layer.gemm;
    Matrix<half_t> c(shape.m, shape.n);
    layer_gemm(i, inputs[i], c, {});
    inputs.push_back(activate_and_repack(c, opts_.activation, next.m, next.k));
  }
  return inputs;
}

SessionResult InferenceSession::run_from(std::size_t first_layer,
                                         const Matrix<half_t>& a_first,
                                         const SessionRunOptions& run_opts)
    const {
  // Thin facade: a batch of one is exactly the serial check-then-advance
  // path.
  std::vector<BatchRequest> batch(1);
  batch[0].input = a_first;
  batch[0].faults = run_opts.faults;
  BatchOptions bopts;
  bopts.parallel = run_opts.parallel;
  BatchResult result = BatchExecutor(*this).run_from(first_layer, batch, bopts);
  return std::move(result.requests.front());
}

}  // namespace aift
