#pragma once
// Executable protected inference — the "execute" stage of the plan ->
// compile -> execute -> serve split.
//
// An InferenceSession instantiates a compiled InferencePlan: per-layer
// weights are sampled once at construction (weight checksums for
// global-ABFT layers are built offline there too, as §2.5 prescribes) and
// the checker instances are created per layer. It is the thin per-request
// facade over the batched serving engine: run() / run_from() delegate to a
// single-request BatchExecutor (runtime/executor.hpp) with synchronous
// verification, which pushes the input through every planned layer with
// functional_gemm under the layer's profiled tile, runs the selected
// scheme's actual check, and performs detect-and-re-execute recovery on
// flagged layers (soft errors are transient, so retries run clean unless
// the caller injects a fault into that execution attempt as well). The
// result carries a per-layer trace — detections, retries, an output digest
// — plus the final numerical output.
//
// Sessions execute the none, global-ABFT and thread-level ABFT schemes.
// The replication schemes (paper §4) stay plannable and priced, but a plan
// with a replicated layer is rejected at construction (std::logic_error).
//
// run() is const and safe to call concurrently: model-level fault
// campaigns fan trials out across the worker pool over one shared session.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/matrix.hpp"
#include "core/global_abft.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"
#include "nn/activation.hpp"
#include "runtime/plan.hpp"

namespace aift {

/// One fault to inject during a run: `spec` lands in layer `layer` on
/// execution attempt `execution` (0 = first execution, n = n-th retry), so
/// tests can model both transient faults and faulty retries.
struct SessionFault {
  std::size_t layer = 0;
  FaultSpec spec;
  int execution = 0;
};

struct SessionRunOptions {
  std::vector<SessionFault> faults;
  /// Parallelize each functional GEMM over the worker pool. Campaigns that
  /// already fan out at trial level run layers serially instead. Parallel
  /// and serial GEMM execution are bit-identical, so this never changes
  /// the numerical result or the trace.
  bool parallel = true;
};

/// Per-layer execution record of one run.
struct LayerTrace {
  std::string name;
  Scheme scheme = Scheme::none;
  int executions = 0;  ///< times the layer's GEMM ran (1 = no retry)
  int detections = 0;  ///< check invocations that flagged
  bool unrecovered = false;  ///< still flagged after max_retries
  double output_digest = 0.0;  ///< deterministic digest of accepted output

  [[nodiscard]] int retries() const { return executions - 1; }
};

struct SessionResult {
  Matrix<half_t> output;  ///< final layer's raw GEMM output (logits)
  std::vector<LayerTrace> layers;

  [[nodiscard]] int total_detections() const;
  [[nodiscard]] int total_retries() const;
  /// No check ever flagged (error-free execution).
  [[nodiscard]] bool clean() const { return total_detections() == 0; }
  /// Every flagged layer was re-executed to a passing check.
  [[nodiscard]] bool recovered() const;
};

struct SessionOptions {
  /// Seed of the per-layer weight streams (layer i draws from
  /// derive_seed(weight_seed, i)).
  std::uint64_t weight_seed = 0xAB5EEDULL;
  /// Retry budget per layer; a layer still flagged after this many
  /// re-executions is surrendered with trace.unrecovered = true.
  int max_retries = 3;
  /// Activation applied between layers (never to the final output).
  Activation activation = Activation::squash;
  /// Pack each layer's weights once at construction (gemm/packed_operand):
  /// every run, batch wave, retry and campaign trial then serves from the
  /// cached pack. `false` packs on every GEMM call instead — the same
  /// layout and so the same result by construction, at the cost of one
  /// conversion per call; benches use it as the per-call baseline.
  bool pack_weights = true;
};

class InferenceSession {
 public:
  explicit InferenceSession(InferencePlan plan, SessionOptions opts = {});

  [[nodiscard]] const InferencePlan& plan() const { return plan_; }
  [[nodiscard]] const SessionOptions& options() const { return opts_; }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }

  /// Rows/cols of the expected input matrix (layer 0's M x K).
  [[nodiscard]] std::int64_t input_rows() const;
  [[nodiscard]] std::int64_t input_cols() const;
  /// Deterministic synthetic input in [-0.5, 0.5).
  [[nodiscard]] Matrix<half_t> make_input(std::uint64_t seed) const;

  [[nodiscard]] const Matrix<half_t>& weights(std::size_t layer) const;

  /// The layer's weight pack (pack_weights), or nullptr when the session
  /// was built with pack_weights = false. Lives as long as the session.
  [[nodiscard]] const PackedOperand* packed_weights(std::size_t layer) const;

  [[nodiscard]] SessionResult run(const Matrix<half_t>& input,
                                  const SessionRunOptions& run_opts = {}) const;

  /// Runs only the layer suffix [first_layer, num_layers), with `a_first`
  /// feeding layer first_layer. SessionFault::layer stays absolute;
  /// result.layers[j] traces layer first_layer + j. run(input, opts) is
  /// run_from(0, input, opts). Campaigns use this to skip re-executing a
  /// clean prefix that is bit-identical to the reference run.
  [[nodiscard]] SessionResult run_from(std::size_t first_layer,
                                       const Matrix<half_t>& a_first,
                                       const SessionRunOptions& run_opts = {})
      const;

  /// Clean (fault-free) inputs to every layer when `input` feeds layer 0:
  /// element i is the activation matrix entering layer i (element 0 is
  /// `input` itself). Deterministic, so element i is exactly what any
  /// fault-free execution would feed layer i.
  [[nodiscard]] std::vector<Matrix<half_t>> layer_inputs(
      const Matrix<half_t>& input) const;

 private:
  struct Layer {
    LayerPlanEntry entry;
    Matrix<half_t> weights;  // K x N
    // The weights packed for entry.exec_tile() (pack_weights). Weights are
    // immutable for the session's lifetime, so the pack is built exactly
    // once, here.
    std::optional<PackedOperand> packed;
    // Checker instance matching entry.scheme() (at most one engaged).
    std::optional<GlobalAbft> global;
    std::optional<ThreadLevelAbft> thread;
  };

  // The batched serving engine executes the session's layers directly;
  // its streaming core (ContinuousBatch) is the single definition of the
  // execution semantics that run(), run_from() and layer_inputs() must
  // stay bit-identical to.
  friend class BatchExecutor;
  friend class ContinuousBatch;

  [[nodiscard]] bool check_layer(const Layer& layer, const Matrix<half_t>& a,
                                 const Matrix<half_t>& c) const;

  // The one place execution chooses between the construction-time pack and
  // a pack made per call (pack_weights = false) — every layer GEMM (serial,
  // batched, retry) funnels through these.
  void layer_gemm(std::size_t layer, const Matrix<half_t>& a,
                  Matrix<half_t>& c, const FunctionalOptions& opts) const;
  void layer_gemm_batched(std::size_t layer, const Matrix<half_t>& a,
                          Matrix<half_t>& c, std::int64_t rows_per_request,
                          const BatchedGemmOptions& opts) const;

  InferencePlan plan_;
  SessionOptions opts_;
  std::vector<Layer> layers_;
};

}  // namespace aift
