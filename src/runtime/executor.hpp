#pragma once
// Batched serving engine — the "serve" stage of the plan -> compile ->
// execute -> serve split.
//
// A BatchExecutor marches B requests through one InferenceSession's plan
// layer-by-layer: every layer runs as a single stacked GEMM for the whole
// batch (functional_gemm_batched — the requests share weights and the
// tile-padding waste of small-M serving shapes is amortized across the
// batch), and every protected layer's check runs synchronously right
// after that GEMM, one fan-out over the batch's rows.
//
// A check that flags recovers only the faulted request: the layer
// re-executes from the request's own input under the session's retry
// budget before the request advances. Sibling requests are never
// re-executed.
//
// The paper hides global ABFT's output-checksum reduction behind the next
// layer's memory-bound GEMM (§2.5 step 5). On a GPU the two kernels use
// different resources; on this CPU port both compete for the same cores,
// and a paired A/B measured the synchronous check as fast or faster on
// every served workload, so the engine does not defer.
//
// The batch need not be closed: ContinuousBatch is the streaming core the
// executor itself runs on. Rows are admitted individually at any layer
// boundary, advance one layer per step() grouped into stacked GEMMs by
// layer cursor, and retire independently, in the step that runs their
// last layer.
//
// The invariant that makes all of this safe is testable and CTest-pinned:
// outputs and per-layer traces are bit-identical to running the B requests
// sequentially through InferenceSession::run, at any batch size, at any
// AIFT_NUM_THREADS, and under any join/leave interleaving of the
// continuous form.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "runtime/session.hpp"

namespace aift {

/// One request of a batch: its input activation plus the faults to inject
/// into its executions (SessionFault::layer is absolute, as in run_from).
struct BatchRequest {
  Matrix<half_t> input;
  std::vector<SessionFault> faults;
};

struct BatchOptions {
  /// Fan the stacked GEMMs, checks and inter-layer flow out over the
  /// worker pool. Parallel and serial execution are bit-identical.
  bool parallel = true;
};

/// Engine-level counters of one batched run (the per-request architectural
/// story — detections, retries, digests — lives in the SessionResults).
struct BatchStats {
  /// Always 0: every check runs synchronously after its GEMM. Kept for
  /// the benchmark replay, which still reports the counter.
  std::int64_t deferred_checks = 0;
  std::int64_t synchronous_checks = 0;  ///< attempt-0 checks run in-line

  friend bool operator==(const BatchStats&, const BatchStats&) = default;
};

struct BatchResult {
  /// Element r is exactly what InferenceSession::run (or run_from) would
  /// return for request r, bit for bit — output, traces, digests.
  std::vector<SessionResult> requests;
  BatchStats stats;
};

/// The streaming core of the batched engine: an open batch that rows join
/// and leave at layer boundaries. Each step() advances every in-flight row
/// one layer — rows sharing a layer cursor execute as one stacked GEMM,
/// rows at different cursors (mid-flight joins) run as separate per-layer
/// groups in the same step — then checks every row's protected layer and
/// retires the rows that just ran their last layer.
///
/// Admission at a layer boundary never changes a row's SessionResult:
/// every row retires bit-identical to a standalone InferenceSession::run,
/// whatever joins or leaves around it and at any AIFT_NUM_THREADS.
///
/// Not thread-safe: one ContinuousBatch is driven by one thread at a time.
class ContinuousBatch {
 public:
  /// The session must outlive the batch.
  explicit ContinuousBatch(const InferenceSession& session,
                           const BatchOptions& opts = {});

  /// Admits a request whose input feeds layer `first_layer`, joining the
  /// batch at the current layer boundary. Validates like run_from and
  /// returns the row id (admission order, starting at 0) that
  /// take_finished() reports the result under.
  std::int64_t admit(BatchRequest request, std::size_t first_layer = 0);

  /// Advances every in-flight row one layer boundary (no-op when idle).
  void step();

  /// No rows in flight (finished results may still be waiting to be taken).
  [[nodiscard]] bool idle() const { return rows_.empty(); }
  /// Rows currently in flight (admitted, not yet retired).
  [[nodiscard]] std::int64_t in_flight() const {
    return static_cast<std::int64_t>(rows_.size());
  }

  /// Retired rows in retirement order, each bit-identical to a standalone
  /// InferenceSession::run of the same request. Clears the finished set.
  [[nodiscard]] std::vector<std::pair<std::int64_t, SessionResult>>
  take_finished();

  /// Counters accumulated across every step so far.
  [[nodiscard]] const BatchStats& stats() const { return stats_; }

 private:
  struct Row {
    std::int64_t id = 0;
    std::size_t cursor = 0;   // next layer this row executes
    Matrix<half_t> a;         // input activation of layer `cursor`
    std::vector<SessionFault> faults;
    SessionResult res;
  };

  [[nodiscard]] std::vector<FaultSpec> faults_for(const Row& row,
                                                  std::size_t layer,
                                                  int attempt) const;
  void recover_row(const Row& row, std::size_t layer,
                   const Matrix<half_t>& a_local, Matrix<half_t>& c_local,
                   LayerTrace& trace) const;

  const InferenceSession* session_;
  BatchOptions opts_;
  std::int64_t next_id_ = 0;
  std::vector<Row> rows_;  // in-flight, admission order
  std::vector<std::pair<std::int64_t, SessionResult>> finished_;
  BatchStats stats_;
};

class BatchExecutor {
 public:
  /// The session must outlive the executor. All state lives per-run, so
  /// one executor may serve concurrent run() calls.
  explicit BatchExecutor(const InferenceSession& session)
      : session_(session) {}

  [[nodiscard]] const InferenceSession& session() const { return session_; }

  /// Runs the whole batch through every planned layer.
  [[nodiscard]] BatchResult run(const std::vector<BatchRequest>& batch,
                                const BatchOptions& opts = {}) const;

  /// Runs only the layer suffix [first_layer, num_layers), every request's
  /// input feeding layer first_layer — the batched form of
  /// InferenceSession::run_from (campaigns batch trials that share a
  /// faulted layer this way). Implemented as a ContinuousBatch that admits
  /// the whole batch up front and steps it to quiescence.
  [[nodiscard]] BatchResult run_from(std::size_t first_layer,
                                     const std::vector<BatchRequest>& batch,
                                     const BatchOptions& opts = {}) const;

  /// Opens a continuous batch over this executor's session, ready for
  /// mid-flight admission (the serving engine's continuous mode).
  [[nodiscard]] ContinuousBatch begin(const BatchOptions& opts = {}) const {
    return ContinuousBatch(session_, opts);
  }

 private:
  const InferenceSession& session_;
};

}  // namespace aift
