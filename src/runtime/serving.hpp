#pragma once
// Dynamic-batching request front-end — the traffic-facing stage of the
// plan -> compile -> execute -> serve split.
//
// The batched executor makes protected inference fast, but it takes
// batches; a serving process sees a *stream* of single requests.
// ServingEngine closes that gap: it owns one thread-safe RequestQueue per
// registered model (multi-session sharding: model name -> InferencePlan ->
// InferenceSession -> ContinuousBatch) and a scheduler that forms batches
// under a per-model BatchPolicy.
//
// Two scheduling policies (BatchPolicy::scheduler):
//   - SchedulerKind::edf (default): every request carries an absolute
//     deadline — submit time plus its RequestOptions::deadline SLO, or the
//     model's BatchPolicy::default_slo when the request doesn't set one.
//     Pending requests are kept earliest-deadline-first (priority class
//     breaks ties, submit order breaks those); a shard dispatches when
//     max_batch requests wait, when the oldest request has aged max_delay
//     (the batching hold knob, same as fifo), or — earlier — when its
//     most urgent request reaches `deadline - dispatch_margin` (the
//     margin reserves execution time out of the SLO budget). A request
//     whose deadline has already passed at batch-formation time is
//     *shed*: its future resolves to a typed DeadlineExceeded instead of
//     occupying a batch that could still make other deadlines.
//   - SchedulerKind::fifo: the legacy max_delay batcher — dispatch at
//     max_batch or when the oldest request has aged max_delay, strict
//     submit order, never sheds. Kept as the comparison baseline for the
//     SLO-attainment bench; deadlines are still *tracked* (for the
//     hit/miss statistics) but never influence scheduling.
//
// Every shard runs one kind of round: admit a wave of queued requests
// (scheduler order) into the shard's ContinuousBatch at a layer boundary,
// advance the batch one layer step, and settle the rows that retired.
// Orthogonal to the scheduler, BatchPolicy::continuous decides only how
// many rows a wave may admit. A continuous shard tops its open batch back
// up to max_batch rows at every boundary instead of waiting for the
// previous batch to retire; a row leaves the batch in the step that runs
// its last layer, so its slot is free for the next wave at the very next
// boundary. A closed shard admits a wave only when idle, so its batch runs
// exactly what BatchExecutor::run runs: admit all, step until idle.
//
// Either way, every submit() returns a future whose SessionResult is
// exactly — bit for bit — what a standalone InferenceSession::run of that
// request would produce, because ContinuousBatch's batch-, order- and
// admission-invariance is already CTest-pinned. EDF reordering, shedding,
// priority classes and mid-flight admission change only *which* requests
// share executor steps and *when*, never any request's result.
//
// Two driving modes:
//   - threaded (default): a background batcher thread waits on the queues
//     and dispatches due batches; shutdown() stops intake, drains every
//     pending request and joins the thread. An injected clock is rejected
//     in this mode (the batcher sleeps in real time; fake timestamps would
//     turn every due/deadline decision into nonsense).
//   - stepped (Options::threaded = false): nothing runs until the caller
//     invokes pump(), which sheds every expired request and runs every
//     round due at the injected clock's current time, synchronously, in a
//     deterministic order (most urgent head request first, model name
//     breaking ties). With a fake clock this makes scheduling decisions
//     — "3 waiting, max_batch 4, deadline not yet close → no batch" —
//     unit-testable without real threads or real time.
//
// The engine also keeps serving statistics: queue depth (current/peak), a
// batch-size histogram, per-request queue + execute latency, a deadline
// hit/miss/shed breakdown, and per-priority-class aggregates — measured
// with the injected clock so stepped tests see deterministic numbers.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "runtime/executor.hpp"

namespace aift {

/// Priority classes, most to least urgent. Under EDF a class breaks ties
/// between equal deadlines; statistics are aggregated per class either way.
enum class Priority : int {
  interactive = 0,  ///< latency-sensitive foreground traffic
  standard = 1,     ///< the default class
  bulk = 2,         ///< throughput traffic with loose deadlines
};

inline constexpr std::size_t kNumPriorityClasses = 3;

[[nodiscard]] constexpr std::size_t priority_index(Priority p) {
  return static_cast<std::size_t>(p);
}
[[nodiscard]] const char* priority_name(Priority p);

/// How a model's pending requests become executor batches.
enum class SchedulerKind {
  fifo,  ///< submit order; dispatch at max_batch or max_delay; never sheds
  edf,   ///< earliest deadline first; dispatch at max_batch or
         ///< deadline - dispatch_margin; sheds expired requests
};

[[nodiscard]] const char* scheduler_name(SchedulerKind k);

/// When a model's pending requests become an executor batch.
struct BatchPolicy {
  /// Dispatch as soon as this many requests wait (also the cap on any
  /// dynamically formed batch, including drain/shutdown flushes).
  std::int64_t max_batch = 16;
  /// Which scheduler forms batches for this model.
  SchedulerKind scheduler = SchedulerKind::edf;
  /// The batching hold knob (both schedulers): dispatch whatever is
  /// pending (up to max_batch) once the oldest pending request has waited
  /// this long. Zero means "never hold a request". Under edf an urgent
  /// deadline (below) can trigger dispatch earlier than this.
  std::chrono::microseconds max_delay{2000};
  /// The SLO assigned to requests whose RequestOptions leave the deadline
  /// unset: the request's absolute deadline is submit time + default_slo.
  /// Under fifo the deadline is tracked for the hit/miss statistics only.
  std::chrono::microseconds default_slo{10'000};
  /// edf only: the slice of the SLO budget reserved for execution. A
  /// pending request becomes due no later than deadline - dispatch_margin
  /// even when max_delay has not expired. A margin >= the SLO means
  /// "dispatch immediately".
  std::chrono::microseconds dispatch_margin{2000};
  /// The shard's admission capacity. false (closed batches): a wave of up
  /// to max_batch requests is admitted only into an idle batch, which then
  /// steps until every row retires. true (continuous batching): queued
  /// requests join the open batch at every layer boundary, up to
  /// max_batch rows in flight. The hold policy (max_delay /
  /// dispatch_margin / full) governs only *starting* an idle shard; once
  /// rows are in flight, queued requests join at the very next boundary
  /// capacity allows — that immediacy is the point. Admission never
  /// changes a served row's SessionResult.
  bool continuous = false;
};

/// Per-request scheduling inputs accepted by submit().
struct RequestOptions {
  Priority priority = Priority::standard;
  /// Relative deadline (the request's SLO), measured from submit time.
  /// Zero means "use the model's BatchPolicy::default_slo"; negative is
  /// rejected.
  std::chrono::microseconds deadline{0};
};

/// The typed outcome a shed request's future resolves to: the scheduler
/// determined the deadline was already unmeetable at batch-formation time
/// and refused to spend executor capacity on it.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded(std::string model, Priority priority, double queued_us,
                   double late_us);

  [[nodiscard]] const std::string& model() const { return model_; }
  [[nodiscard]] Priority priority() const { return priority_; }
  /// submit -> shed decision, by the engine clock.
  [[nodiscard]] double queued_us() const { return queued_us_; }
  /// How far past the absolute deadline the shed decision happened.
  [[nodiscard]] double late_us() const { return late_us_; }

 private:
  std::string model_;
  Priority priority_;
  double queued_us_;
  double late_us_;
};

/// What a served request's future resolves to.
struct ServedResult {
  /// Exactly what InferenceSession::run(input, {faults}) would return for
  /// this request, bit for bit — output, traces, digests.
  SessionResult session;
  double queue_us = 0.0;    ///< submit -> admission into the shard's batch
  double execute_us = 0.0;  ///< admission -> the request's retirement
  /// The request's cohort: rows in flight in its shard just after its
  /// admission wave (a closed shard's whole batch).
  std::int64_t batch_size = 0;
  Priority priority = Priority::standard;
  /// Completion (by the engine clock) happened at or before the request's
  /// absolute deadline.
  bool deadline_met = true;
};

/// Per-priority-class slice of the serving statistics.
struct PriorityClassStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;  ///< futures fulfilled with an executor error
  std::int64_t shed = 0;    ///< futures resolved DeadlineExceeded, unexecuted
  std::int64_t deadline_hits = 0;    ///< completed at or before the deadline
  std::int64_t deadline_misses = 0;  ///< completed late
  /// Completed requests served with a layer still flagged after
  /// max_retries (LayerTrace::unrecovered); they count in `completed`.
  std::int64_t unrecovered = 0;
  /// queue + execute latency of completed requests.
  double latency_us_total = 0.0;
  double latency_us_max = 0.0;

  [[nodiscard]] double mean_latency_us() const {
    return completed > 0 ? latency_us_total / static_cast<double>(completed)
                         : 0.0;
  }
  /// Fraction of finished (completed or shed) requests that met their
  /// deadline. Shed requests count against attainment: the SLO was missed
  /// even though no executor time was spent.
  [[nodiscard]] double deadline_attainment() const {
    const std::int64_t finished = deadline_hits + deadline_misses + shed;
    return finished > 0
               ? static_cast<double>(deadline_hits) /
                     static_cast<double>(finished)
               : 0.0;
  }
};

/// Snapshot of engine-level serving statistics (stats()).
struct ServingStats {
  std::int64_t submitted = 0;  ///< requests accepted by submit()
  std::int64_t completed = 0;  ///< requests whose future carries a result
  std::int64_t failed = 0;  ///< requests whose future carries an engine
                            ///< error (their round threw; their wave is
                            ///< counted in batches + histogram)
  std::int64_t shed = 0;    ///< requests resolved DeadlineExceeded without
                            ///< ever joining a batch
  /// Completed requests served unrecovered (see PriorityClassStats).
  std::int64_t unrecovered = 0;
  std::int64_t batches = 0;    ///< non-empty admission waves
  std::int64_t queue_depth = 0;      ///< pending right now, all models
  std::int64_t max_queue_depth = 0;  ///< high-water mark of queue_depth
  std::int64_t deadline_hits = 0;    ///< completions at or before deadline
  std::int64_t deadline_misses = 0;  ///< late completions
  /// batch_size_hist[b] = number of admission waves of size b (index 0 is
  /// always 0; the vector is just long enough for the largest wave).
  /// Failed waves are counted too — a dispatched wave never vanishes.
  std::vector<std::int64_t> batch_size_hist;
  /// Queue-side totals cover completed AND failed requests: a request
  /// that waited and then entered a failing batch still waited, and
  /// dropping it would under-report queue pressure exactly when batches
  /// fail. Shed requests never dispatch and are excluded.
  double queue_us_total = 0.0;
  double queue_us_max = 0.0;
  double execute_us_total = 0.0;  ///< completed requests only
  double execute_us_max = 0.0;
  std::array<PriorityClassStats, kNumPriorityClasses> by_priority{};

  /// Mean size of dispatched batches. Failed batches carried requests too,
  /// so they count: completed + failed is every request that entered a
  /// batch (shed requests never do).
  [[nodiscard]] double mean_batch_size() const {
    return batches > 0 ? static_cast<double>(completed + failed) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  /// Mean queue latency over every dispatched request (completed +
  /// failed — the population queue_us_total covers).
  [[nodiscard]] double mean_queue_us() const {
    const std::int64_t dispatched = completed + failed;
    return dispatched > 0
               ? queue_us_total / static_cast<double>(dispatched)
               : 0.0;
  }
  [[nodiscard]] double mean_execute_us() const {
    return completed > 0 ? execute_us_total / static_cast<double>(completed)
                         : 0.0;
  }
  /// Engine-wide SLO attainment (see PriorityClassStats).
  [[nodiscard]] double deadline_attainment() const {
    const std::int64_t finished = deadline_hits + deadline_misses + shed;
    return finished > 0
               ? static_cast<double>(deadline_hits) /
                     static_cast<double>(finished)
               : 0.0;
  }
};

class ServingEngine {
 public:
  using Clock = std::chrono::steady_clock;
  using ClockFn = std::function<Clock::time_point()>;

  struct Options {
    /// Run the background batcher thread. When false the engine is in
    /// stepped mode: the caller drives it with pump()/drain().
    bool threaded = true;
    /// Time source for enqueue stamps, due/deadline decisions and latency
    /// stats. Defaults to Clock::now. Setting it together with
    /// threaded = true is rejected at construction: the batcher thread
    /// sleeps in real time, so fake timestamps would silently produce
    /// nonsense scheduling.
    ClockFn clock;
    /// Options of every shard's ContinuousBatch (parallel execution by
    /// default).
    BatchOptions batch;
    /// Observability / admission hook, invoked off-lock just before each
    /// non-empty wave is admitted. An exception thrown here fails only
    /// that wave: its futures carry the exception and its requests count
    /// as `failed`; rows already in flight are untouched. Tests use it to
    /// exercise that path.
    std::function<void(const std::string& model, std::int64_t batch_size)>
        on_dispatch;
    /// Observability hook for admission waves, closed and continuous,
    /// invoked off-lock after each row of a wave joins the shard's batch
    /// (rows admitted so far in this wave, wave size). An exception thrown
    /// here follows the engine-failure path: the batch is not safely
    /// resumable, so every in-flight row *and* the wave's not-yet-admitted
    /// remainder fail with the exception and the shard's batch resets.
    /// Tests use it to exercise that path — it is the only supported way
    /// to observe a mid-wave engine failure.
    std::function<void(const std::string& model, std::int64_t admitted,
                       std::int64_t wave_size)>
        on_admit;
  };

  ServingEngine();  ///< default Options: threaded, steady clock
  explicit ServingEngine(Options opts);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Registers a model shard: the plan is instantiated into an
  /// InferenceSession (weights + offline checksums) fronted by its own
  /// ContinuousBatch and RequestQueue. Rejects duplicate names and
  /// degenerate policies.
  void add_model(const std::string& name, InferencePlan plan,
                 const BatchPolicy& policy = {},
                 const SessionOptions& session_opts = {});

  /// add_model from a persisted plan artifact (runtime/plan_io) — how a
  /// serving process boots without re-profiling. `calibration_path`, when
  /// non-empty, additionally loads the device's measured CalibrationTable
  /// artifact (runtime/calibration_io) next to the plan; the table is kept
  /// on the shard (see calibration()) so operators can audit what the plan
  /// was autotuned against and re-plan without re-measuring. A missing or
  /// corrupt calibration artifact throws, exactly like a bad plan — boot
  /// loudly, not with silently stale tuning.
  void add_model_from_file(const std::string& name, const std::string& path,
                           const BatchPolicy& policy = {},
                           const SessionOptions& session_opts = {},
                           const std::string& calibration_path = {});

  [[nodiscard]] std::vector<std::string> models() const;
  /// The shard's session (e.g. for make_input or bit-identity checks).
  [[nodiscard]] const InferenceSession& session(const std::string& name) const;
  /// The measured CalibrationTable loaded alongside the model's plan, or
  /// nullptr when the model was registered without one. The pointer stays
  /// valid until shutdown() (shards are never removed).
  [[nodiscard]] const CalibrationTable* calibration(
      const std::string& name) const;

  /// Enqueues one request for `model` and returns its future. Validates
  /// the input shape, fault sites (layer and execution attempt) and
  /// request options up front, so one malformed request throws here
  /// instead of poisoning a whole batch's futures. Throws after
  /// shutdown() and for unregistered models. The future resolves to a
  /// ServedResult, or to DeadlineExceeded when the scheduler sheds the
  /// request (edf only).
  [[nodiscard]] std::future<ServedResult> submit(
      const std::string& model, Matrix<half_t> input,
      std::vector<SessionFault> faults = {}, const RequestOptions& req = {});

  /// Stepped mode only: sheds every expired request and runs every round
  /// due at clock() now — most urgent head request first (name order
  /// breaks ties) — synchronously on the calling thread. A shard with
  /// rows in flight is stepped round by round until it quiesces (every
  /// row retired, and nothing due left in its queue). Returns the number
  /// of batches (non-empty admission waves) dispatched; sheds and
  /// step-only rounds are not batches.
  std::size_t pump();

  /// Stepped mode only: performs exactly ONE scheduling round — the shed
  /// pass plus at most one shard's round (admission wave + single layer
  /// step) — and returns the number of rows left in flight in all
  /// shards. Lets tests interleave submit()
  /// with layer boundaries deterministically: a request submitted
  /// between two pump_step() calls joins mid-flight at the next
  /// boundary, exactly like a late arrival against a threaded engine.
  std::int64_t pump_step();

  /// Blocks until every pending request has been resolved — served, or
  /// (edf, deadline already passed) shed — force-flushing in either mode:
  /// the hold policy (max_delay / dispatch_margin) is waived, max_batch
  /// still caps each batch. Flushed rounds run on the calling thread; in
  /// threaded mode the batcher keeps dispatching concurrently, and
  /// drain() waits for a round the batcher has in flight instead of
  /// running one beside it on the same shard.
  void drain();

  /// Stops intake (further submits throw), resolves everything still
  /// pending (like drain()), and joins the batcher thread. Idempotent;
  /// the destructor calls it.
  void shutdown();

  [[nodiscard]] ServingStats stats() const;

 private:
  struct Pending {
    Matrix<half_t> input;
    std::vector<SessionFault> faults;
    std::promise<ServedResult> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< absolute: enqueued + SLO
    Priority priority = Priority::standard;
    std::uint64_t seq = 0;  ///< engine-wide submit order, the final tie-break
  };

  struct Shard {
    std::string name;
    BatchPolicy policy;
    InferenceSession session;
    /// fifo: submit order. edf: kept sorted most-urgent-first by
    /// (deadline, priority, seq), so the expired prefix and the next batch
    /// are both pops from the front.
    std::deque<Pending> queue;
    /// seq -> enqueued for every queued request. seq is engine-wide
    /// monotone, so begin() is the oldest pending request — which under
    /// edf is *not* the deadline-sorted queue's front. Keeps the
    /// max_delay aging check O(1) instead of a queue scan.
    std::map<std::uint64_t, Clock::time_point> arrivals;

    /// The shard's batch, which every round admits into and steps, plus
    /// the bookkeeping of its in-flight rows, keyed by executor row id.
    struct LiveRow {
      Pending request;             ///< promise + deadline bookkeeping
      Clock::time_point admitted;  ///< its admission wave's timestamp
      std::int64_t cohort = 0;     ///< rows in flight just after that wave
    };
    ContinuousBatch batch;
    std::map<std::int64_t, LiveRow> live;
    /// Measured calibration loaded next to the plan artifact (optional;
    /// read-only after registration).
    std::optional<CalibrationTable> calibration;
    /// A thread is running this shard's round (admit + step + settle)
    /// off-lock and exclusively owns `batch` and `live` until it clears
    /// the flag, which it does only after the round's futures are
    /// settled; scheduling passes skip the shard meanwhile, and drain()
    /// does not count the shard idle. The flag is
    /// only read/written under the engine's mu_, which supplies the
    /// happens-before between consecutive owners. (Every Shard field is
    /// guarded by the owning engine's mu_ — except `session`, `batch` and
    /// `live`, which the round thread owns exclusively while
    /// `stepping` is set. Clang's GUARDED_BY cannot name the enclosing
    /// object's member from a nested struct, so the protocol is enforced
    /// one level up: every ServingEngine method that touches a Shard is
    /// annotated AIFT_REQUIRES(mu_) or takes a scoped lock.)
    bool stepping = false;

    Shard(std::string model_name, InferencePlan plan, const BatchPolicy& p,
          const SessionOptions& sopts, const BatchOptions& bopts)
        : name(std::move(model_name)),
          policy(p),
          session(std::move(plan), sopts),
          batch(session, bopts) {}
  };

  /// One expired request popped by the shedding pass, with its outcome
  /// computed under the lock so the promise can resolve outside it.
  struct Shed {
    std::string model;
    double queued_us = 0.0;
    double late_us = 0.0;
    Pending pending;
  };

  /// One scheduling pass's output: at most one shard's admission wave
  /// (possibly empty: a step-only round that advances the in-flight rows)
  /// plus every request shed (possibly from several shards) during the
  /// pass.
  struct Formed {
    Shard* shard = nullptr;
    std::vector<Pending> requests;
    std::vector<Shed> shed;
  };

  [[nodiscard]] Clock::time_point now() const { return opts_.clock(); }

  /// When the shard's pending work becomes due absent new arrivals: the
  /// oldest request aging past max_delay (note: under edf the oldest is
  /// not the front — the queue is deadline-sorted), or, edf, the most
  /// urgent request reaching deadline - dispatch_margin, whichever is
  /// earlier. Caller holds mu_; the queue must be non-empty.
  [[nodiscard]] Clock::time_point next_due_locked(const Shard& shard) const
      AIFT_REQUIRES(mu_);

  /// Sheds every expired request on every edf shard, then picks the most
  /// urgent due shard (edf: earliest deadline, priority, seq; fifo:
  /// oldest head request), pops the wave its admission capacity allows
  /// and marks it `stepping` — or leaves Formed::shard null. `force`
  /// waives the hold policy (drain/shutdown). Caller holds mu_.
  Formed form_due_locked(Clock::time_point at, bool force)
      AIFT_REQUIRES(mu_);

  struct DispatchOutcome {
    bool any = false;    ///< something happened (a round and/or sheds)
    bool batch = false;  ///< a non-empty wave was admitted
  };

  /// One scheduling pass shared by pump()/drain()/batcher_loop(): forms
  /// under the lock, then releases it to resolve sheds and run the round,
  /// reacquiring before returning. AIFT_REQUIRES(mu_) states the
  /// lock-passing contract (`lock` must own mu_ on entry and owns it
  /// again on return), so call sites are fully checked; the suppression
  /// is narrowly scoped to the body, whose unlock/relock dance on a
  /// caller-owned lock is the one shape Clang's analysis cannot follow
  /// across a function boundary (the callees it dispatches to are
  /// analyzed, and aift-analyze's lock-discipline simulation proves the
  /// body releases mu_ before every blocking call).
  DispatchOutcome dispatch_due(UniqueLock& lock, bool force)
      AIFT_REQUIRES(mu_) AIFT_NO_THREAD_SAFETY_ANALYSIS;

  /// Resolves shed promises to DeadlineExceeded. Called with mu_ released
  /// (their stats were already recorded under the lock in
  /// form_due_locked, so a waiter that wakes sees them counted).
  void resolve_shed(std::vector<Shed> shed) AIFT_EXCLUDES(mu_);

  /// Runs one round of any shard: admits the wave into the shard's
  /// ContinuousBatch, advances it one layer step, and settles every row
  /// that retired (stats, then promises). On a throw it settles the rows
  /// in flight and the wave's unadmitted tail with the error instead.
  /// Called with mu_ released and the shard's `stepping` flag held;
  /// takes mu_ only to update stats.
  void run_round(Formed formed) AIFT_EXCLUDES(mu_);

  /// No request queued, no round running and no shed left unresolved on
  /// any shard. Caller holds mu_.
  [[nodiscard]] bool idle_locked() const AIFT_REQUIRES(mu_);
  void batcher_loop();

  Options opts_;
  mutable Mutex mu_;
  std::condition_variable work_cv_;  ///< batcher: new work / shutdown
  std::condition_variable idle_cv_;  ///< drain(): queue empty + not busy
  std::map<std::string, std::unique_ptr<Shard>> shards_ AIFT_GUARDED_BY(mu_);
  ServingStats stats_ AIFT_GUARDED_BY(mu_);
  std::uint64_t next_seq_ AIFT_GUARDED_BY(mu_) = 0;
  /// Sheds popped from a queue whose DeadlineExceeded promise has not
  /// been set yet (resolution happens off-lock): drain() counts them as
  /// outstanding work, or it could return before a shed future settles.
  std::int64_t shed_unresolved_ AIFT_GUARDED_BY(mu_) = 0;
  bool accepting_ AIFT_GUARDED_BY(mu_) = true;
  bool stop_ AIFT_GUARDED_BY(mu_) = false;
  /// Claimed (moved out) under mu_ by the one shutdown() that joins it.
  std::thread batcher_ AIFT_GUARDED_BY(mu_);
};

}  // namespace aift
