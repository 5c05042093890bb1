// ServingEngine tests. The load-bearing facts:
//
//  - Batch formation follows BatchPolicy exactly under both schedulers:
//    fifo dispatches at max_batch or max_delay in submit order; edf keeps
//    pending requests earliest-deadline-first (priority class breaking
//    ties), dispatches at max_batch or deadline - dispatch_margin, and
//    sheds requests whose deadline already passed — pinned with the
//    deterministic stepped mode (injected fake clock + pump()), so every
//    scheduling decision is observable without threads or real time.
//  - EDF reordering, priorities and shedding never change a served
//    request's SessionResult: results stay bit-identical to calling
//    BatchExecutor::run directly on the same dynamically formed grouping
//    — including a deferred-verification rewind *inside* such a batch —
//    and therefore to standalone InferenceSession::run.
//  - Shed futures resolve to a typed DeadlineExceeded; failed batches are
//    counted (batches, histogram, `failed`) instead of vanishing; and
//    `submitted` always reconciles with completed + failed + shed +
//    queue_depth.
//  - Multi-model sharding routes each request to its own session.
//  - drain()/shutdown() flush below-threshold queues; submit() validates
//    eagerly so one malformed request can't poison a batch.
//
// CTest runs this binary additionally pinned to AIFT_NUM_THREADS=1/2/8
// (serving_determinism_threads_*), like the executor/campaign suites —
// which makes the EDF + priority + shedding decisions an explicit
// any-worker-count determinism fact.

#include "runtime/serving.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cstdio>
#include <locale>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/plan_io.hpp"
#include "session_result_testing.hpp"

namespace aift {
namespace {

using std::chrono::microseconds;

// Manually advanced time source for stepped engines. Starts at a fixed
// epoch, not the wall clock: the tests assert on durations, never on
// absolute times, and a fixed origin keeps every run bit-identical.
struct ManualClock {
  std::shared_ptr<ServingEngine::Clock::time_point> now_ =
      std::make_shared<ServingEngine::Clock::time_point>(
          ServingEngine::Clock::time_point{} + std::chrono::hours(1));

  [[nodiscard]] ServingEngine::ClockFn fn() const {
    auto now = now_;
    return [now] { return *now; };
  }
  void advance(microseconds d) { *now_ += d; }
};

ServingEngine::Options stepped_options(const ManualClock& clock) {
  ServingEngine::Options opts;
  opts.threaded = false;
  opts.clock = clock.fn();
  return opts;
}

void expect_reconciled(const ServingStats& stats) {
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.failed + stats.shed + stats.queue_depth);
  std::int64_t cls_submitted = 0, cls_resolved = 0;
  for (const auto& cls : stats.by_priority) {
    // Per-class pending isn't tracked, so the class ledger is an
    // inequality; the sum over classes closes it against queue_depth.
    EXPECT_GE(cls.submitted, cls.completed + cls.failed + cls.shed);
    EXPECT_EQ(cls.completed, cls.deadline_hits + cls.deadline_misses);
    cls_submitted += cls.submitted;
    cls_resolved += cls.completed + cls.failed + cls.shed;
  }
  EXPECT_EQ(cls_submitted, stats.submitted);
  EXPECT_EQ(cls_resolved, stats.completed + stats.failed + stats.shed);
  EXPECT_EQ(stats.completed, stats.deadline_hits + stats.deadline_misses);
}

class ServingTest : public ::testing::Test {
 protected:
  [[nodiscard]] InferencePlan plan(
      ProtectionPolicy policy = ProtectionPolicy::intensity_guided) const {
    return pipe_.plan(zoo::dlrm_mlp_bottom(1), policy);
  }

  GemmCostModel cost_{devices::t4()};
  ProtectedPipeline pipe_{cost_};
};

// ------------------------------------------------- fifo baseline policy --

TEST_F(ServingTest, SteppedFifoBatchFormationFollowsPolicy) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_batch = 4;
  policy.max_delay = microseconds(1000);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  // 3 waiting, batch not full, delay not expired: nothing may dispatch.
  std::vector<std::future<ServedResult>> futures;
  for (int r = 0; r < 3; ++r) {
    futures.push_back(engine.submit("dlrm", session.make_input(10 + r)));
  }
  EXPECT_EQ(engine.pump(), 0u);
  EXPECT_EQ(engine.stats().queue_depth, 3);
  EXPECT_EQ(engine.stats().batches, 0);

  // The oldest request ages past max_delay: the partial batch goes out.
  clock.advance(microseconds(1000));
  EXPECT_EQ(engine.pump(), 1u);
  for (auto& f : futures) EXPECT_EQ(f.get().batch_size, 3);

  // A full batch dispatches immediately, no aging required.
  futures.clear();
  for (int r = 0; r < 4; ++r) {
    futures.push_back(engine.submit("dlrm", session.make_input(20 + r)));
  }
  EXPECT_EQ(engine.pump(), 1u);
  for (auto& f : futures) EXPECT_EQ(f.get().batch_size, 4);

  // 9 waiting: two full batches leave, the ninth request keeps waiting.
  futures.clear();
  for (int r = 0; r < 9; ++r) {
    futures.push_back(engine.submit("dlrm", session.make_input(30 + r)));
  }
  EXPECT_EQ(engine.pump(), 2u);
  EXPECT_EQ(engine.stats().queue_depth, 1);
  clock.advance(microseconds(1000));
  EXPECT_EQ(engine.pump(), 1u);
  EXPECT_EQ(futures.back().get().batch_size, 1);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 16);
  EXPECT_EQ(stats.completed, 16);
  EXPECT_EQ(stats.batches, 5);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.max_queue_depth, 9);
  ASSERT_EQ(stats.batch_size_hist.size(), 5u);  // largest batch was 4
  EXPECT_EQ(stats.batch_size_hist[1], 1);
  EXPECT_EQ(stats.batch_size_hist[3], 1);
  EXPECT_EQ(stats.batch_size_hist[4], 3);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 16.0 / 5.0);
  // fifo never sheds, and the fake clock completed everything within the
  // default SLO: all hits.
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.deadline_hits, 16);
  EXPECT_DOUBLE_EQ(stats.deadline_attainment(), 1.0);
  expect_reconciled(stats);
}

TEST_F(ServingTest, ZeroMaxDelayNeverHoldsRequests) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_batch = 16;
  policy.max_delay = microseconds(0);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");
  auto a = engine.submit("dlrm", session.make_input(1));
  auto b = engine.submit("dlrm", session.make_input(2));
  EXPECT_EQ(engine.pump(), 1u);  // both pending requests leave together
  EXPECT_EQ(a.get().batch_size, 2);
  EXPECT_EQ(b.get().batch_size, 2);
}

TEST_F(ServingTest, LatencyStatsComeFromTheInjectedClock) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_batch = 8;
  policy.max_delay = microseconds(200);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");
  auto f = engine.submit("dlrm", session.make_input(3));
  clock.advance(microseconds(300));
  EXPECT_EQ(engine.pump(), 1u);
  // The fake clock never moved between dispatch and completion, so the
  // numbers are exact: 300us queued, 0us executing.
  const ServedResult served = f.get();
  EXPECT_DOUBLE_EQ(served.queue_us, 300.0);
  EXPECT_DOUBLE_EQ(served.execute_us, 0.0);
  const ServingStats stats = engine.stats();
  EXPECT_DOUBLE_EQ(stats.queue_us_total, 300.0);
  EXPECT_DOUBLE_EQ(stats.queue_us_max, 300.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 300.0);
  EXPECT_DOUBLE_EQ(stats.execute_us_total, 0.0);
  // The deadline is the default SLO (10ms), not max_delay: 300us queued
  // still met it, and the per-class slice recorded the latency.
  EXPECT_TRUE(served.deadline_met);
  const auto& cls = stats.by_priority[priority_index(Priority::standard)];
  EXPECT_EQ(cls.completed, 1);
  EXPECT_DOUBLE_EQ(cls.mean_latency_us(), 300.0);
  EXPECT_DOUBLE_EQ(cls.latency_us_max, 300.0);
}

// --------------------------------------------------------- edf scheduler --

TEST_F(ServingTest, SteppedEdfDispatchesAtDeadlineMinusMargin) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 4;
  policy.max_delay = microseconds(5000);  // the hold knob, both schedulers
  policy.default_slo = microseconds(1000);
  policy.dispatch_margin = microseconds(200);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  // 2 waiting, batch not full, deadline still far: nothing may dispatch.
  auto a = engine.submit("dlrm", session.make_input(1));
  auto b = engine.submit("dlrm", session.make_input(2));
  EXPECT_EQ(engine.pump(), 0u);
  clock.advance(microseconds(799));
  EXPECT_EQ(engine.pump(), 0u);  // due point is deadline - margin = +800us

  // At deadline - dispatch_margin the partial batch goes out — earlier
  // than max_delay would allow — with SLO budget left to execute.
  clock.advance(microseconds(1));
  EXPECT_EQ(engine.pump(), 1u);
  EXPECT_EQ(a.get().batch_size, 2);
  const ServedResult served = b.get();
  EXPECT_TRUE(served.deadline_met);
  EXPECT_EQ(served.priority, Priority::standard);

  // A full batch dispatches immediately, deadline not yet close.
  std::vector<std::future<ServedResult>> futures;
  for (int r = 0; r < 4; ++r) {
    futures.push_back(engine.submit("dlrm", session.make_input(10 + r)));
  }
  EXPECT_EQ(engine.pump(), 1u);
  for (auto& f : futures) EXPECT_EQ(f.get().batch_size, 4);

  // A request whose deadline is loose still leaves once it ages past
  // max_delay: edf keeps the hold knob, the deadline only *advances*
  // dispatch, never delays it past max_delay.
  RequestOptions loose;
  loose.deadline = microseconds(60'000'000);
  auto c = engine.submit("dlrm", session.make_input(20), {}, loose);
  clock.advance(microseconds(4999));
  EXPECT_EQ(engine.pump(), 0u);
  clock.advance(microseconds(1));
  EXPECT_EQ(engine.pump(), 1u);
  EXPECT_EQ(c.get().batch_size, 1);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_hits, 7);
  EXPECT_EQ(stats.deadline_misses, 0);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_DOUBLE_EQ(stats.deadline_attainment(), 1.0);
  expect_reconciled(stats);
}

TEST_F(ServingTest, EdfOrdersByDeadlineNotSubmitOrder) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 2;
  policy.max_delay = microseconds(60'000'000);  // deadline-driven only
  policy.dispatch_margin = microseconds(0);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  // Submit order: A (loose) first, then B and C (tight). FIFO would
  // dispatch {A, B}; EDF must dispatch {B, C} and leave A waiting.
  RequestOptions loose;
  loose.deadline = microseconds(10'000);
  RequestOptions tight;
  tight.deadline = microseconds(2000);
  auto a = engine.submit("dlrm", session.make_input(1), {}, loose);
  auto b = engine.submit("dlrm", session.make_input(2), {}, tight);
  auto c = engine.submit("dlrm", session.make_input(3), {}, tight);

  // At the tight deadline (not yet *past* it — no shed), the two tight
  // requests are due and jump ahead of A, whose own due point is 8
  // milliseconds away.
  clock.advance(microseconds(2000));
  EXPECT_EQ(engine.pump(), 1u);
  EXPECT_EQ(engine.stats().queue_depth, 1);
  EXPECT_EQ(b.get().batch_size, 2);
  EXPECT_EQ(c.get().batch_size, 2);
  EXPECT_EQ(engine.stats().deadline_hits, 2);  // completed exactly on time

  clock.advance(microseconds(8000));
  EXPECT_EQ(engine.pump(), 1u);
  const ServedResult served_a = a.get();
  EXPECT_EQ(served_a.batch_size, 1);
  EXPECT_TRUE(served_a.deadline_met);

  // Reordering changed nothing about any result: every served request is
  // bit-identical to its standalone run.
  expect_identical(served_a.session, session.run(session.make_input(1)),
                   "reordered request A");
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_hits, 3);
  expect_reconciled(stats);
}

TEST_F(ServingTest, EdfAgingIsMeasuredFromTheOldestRequestNotTheFront) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 16;
  policy.max_delay = microseconds(2000);
  policy.dispatch_margin = microseconds(0);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  // A (loose deadline) arrives first; B (tighter deadline) arrives later
  // and sorts to the *front* of the deadline-ordered queue. The max_delay
  // hold clock must still run from A, the oldest request — measuring it
  // from the front would hold A hostage to B's distant due point.
  RequestOptions loose;
  loose.deadline = microseconds(100'000);
  RequestOptions tighter;
  tighter.deadline = microseconds(50'000);
  auto a = engine.submit("dlrm", session.make_input(1), {}, loose);
  clock.advance(microseconds(1500));
  auto b = engine.submit("dlrm", session.make_input(2), {}, tighter);

  clock.advance(microseconds(499));  // A aged 1999us: still held
  EXPECT_EQ(engine.pump(), 0u);
  clock.advance(microseconds(1));  // A aged exactly max_delay
  EXPECT_EQ(engine.pump(), 1u);
  EXPECT_EQ(a.get().batch_size, 2);  // B rides along, EDF-ordered first
  EXPECT_EQ(b.get().batch_size, 2);
}

TEST_F(ServingTest, PriorityClassBreaksEqualDeadlineTies) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 2;
  policy.max_delay = microseconds(60'000'000);  // deadline-driven only
  policy.dispatch_margin = microseconds(0);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  // Three requests, one shared deadline, submit order A, B, C. C is
  // interactive: the tie-break must seat it in the first (full) batch at
  // B's expense — pure submit order would have grouped {A, B} and left C
  // the size-1 leftover batch. That C displaced B is observable from the
  // outside through the batch sizes.
  RequestOptions standard;
  standard.deadline = microseconds(2000);
  RequestOptions interactive = standard;
  interactive.priority = Priority::interactive;
  auto a = engine.submit("dlrm", session.make_input(1), {}, standard);
  auto b = engine.submit("dlrm", session.make_input(2), {}, standard);
  auto c = engine.submit("dlrm", session.make_input(3), {}, interactive);

  clock.advance(microseconds(2000));
  EXPECT_EQ(engine.pump(), 2u);  // {C, A}, then the leftover {B}
  EXPECT_EQ(c.get().batch_size, 2);
  EXPECT_EQ(a.get().batch_size, 2);
  EXPECT_EQ(b.get().batch_size, 1);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_hits, 3);
  EXPECT_EQ(stats.by_priority[priority_index(Priority::interactive)]
                .deadline_hits,
            1);
  expect_reconciled(stats);
}

TEST_F(ServingTest, ExpiredRequestsAreShedWithTypedOutcome) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 8;
  policy.dispatch_margin = microseconds(0);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  RequestOptions interactive;
  interactive.priority = Priority::interactive;
  interactive.deadline = microseconds(500);
  RequestOptions bulk;
  bulk.priority = Priority::bulk;
  bulk.deadline = microseconds(500);
  auto a = engine.submit("dlrm", session.make_input(1), {}, interactive);
  auto b = engine.submit("dlrm", session.make_input(2), {}, bulk);

  // Both deadlines pass unserved: the pump sheds instead of dispatching.
  clock.advance(microseconds(750));
  EXPECT_EQ(engine.pump(), 0u);

  try {
    (void)a.get();
    FAIL() << "shed future must not carry a result";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.model(), "dlrm");
    EXPECT_EQ(e.priority(), Priority::interactive);
    EXPECT_DOUBLE_EQ(e.queued_us(), 750.0);
    EXPECT_DOUBLE_EQ(e.late_us(), 250.0);
    EXPECT_NE(std::string(e.what()).find("dlrm"), std::string::npos);
  }
  EXPECT_THROW((void)b.get(), DeadlineExceeded);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.by_priority[priority_index(Priority::interactive)].shed, 1);
  EXPECT_EQ(stats.by_priority[priority_index(Priority::bulk)].shed, 1);
  EXPECT_DOUBLE_EQ(stats.deadline_attainment(), 0.0);
  expect_reconciled(stats);

  // The engine is unharmed: later traffic is served normally.
  RequestOptions fresh;
  fresh.deadline = microseconds(1000);
  auto c = engine.submit("dlrm", session.make_input(3), {}, fresh);
  clock.advance(microseconds(1000));
  EXPECT_EQ(engine.pump(), 1u);
  EXPECT_EQ(c.get().batch_size, 1);
}

// Acceptance pin: a batch formed under EDF with shedding and mixed
// priority classes — including a request whose deferred verification
// rewinds — still serves every request bit-identically to its standalone
// session run. Runs under serving_determinism_threads_{1,2,8}.
TEST_F(ServingTest, ShedAndMixedPriorityBatchStaysBitIdentical) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 8;
  policy.max_delay = microseconds(60'000'000);  // deadline-driven only
  policy.dispatch_margin = microseconds(0);
  // Global ABFT everywhere: every check defers, so an injected fault
  // drains behind the next layer's GEMM and rewinds inside the batch.
  engine.add_model("dlrm", plan(ProtectionPolicy::global_abft), policy);
  const auto& session = engine.session("dlrm");

  RequestOptions tight;  // will expire before anything dispatches
  tight.deadline = microseconds(300);
  RequestOptions loose_interactive;
  loose_interactive.deadline = microseconds(1000);
  loose_interactive.priority = Priority::interactive;
  RequestOptions loose_standard;
  loose_standard.deadline = microseconds(1000);

  std::vector<std::vector<SessionFault>> faults(6);
  faults[1] = {SessionFault{0, big_fault(), 0}};  // survives into the batch
  std::vector<std::future<ServedResult>> futures;
  for (int r = 0; r < 6; ++r) {
    const bool expires = (r % 2) == 0;  // r = 0, 2, 4 shed
    futures.push_back(engine.submit(
        "dlrm", session.make_input(static_cast<std::uint64_t>(40 + r)),
        faults[static_cast<std::size_t>(r)],
        expires ? tight : (r == 5 ? loose_interactive : loose_standard)));
  }

  // Past the tight deadlines, before the loose due point: the pump only
  // sheds (deterministically, whatever AIFT_NUM_THREADS says).
  clock.advance(microseconds(500));
  EXPECT_EQ(engine.pump(), 0u);
  EXPECT_EQ(engine.stats().shed, 3);
  EXPECT_EQ(engine.stats().queue_depth, 3);

  // At the loose deadline the survivors go out as one EDF-ordered batch
  // (r5 jumped to the front by priority). Each result is bit-identical to
  // the standalone run — the rewind included.
  clock.advance(microseconds(500));
  EXPECT_EQ(engine.pump(), 1u);
  for (const int r : {1, 3, 5}) {
    const auto idx = static_cast<std::size_t>(r);
    ServedResult served = futures[idx].get();
    EXPECT_EQ(served.batch_size, 3);
    EXPECT_TRUE(served.deadline_met);
    if (r == 1) {  // the injected fault really re-executed in this batch
      EXPECT_GE(served.session.total_retries(), 1);
    }
    SessionRunOptions run_opts;
    run_opts.faults = faults[idx];
    expect_identical(
        served.session,
        session.run(session.make_input(static_cast<std::uint64_t>(40 + r)),
                    run_opts),
        "shed-batch survivor " + std::to_string(r));
  }
  for (const int r : {0, 2, 4}) {
    EXPECT_THROW((void)futures[static_cast<std::size_t>(r)].get(),
                 DeadlineExceeded);
  }

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.shed, 3);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.deadline_hits, 3);
  EXPECT_DOUBLE_EQ(stats.deadline_attainment(), 0.5);
  expect_reconciled(stats);
}

// The original acceptance invariant, now under the default edf policy: a
// dynamically formed batch — including one whose deferred verification
// rewinds a row — produces exactly what BatchExecutor::run on the same
// grouping produces, which is itself pinned bit-identical to standalone
// sessions.
TEST_F(ServingTest, ResultsBitIdenticalToDirectExecutorOnSameGrouping) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.max_batch = 4;  // scheduler: edf (the default)
  // Global ABFT everywhere: every check defers, so the row-1 fault drains
  // behind the next layer's GEMM and rewinds inside the formed batch.
  engine.add_model("dlrm", plan(ProtectionPolicy::global_abft), policy);
  const auto& session = engine.session("dlrm");

  std::vector<BatchRequest> grouping(4);
  for (std::size_t r = 0; r < grouping.size(); ++r) {
    grouping[r].input = session.make_input(40 + r);
  }
  grouping[1].faults = {SessionFault{0, big_fault(), 0}};

  std::vector<std::future<ServedResult>> futures;
  for (auto& req : grouping) {
    futures.push_back(engine.submit("dlrm", req.input, req.faults));
  }
  EXPECT_EQ(engine.pump(), 1u);  // full batch: dispatched as one

  const BatchExecutor executor(session);
  const BatchResult direct = executor.run(grouping);
  EXPECT_GE(direct.stats.rewinds, 1);  // the fault really rewound in-batch
  for (std::size_t r = 0; r < futures.size(); ++r) {
    ServedResult served = futures[r].get();
    EXPECT_EQ(served.batch_size, 4);
    expect_identical(served.session, direct.requests[r],
                     "vs direct executor, row " + std::to_string(r));
    SessionRunOptions run_opts;
    run_opts.faults = grouping[r].faults;
    expect_identical(served.session,
                     session.run(grouping[r].input, run_opts),
                     "vs standalone session, row " + std::to_string(r));
  }
}

TEST_F(ServingTest, MultiModelShardingRoutesEachRequestToItsPlan) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_batch = 2;
  policy.max_delay = microseconds(0);
  engine.add_model("bottom", plan(), policy);
  engine.add_model("top", pipe_.plan(zoo::dlrm_mlp_top(1),
                                     ProtectionPolicy::intensity_guided),
                   policy);
  EXPECT_EQ(engine.models(), (std::vector<std::string>{"bottom", "top"}));
  EXPECT_EQ(engine.session("bottom").plan().model_name, "MLP-Bottom");
  EXPECT_EQ(engine.session("top").plan().model_name, "MLP-Top");

  std::vector<std::future<ServedResult>> bottom, top;
  for (int r = 0; r < 2; ++r) {
    bottom.push_back(engine.submit(
        "bottom", engine.session("bottom").make_input(60 + r)));
    top.push_back(engine.submit("top",
                                engine.session("top").make_input(70 + r)));
  }
  EXPECT_EQ(engine.pump(), 2u);  // one batch per model
  for (int r = 0; r < 2; ++r) {
    expect_identical(
        bottom[static_cast<std::size_t>(r)].get().session,
        engine.session("bottom").run(
            engine.session("bottom").make_input(60 + r)),
        "bottom row " + std::to_string(r));
    expect_identical(
        top[static_cast<std::size_t>(r)].get().session,
        engine.session("top").run(engine.session("top").make_input(70 + r)),
        "top row " + std::to_string(r));
  }
}

TEST_F(ServingTest, DrainFlushesBelowThresholdQueues) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.max_batch = 16;  // edf: hold knob and due point a minute away
  policy.max_delay = microseconds(60'000'000);
  policy.default_slo = microseconds(120'000'000);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");
  auto f = engine.submit("dlrm", session.make_input(5));
  EXPECT_EQ(engine.pump(), 0u);  // not due under the policy
  engine.drain();                // drain waives the hold policy
  EXPECT_EQ(f.get().batch_size, 1);
  EXPECT_EQ(engine.stats().queue_depth, 0);
}

// ----------------------------------------------- failure & stats paths ---

TEST_F(ServingTest, FailedBatchIsCountedAndDeliversTheError) {
  ManualClock clock;
  ServingEngine::Options opts = stepped_options(clock);
  opts.on_dispatch = [](const std::string& model, std::int64_t batch_size) {
    throw std::runtime_error("injected executor failure for " + model +
                             " batch of " + std::to_string(batch_size));
  };
  ServingEngine engine(std::move(opts));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_delay = microseconds(0);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  auto a = engine.submit("dlrm", session.make_input(1));
  auto b = engine.submit("dlrm", session.make_input(2));
  EXPECT_EQ(engine.pump(), 1u);  // the batch dispatched — and failed

  // The waiters get the error, not a hang and not a silent drop.
  EXPECT_THROW((void)a.get(), std::runtime_error);
  EXPECT_THROW((void)b.get(), std::runtime_error);

  // Regression: the failed batch used to vanish from the statistics —
  // completed never reconciled with submitted, the batch skipped
  // `batches` and the histogram. Now it is counted as `failed`.
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.batches, 1);
  ASSERT_EQ(stats.batch_size_hist.size(), 3u);
  EXPECT_EQ(stats.batch_size_hist[2], 1);
  EXPECT_EQ(stats.by_priority[priority_index(Priority::standard)].failed, 2);
  // Dispatched requests count toward the mean batch size even when the
  // batch failed; latency means stay safe (no completions yet).
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 2.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_execute_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.deadline_attainment(), 0.0);
  expect_reconciled(stats);
}

TEST_F(ServingTest, FailedBatchStillRecordsQueuePressure) {
  ManualClock clock;
  ServingEngine::Options opts = stepped_options(clock);
  opts.on_dispatch = [](const std::string&, std::int64_t) {
    throw std::runtime_error("injected executor failure");
  };
  ServingEngine engine(std::move(opts));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_delay = microseconds(0);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  auto a = engine.submit("dlrm", session.make_input(1));
  auto b = engine.submit("dlrm", session.make_input(2));
  clock.advance(microseconds(500));  // the wait is real before the failure
  EXPECT_EQ(engine.pump(), 1u);
  EXPECT_THROW((void)a.get(), std::runtime_error);
  EXPECT_THROW((void)b.get(), std::runtime_error);

  // Regression: the error path used to skip the queue aggregates, so queue
  // pressure was under-reported exactly when batches failed. Both failed
  // requests waited 500us; the aggregates must say so, and mean_queue_us
  // averages over completed + failed to match.
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 2);
  EXPECT_DOUBLE_EQ(stats.queue_us_total, 1000.0);
  EXPECT_DOUBLE_EQ(stats.queue_us_max, 500.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 500.0);
  expect_reconciled(stats);
}

// A closed batch runs through the same admission path as a continuous
// wave, so on_admit fires for it too. A throw mid-admission fails the
// whole wave — the admitted rows and the unadmitted tail — counts it once,
// and resets the shard's batch so the next batch is served bit-identically.
TEST_F(ServingTest, ClosedWaveAdmissionFailureFailsTheWholeWave) {
  ManualClock clock;
  bool fail = true;
  std::vector<std::int64_t> wave_sizes;
  ServingEngine::Options opts = stepped_options(clock);
  opts.on_admit = [&](const std::string& model, std::int64_t admitted,
                      std::int64_t wave_size) {
    if (admitted == 1) wave_sizes.push_back(wave_size);
    if (fail && admitted == 2) {
      throw std::runtime_error("injected admission failure in " + model);
    }
  };
  ServingEngine engine(std::move(opts));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_batch = 3;
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  std::vector<std::future<ServedResult>> doomed;
  for (int r = 0; r < 3; ++r) {
    doomed.push_back(engine.submit("dlrm", session.make_input(70 + r)));
  }
  clock.advance(microseconds(400));
  EXPECT_EQ(engine.pump(), 1u);
  for (auto& f : doomed) EXPECT_THROW((void)f.get(), std::runtime_error);

  const ServingStats failed = engine.stats();
  EXPECT_EQ(failed.submitted, 3);
  EXPECT_EQ(failed.completed, 0);
  EXPECT_EQ(failed.failed, 3);
  EXPECT_EQ(failed.batches, 1);
  ASSERT_EQ(failed.batch_size_hist.size(), 4u);
  EXPECT_EQ(failed.batch_size_hist[3], 1);
  EXPECT_EQ(failed.by_priority[priority_index(Priority::standard)].failed, 3);
  EXPECT_DOUBLE_EQ(failed.queue_us_total, 1200.0);  // every wait counted
  expect_reconciled(failed);

  fail = false;
  std::vector<std::future<ServedResult>> served;
  const std::vector<SessionFault> faults = {SessionFault{1, big_fault(), 0}};
  for (int r = 0; r < 3; ++r) {
    std::vector<SessionFault> request_faults;
    if (r == 1) request_faults = faults;
    served.push_back(
        engine.submit("dlrm", session.make_input(80 + r), request_faults));
  }
  EXPECT_EQ(engine.pump(), 1u);
  for (int r = 0; r < 3; ++r) {
    SessionRunOptions run_opts;
    if (r == 1) run_opts.faults = faults;
    const ServedResult result = served[static_cast<std::size_t>(r)].get();
    EXPECT_EQ(result.batch_size, 3);
    expect_identical(result.session,
                     session.run(session.make_input(80 + r), run_opts),
                     "post-failure row " + std::to_string(r));
  }
  EXPECT_EQ(wave_sizes, (std::vector<std::int64_t>{3, 3}));
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.failed, 3);
  EXPECT_EQ(stats.batches, 2);
  expect_reconciled(stats);
}

// A row still flagged after max_retries is served as completed — the
// ledger does not change — but counted as unrecovered, engine-wide and
// in its priority class, on closed and continuous shards alike.
TEST_F(ServingTest, UnrecoveredResultsAreCounted) {
  for (const bool continuous : {false, true}) {
    SCOPED_TRACE(continuous ? "continuous" : "closed");
    ManualClock clock;
    ServingEngine engine(stepped_options(clock));
    BatchPolicy policy;
    policy.continuous = continuous;
    policy.max_delay = microseconds(0);
    engine.add_model("dlrm", plan(), policy);
    const auto& session = engine.session("dlrm");

    std::vector<SessionFault> every_attempt;
    for (int a = 0; a <= session.options().max_retries; ++a) {
      every_attempt.push_back(SessionFault{1, big_fault(), a});
    }
    RequestOptions bulk;
    bulk.priority = Priority::bulk;
    auto clean = engine.submit("dlrm", session.make_input(90));
    auto stuck = engine.submit("dlrm", session.make_input(91), every_attempt,
                               bulk);
    EXPECT_EQ(engine.pump(), 1u);

    const ServedResult served = stuck.get();
    EXPECT_TRUE(served.session.layers[1].unrecovered);
    SessionRunOptions run_opts;
    run_opts.faults = every_attempt;
    expect_identical(served.session,
                     session.run(session.make_input(91), run_opts),
                     "unrecovered row");
    EXPECT_TRUE(clean.get().session.recovered());

    const ServingStats stats = engine.stats();
    EXPECT_EQ(stats.completed, 2);
    EXPECT_EQ(stats.unrecovered, 1);
    EXPECT_EQ(stats.by_priority[priority_index(Priority::bulk)].unrecovered,
              1);
    EXPECT_EQ(
        stats.by_priority[priority_index(Priority::standard)].unrecovered, 0);
    expect_reconciled(stats);
  }
}

// Comma decimal point + dot thousands grouping, as a custom facet so the
// test needs no system locale installed (the table suite's idiom).
class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST_F(ServingTest, ShedMessageIsLocaleIndependent) {
  // Regression: DeadlineExceeded::what() used to render its microsecond
  // figures through a default-locale ostringstream — a comma-decimal host
  // turned "200.25us" into "200,25us" (and grouped the queued time's
  // digits) the moment the process imbued the global locale. fmt_double
  // (std::to_chars) is locale-independent by specification.
  const std::locale old_global = std::locale::global(
      std::locale(std::locale::classic(), new CommaNumpunct));
  // Hostile C locale too, when the host has one installed (this is the
  // locale a printf-family formatter would have read).
  const std::string old_c = std::setlocale(LC_ALL, nullptr);
  bool c_switched = false;
  for (const char* name : {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE", "fr_FR"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      c_switched = true;
      break;
    }
  }

  const DeadlineExceeded shed("dlrm", Priority::standard,
                              /*queued_us=*/1250.5, /*late_us=*/200.25);
  const std::string what = shed.what();

  std::locale::global(old_global);
  if (c_switched) std::setlocale(LC_ALL, old_c.c_str());

  EXPECT_EQ(what,
            "deadline exceeded: standard request for 'dlrm' shed 200.25us "
            "past its deadline after 1250.50us queued");
  EXPECT_EQ(what.find(','), std::string::npos);
}

TEST_F(ServingTest, StatsAccessorsAreSafeOnAnEmptyEngine) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  const ServingStats stats = engine.stats();
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_execute_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.deadline_attainment(), 0.0);
  for (const auto& cls : stats.by_priority) {
    EXPECT_DOUBLE_EQ(cls.mean_latency_us(), 0.0);
    EXPECT_DOUBLE_EQ(cls.deadline_attainment(), 0.0);
  }
  expect_reconciled(stats);
}

// --------------------------------------------------------- threaded mode --

TEST_F(ServingTest, ThreadedEngineServesABurstBitIdentically) {
  ServingEngine::Options opts;  // threaded, real clock
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_batch = 8;
  policy.max_delay = microseconds(500);
  ServingEngine engine(opts);
  engine.add_model("dlrm", plan(ProtectionPolicy::intensity_guided), policy);
  const auto& session = engine.session("dlrm");

  constexpr int kRequests = 32;
  std::vector<std::future<ServedResult>> futures;
  std::vector<std::vector<SessionFault>> faults(kRequests);
  faults[5] = {SessionFault{1, big_fault(), 0}};
  faults[17] = {SessionFault{0, big_fault(1, 2), 0}};
  for (int r = 0; r < kRequests; ++r) {
    futures.push_back(engine.submit(
        "dlrm", session.make_input(static_cast<std::uint64_t>(100 + r)),
        faults[static_cast<std::size_t>(r)]));
  }
  engine.drain();
  for (int r = 0; r < kRequests; ++r) {
    SessionRunOptions run_opts;
    run_opts.faults = faults[static_cast<std::size_t>(r)];
    expect_identical(
        futures[static_cast<std::size_t>(r)].get().session,
        session.run(session.make_input(static_cast<std::uint64_t>(100 + r)),
                    run_opts),
        "threaded row " + std::to_string(r));
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.queue_depth, 0);
  std::int64_t hist_total = 0, hist_requests = 0;
  for (std::size_t b = 0; b < stats.batch_size_hist.size(); ++b) {
    hist_total += stats.batch_size_hist[b];
    hist_requests += stats.batch_size_hist[b] * static_cast<std::int64_t>(b);
  }
  EXPECT_EQ(hist_total, stats.batches);
  EXPECT_EQ(hist_requests, stats.completed);
  engine.shutdown();  // idempotent with the destructor
}

TEST_F(ServingTest, ThreadedEdfBurstWithPrioritiesStaysBitIdentical) {
  ServingEngine::Options opts;  // threaded, real clock
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 8;
  // Generous SLOs: this pins bit-identity and accounting under real EDF
  // traffic, not attainment (the fake-clock suites pin scheduling).
  policy.default_slo = std::chrono::seconds(30);
  policy.dispatch_margin = microseconds(1000);
  ServingEngine engine(opts);
  engine.add_model("dlrm", plan(ProtectionPolicy::intensity_guided), policy);
  const auto& session = engine.session("dlrm");

  constexpr int kRequests = 24;
  const Priority classes[3] = {Priority::interactive, Priority::standard,
                               Priority::bulk};
  std::vector<std::future<ServedResult>> futures;
  std::vector<std::vector<SessionFault>> faults(kRequests);
  faults[3] = {SessionFault{1, big_fault(), 0}};
  faults[14] = {SessionFault{0, big_fault(1, 2), 0}};
  for (int r = 0; r < kRequests; ++r) {
    RequestOptions req;
    req.priority = classes[r % 3];
    // Mixed explicit SLOs keep the EDF queue genuinely reordering.
    req.deadline = std::chrono::seconds(10 + (r % 5));
    futures.push_back(engine.submit(
        "dlrm", session.make_input(static_cast<std::uint64_t>(200 + r)),
        faults[static_cast<std::size_t>(r)], req));
  }
  engine.drain();
  for (int r = 0; r < kRequests; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    SessionRunOptions run_opts;
    run_opts.faults = faults[idx];
    const ServedResult served = futures[idx].get();
    EXPECT_EQ(served.priority, classes[r % 3]);
    expect_identical(
        served.session,
        session.run(session.make_input(static_cast<std::uint64_t>(200 + r)),
                    run_opts),
        "threaded edf row " + std::to_string(r));
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.shed, 0);  // SLOs were generous by construction
  for (const Priority p : classes) {
    EXPECT_EQ(stats.by_priority[priority_index(p)].submitted, kRequests / 3);
  }
  expect_reconciled(stats);
  engine.shutdown();
}

TEST_F(ServingTest, DrainRacingSubmitResolvesEveryRequest) {
  ServingEngine engine;  // threaded, real clock
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.max_batch = 4;
  policy.default_slo = std::chrono::seconds(30);  // nothing may shed
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  constexpr int kPerThread = 12;
  std::vector<std::future<ServedResult>> futures(2 * kPerThread);
  std::atomic<int> submitted{0};
  auto submitter = [&](int id) {
    for (int r = 0; r < kPerThread; ++r) {
      const int slot = id * kPerThread + r;
      futures[static_cast<std::size_t>(slot)] = engine.submit(
          "dlrm", session.make_input(static_cast<std::uint64_t>(slot)));
      submitted.fetch_add(1);
      std::this_thread::yield();
    }
  };
  std::thread s0(submitter, 0), s1(submitter, 1);
  // Race drain() against the in-flight submit storm: it must never hang,
  // crash, or strand a request, whatever subset of the traffic it sees.
  while (submitted.load() < 2 * kPerThread) {
    engine.drain();
  }
  s0.join();
  s1.join();
  engine.drain();  // now the queue is provably settled

  for (auto& f : futures) {
    EXPECT_GE(f.get().batch_size, 1);  // everything served, nothing shed
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2 * kPerThread);
  EXPECT_EQ(stats.completed, 2 * kPerThread);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.shed, 0);
  expect_reconciled(stats);
}

// drain() returns only once every request submitted before it has a
// settled future — also when the batcher thread, not drain(), ran the
// round that served it, and whichever shard kind served it.
TEST_F(ServingTest, DrainReturnsOnlyAfterEveryFutureIsSettled) {
  ServingEngine engine;  // threaded, real clock
  for (const bool continuous : {false, true}) {
    BatchPolicy policy;
    policy.continuous = continuous;
    policy.max_batch = 2;
    policy.max_delay = microseconds(0);
    policy.default_slo = std::chrono::seconds(30);  // nothing may shed
    engine.add_model(continuous ? "continuous" : "closed", plan(), policy);
  }
  const auto& session = engine.session("closed");
  for (int burst = 0; burst < 200; ++burst) {
    std::vector<std::future<ServedResult>> futures;
    for (int r = 0; r < 3; ++r) {
      for (const char* model : {"closed", "continuous"}) {
        futures.push_back(engine.submit(model, session.make_input(r)));
      }
    }
    engine.drain();
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "burst " << burst;
    }
  }
  expect_reconciled(engine.stats());
}

// ----------------------------------------------- lifecycle & validation --

TEST_F(ServingTest, ShutdownDrainsPendingRequests) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  engine.add_model("dlrm", plan());
  const auto& session = engine.session("dlrm");
  auto f = engine.submit("dlrm", session.make_input(9));
  engine.shutdown();
  EXPECT_EQ(f.get().batch_size, 1);  // served, not abandoned
  EXPECT_THROW((void)engine.submit("dlrm", session.make_input(1)),
               std::logic_error);
}

TEST_F(ServingTest, ShutdownShedsAlreadyExpiredRequests) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::edf;
  policy.default_slo = microseconds(100);
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");
  auto f = engine.submit("dlrm", session.make_input(9));
  clock.advance(microseconds(200));  // expired while the engine idled
  engine.shutdown();
  // Resolved (typed), not served late and not abandoned.
  EXPECT_THROW((void)f.get(), DeadlineExceeded);
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 0);
  expect_reconciled(stats);
}

TEST_F(ServingTest, AddModelFromPersistedPlanArtifact) {
  const std::string path = testing::TempDir() + "aift_serving_test.plan";
  save_plan(plan(), path);
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy;
  policy.scheduler = SchedulerKind::fifo;
  policy.max_delay = microseconds(0);
  engine.add_model_from_file("dlrm", path, policy);
  std::remove(path.c_str());
  const auto& session = engine.session("dlrm");
  auto f = engine.submit("dlrm", session.make_input(11));
  EXPECT_EQ(engine.pump(), 1u);
  expect_identical(f.get().session, session.run(session.make_input(11)),
                   "loaded-plan shard");
}

TEST_F(ServingTest, SubmitValidatesEagerly) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  engine.add_model("dlrm", plan());
  const auto& session = engine.session("dlrm");

  // Unknown model.
  EXPECT_THROW((void)engine.submit("nope", session.make_input(1)),
               std::logic_error);
  // Misshapen input.
  EXPECT_THROW((void)engine.submit(
                   "dlrm", Matrix<half_t>(session.input_rows(),
                                          session.input_cols() + 1)),
               std::logic_error);
  // Fault addressed past the last layer.
  EXPECT_THROW(
      (void)engine.submit("dlrm", session.make_input(1),
                          {SessionFault{session.num_layers(), big_fault(), 0}}),
      std::logic_error);
  // Fault addressed past the retry budget.
  EXPECT_THROW(
      (void)engine.submit(
          "dlrm", session.make_input(1),
          {SessionFault{0, big_fault(), session.options().max_retries + 1}}),
      std::logic_error);
  // Negative deadline.
  RequestOptions negative;
  negative.deadline = microseconds(-1);
  EXPECT_THROW(
      (void)engine.submit("dlrm", session.make_input(1), {}, negative),
      std::logic_error);
  // Priority cast abuse.
  RequestOptions bad_class;
  bad_class.priority = static_cast<Priority>(99);
  EXPECT_THROW(
      (void)engine.submit("dlrm", session.make_input(1), {}, bad_class),
      std::logic_error);
  // Nothing leaked into the queue.
  EXPECT_EQ(engine.stats().submitted, 0);
  EXPECT_EQ(engine.stats().queue_depth, 0);
}

TEST_F(ServingTest, RejectsBadConfigurations) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  engine.add_model("dlrm", plan());
  // Duplicate shard name.
  EXPECT_THROW(engine.add_model("dlrm", plan()), std::logic_error);
  // Degenerate policies.
  BatchPolicy zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(engine.add_model("bad", plan(), zero_batch), std::logic_error);
  BatchPolicy negative_delay;
  negative_delay.max_delay = microseconds(-1);
  EXPECT_THROW(engine.add_model("bad", plan(), negative_delay),
               std::logic_error);
  BatchPolicy zero_slo;
  zero_slo.default_slo = microseconds(0);
  EXPECT_THROW(engine.add_model("bad", plan(), zero_slo), std::logic_error);
  BatchPolicy negative_margin;
  negative_margin.dispatch_margin = microseconds(-1);
  EXPECT_THROW(engine.add_model("bad", plan(), negative_margin),
               std::logic_error);

  // pump() is the stepped-mode driver only.
  ServingEngine threaded;
  EXPECT_THROW((void)threaded.pump(), std::logic_error);
}

TEST_F(ServingTest, ThreadedEngineRejectsInjectedClock) {
  // Regression: this combination used to be accepted and silently produced
  // nonsense timing — the batcher thread sleeps in real time against fake
  // timestamps. The header documented the hazard; now the constructor
  // enforces it.
  ManualClock clock;
  ServingEngine::Options opts;
  opts.threaded = true;
  opts.clock = clock.fn();
  EXPECT_THROW(ServingEngine rejected(std::move(opts)), std::logic_error);
}

TEST_F(ServingTest, NamesRoundTrip) {
  EXPECT_STREQ(priority_name(Priority::interactive), "interactive");
  EXPECT_STREQ(priority_name(Priority::standard), "standard");
  EXPECT_STREQ(priority_name(Priority::bulk), "bulk");
  EXPECT_STREQ(scheduler_name(SchedulerKind::fifo), "fifo");
  EXPECT_STREQ(scheduler_name(SchedulerKind::edf), "edf");
}

TEST_F(ServingTest, EmptyEngineIsInert) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  EXPECT_EQ(engine.pump(), 0u);
  engine.drain();
  EXPECT_TRUE(engine.models().empty());
  engine.shutdown();
}

}  // namespace
}  // namespace aift
