// Continuous-batching tests, executor and serving layer. The load-bearing
// facts:
//
//  - ContinuousBatch admission at layer boundaries never changes a row's
//    SessionResult: rows joining and leaving mid-flight — at heterogeneous
//    layer cursors, so one step() runs several stacked GEMM groups — stay
//    bit-identical to standalone InferenceSession::run, parallel or
//    serial.
//  - A row retires in the step that runs its last layer, and a flagged
//    check recovering in the step a new row joins touches only the
//    faulted row.
//  - ServingEngine's continuous mode (BatchPolicy::continuous) admits
//    queued requests into the in-flight batch at boundaries under the
//    scheduler's order; EDF still sheds an expired request even when the
//    open batch has capacity for it; a failing admission wave poisons
//    only that wave; a mid-wave engine failure resolves every promise,
//    including the wave's not-yet-admitted tail; and the stats ledger
//    (submitted == completed + failed + shed + queue_depth) holds at
//    quiescence.
//
// CTest runs this binary additionally pinned to AIFT_NUM_THREADS=1/2/8
// (continuous_determinism_threads_*), like the executor/serving suites —
// making join/leave interleaving independence an explicit any-worker-count
// determinism fact.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/zoo/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/serving.hpp"
#include "session_result_testing.hpp"

namespace aift {
namespace {

using std::chrono::microseconds;

Model tiny_mlp() {
  ModelBuilder b("TinyMLP", /*batch=*/4, /*in_features=*/24);
  b.linear("fc1", 32);
  b.linear("fc2", 24);
  b.linear("fc3", 12);
  return std::move(b).build();
}

// Manually advanced time source for stepped engines (the serving suite's
// idiom). Starts at a fixed epoch, not the wall clock: the tests assert
// on durations, never on absolute times, and a fixed origin keeps every
// run bit-identical.
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
  EXPECT_EQ(stats.completed, stats.deadline_hits + stats.deadline_misses);
}

// ------------------------------------------------------ executor layer --

class ContinuousExecutorTest : public ::testing::Test {
 protected:
  [[nodiscard]] InferenceSession make_session(ProtectionPolicy policy,
                                              SessionOptions opts = {}) const {
    return InferenceSession(pipe_.plan(model_, policy), opts);
  }

  [[nodiscard]] static BatchRequest make_request(
      const InferenceSession& session, std::uint64_t seed,
      std::vector<SessionFault> faults = {}) {
    BatchRequest request;
    request.input = session.make_input(seed);
    request.faults = std::move(faults);
    return request;
  }

  GemmCostModel cost_{devices::t4()};
  ProtectedPipeline pipe_{cost_};
  Model model_ = tiny_mlp();
};

// The headline invariant: rows admitted at different step boundaries —
// so one step() spans heterogeneous layer cursors — retire bit-identical
// to standalone runs, for every policy and parallel or serial execution.
TEST_F(ContinuousExecutorTest, StaggeredAdmissionMatchesStandaloneRuns) {
  for (const auto policy :
       {ProtectionPolicy::none, ProtectionPolicy::global_abft,
        ProtectionPolicy::thread_level, ProtectionPolicy::repl_single_acc,
        ProtectionPolicy::intensity_guided}) {
    const auto session = make_session(policy);
    const BatchExecutor executor(session);
    // Row 1 faults layer 0; row 3 faults layer 2 twice (attempt 0 + the
    // first retry) — the executor suite's fault pattern, here spread
    // across admission waves.
    const std::vector<BatchRequest> requests = {
        make_request(session, 100),
        make_request(session, 101, {SessionFault{0, big_fault(), 0}}),
        make_request(session, 102),
        make_request(session, 103, {SessionFault{2, big_fault(1, 2), 0},
                                    SessionFault{2, big_fault(2, 1), 1}}),
    };
    for (const bool parallel : {true, false}) {
      BatchOptions opts;
      opts.parallel = parallel;
      ContinuousBatch cont = executor.begin(opts);
      // Waves: {0, 1} at step 0, {2} one boundary later, {3} another
      // boundary later — three cursor groups in flight at once.
      (void)cont.admit(requests[0]);
      (void)cont.admit(requests[1]);
      cont.step();
      (void)cont.admit(requests[2]);
      cont.step();
      (void)cont.admit(requests[3]);
      int guard = 0;
      while (!cont.idle()) {
        cont.step();
        ASSERT_LT(++guard, 64) << "continuous batch failed to quiesce";
      }
      const auto finished = cont.take_finished();
      ASSERT_EQ(finished.size(), requests.size());
      for (const auto& [id, result] : finished) {
        SessionRunOptions sopts;
        sopts.faults = requests[static_cast<std::size_t>(id)].faults;
        sopts.parallel = parallel;
        const auto want = session.run(
            requests[static_cast<std::size_t>(id)].input, sopts);
        expect_identical(result, want,
                         std::string(policy_name(policy)) +
                             (parallel ? "/par" : "/ser") + "/row" +
                             std::to_string(id));
      }
    }
  }
}

// A row leaves the batch in the step that runs its last layer: on an
// all-global plan, B rows admitted together are idle after exactly
// num_layers steps, each retiring bit-identical to its standalone run.
TEST_F(ContinuousExecutorTest, RowRetiresWithItsLastLayer) {
  const auto session = make_session(ProtectionPolicy::global_abft);
  const BatchExecutor executor(session);
  const std::vector<BatchRequest> requests = {
      make_request(session, 7), make_request(session, 8),
      make_request(session, 9)};

  ContinuousBatch cont = executor.begin();
  for (const auto& request : requests) (void)cont.admit(request);
  for (std::size_t i = 0; i + 1 < session.num_layers(); ++i) {
    cont.step();
    EXPECT_EQ(cont.in_flight(), static_cast<std::int64_t>(requests.size()))
        << "after step " << i;
  }
  cont.step();
  EXPECT_TRUE(cont.idle());

  const auto finished = cont.take_finished();
  ASSERT_EQ(finished.size(), requests.size());
  for (const auto& [id, result] : finished) {
    expect_identical(result,
                     session.run(requests[static_cast<std::size_t>(id)].input),
                     "row " + std::to_string(id));
  }
}

// A flagged row recovers while a newly admitted row executes its first
// layer in the same batch: the recovery must touch only the faulted row.
TEST_F(ContinuousExecutorTest, RewindRacesANewlyAdmittedRow) {
  const auto session = make_session(ProtectionPolicy::global_abft);
  const BatchExecutor executor(session);
  const auto faulty =
      make_request(session, 21, {SessionFault{0, big_fault(), 0}});
  const auto joiner = make_request(session, 22);

  ContinuousBatch cont = executor.begin();
  (void)cont.admit(faulty);
  cont.step();  // layer 0 executes (faulted), flags and recovers
  (void)cont.admit(joiner);
  // This step runs two GEMM groups: the recovered row at layer 1, the
  // joiner at layer 0.
  cont.step();
  while (!cont.idle()) cont.step();

  const auto finished = cont.take_finished();
  ASSERT_EQ(finished.size(), 2u);
  for (const auto& [id, result] : finished) {
    const auto& request = id == 0 ? faulty : joiner;
    SessionRunOptions sopts;
    sopts.faults = request.faults;
    expect_identical(result, session.run(request.input, sopts),
                     "recover-vs-join row " + std::to_string(id));
  }
}

// Parallel and serial continuous execution agree bit for bit — stats
// included — under staggered admission.
TEST_F(ContinuousExecutorTest, ParallelAndSerialContinuousAgree) {
  const auto session = make_session(ProtectionPolicy::intensity_guided);
  const BatchExecutor executor(session);
  const std::vector<BatchRequest> requests = {
      make_request(session, 31, {SessionFault{1, big_fault(), 0}}),
      make_request(session, 32),
      make_request(session, 33),
  };
  std::vector<std::vector<std::pair<std::int64_t, SessionResult>>> results;
  std::vector<BatchStats> stats;
  for (const bool parallel : {true, false}) {
    BatchOptions opts;
    opts.parallel = parallel;
    ContinuousBatch cont = executor.begin(opts);
    (void)cont.admit(requests[0]);
    cont.step();
    (void)cont.admit(requests[1]);
    (void)cont.admit(requests[2]);
    while (!cont.idle()) cont.step();
    results.push_back(cont.take_finished());
    stats.push_back(cont.stats());
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(results[0][i].first, results[1][i].first);
    expect_identical(results[0][i].second, results[1][i].second,
                     "par-vs-ser row " + std::to_string(results[0][i].first));
  }
  EXPECT_EQ(stats[0], stats[1]);
}

// admit() validates like run_from: a malformed request is rejected at the
// boundary it would join, not after poisoning the open batch.
TEST_F(ContinuousExecutorTest, AdmitValidatesEagerly) {
  const auto session = make_session(ProtectionPolicy::global_abft);
  const BatchExecutor executor(session);
  ContinuousBatch cont = executor.begin();

  BatchRequest bad_shape;
  bad_shape.input = Matrix<half_t>(1, 3);
  EXPECT_THROW((void)cont.admit(bad_shape), std::logic_error);

  BatchRequest bad_fault = make_request(session, 40);
  bad_fault.faults = {SessionFault{session.num_layers(), big_fault(), 0}};
  EXPECT_THROW((void)cont.admit(bad_fault), std::logic_error);

  BatchRequest bad_attempt = make_request(session, 41);
  bad_attempt.faults = {
      SessionFault{0, big_fault(), session.options().max_retries + 1}};
  EXPECT_THROW((void)cont.admit(bad_attempt), std::logic_error);

  // The open batch survives the rejections.
  (void)cont.admit(make_request(session, 42));
  while (!cont.idle()) cont.step();
  const auto finished = cont.take_finished();
  ASSERT_EQ(finished.size(), 1u);
  expect_identical(finished.front().second,
                   session.run(session.make_input(42)), "survivor");
}

// ------------------------------------------------------- serving layer --

class ContinuousServingTest : public ::testing::Test {
 protected:
  [[nodiscard]] InferencePlan plan(
      ProtectionPolicy policy = ProtectionPolicy::global_abft) const {
    return pipe_.plan(zoo::dlrm_mlp_bottom(1), policy);
  }

  [[nodiscard]] static BatchPolicy continuous_policy(
      SchedulerKind scheduler = SchedulerKind::fifo) {
    BatchPolicy policy;
    policy.continuous = true;
    policy.scheduler = scheduler;
    policy.max_delay = microseconds(0);  // never hold an idle shard
    return policy;
  }

  GemmCostModel cost_{devices::t4()};
  ProtectedPipeline pipe_{cost_};
};

// Requests submitted between pump_step() boundaries join the in-flight
// batch mid-flight — and every served result stays bit-identical to a
// standalone run, with batch_size reporting each row's admission cohort.
TEST_F(ContinuousServingTest, MidFlightJoinIsBitIdentical) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  engine.add_model("dlrm", plan(), continuous_policy());
  const auto& session = engine.session("dlrm");

  auto a = engine.submit("dlrm", session.make_input(1));
  auto b = engine.submit("dlrm", session.make_input(2),
                         {SessionFault{0, big_fault(), 0}});
  // First round: wave {a, b} admitted and stepped one layer.
  std::int64_t live = engine.pump_step();
  EXPECT_EQ(live, 2);
  EXPECT_EQ(engine.stats().batches, 1);

  // A late arrival joins at the next boundary instead of waiting for the
  // batch to retire.
  auto c = engine.submit("dlrm", session.make_input(3));
  live = engine.pump_step();
  EXPECT_EQ(live, 3);
  EXPECT_EQ(engine.stats().batches, 2);

  int guard = 0;
  while (engine.pump_step() > 0) {
    ASSERT_LT(++guard, 64) << "continuous shard failed to quiesce";
  }

  const ServedResult ra = a.get();
  const ServedResult rb = b.get();
  const ServedResult rc = c.get();
  expect_identical(ra.session, session.run(session.make_input(1)), "row a");
  {
    SessionRunOptions sopts;
    sopts.faults = {SessionFault{0, big_fault(), 0}};
    expect_identical(rb.session, session.run(session.make_input(2), sopts),
                     "row b (rewound mid-flight)");
  }
  expect_identical(rc.session, session.run(session.make_input(3)), "row c");
  // batch_size is the in-flight cohort right after each admission wave.
  EXPECT_EQ(ra.batch_size, 2);
  EXPECT_EQ(rb.batch_size, 2);
  EXPECT_EQ(rc.batch_size, 3);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.batches, 2);  // two non-empty waves; step-only rounds free
  ASSERT_GE(stats.batch_size_hist.size(), 3u);
  EXPECT_EQ(stats.batch_size_hist[1], 1);
  EXPECT_EQ(stats.batch_size_hist[2], 1);
  expect_reconciled(stats);
}

// A faulted request recovering in the batch a newly admitted request
// joins — the serving-level race the executor suite pins in isolation —
// leaves both results bit-identical.
TEST_F(ContinuousServingTest, RewindRacesAdmissionThroughTheEngine) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  engine.add_model("dlrm", plan(), continuous_policy());
  const auto& session = engine.session("dlrm");

  // The faulted layer-0 check flags and recovers in the first round; the
  // joiner's first layer runs beside the faulted row's second.
  auto faulty = engine.submit("dlrm", session.make_input(11),
                              {SessionFault{0, big_fault(), 0}});
  EXPECT_EQ(engine.pump_step(), 1);
  auto joiner = engine.submit("dlrm", session.make_input(12));
  EXPECT_EQ(engine.pump_step(), 2);
  while (engine.pump_step() > 0) {
  }

  SessionRunOptions sopts;
  sopts.faults = {SessionFault{0, big_fault(), 0}};
  expect_identical(faulty.get().session,
                   session.run(session.make_input(11), sopts), "faulty row");
  expect_identical(joiner.get().session,
                   session.run(session.make_input(12)), "joining row");
  expect_reconciled(engine.stats());
}

// EDF sheds an expired request even though the open batch has capacity
// for it: a request that would have joined mid-flight resolves to
// DeadlineExceeded instead of burning a boundary slot it can no longer
// meet.
TEST_F(ContinuousServingTest, EdfShedsARequestThatWouldHaveJoined) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  engine.add_model("dlrm", plan(), continuous_policy(SchedulerKind::edf));
  const auto& session = engine.session("dlrm");

  auto a = engine.submit("dlrm", session.make_input(21));
  auto b = engine.submit("dlrm", session.make_input(22));
  EXPECT_EQ(engine.pump_step(), 2);

  // The latecomer's 300us SLO expires before the next boundary.
  RequestOptions req;
  req.deadline = microseconds(300);
  auto late = engine.submit("dlrm", session.make_input(23), {}, req);
  clock.advance(microseconds(500));
  EXPECT_EQ(engine.pump_step(), 2);  // shed, not joined: still 2 in flight

  try {
    (void)late.get();
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.model(), "dlrm");
    EXPECT_DOUBLE_EQ(e.queued_us(), 500.0);
    EXPECT_DOUBLE_EQ(e.late_us(), 200.0);
  }

  while (engine.pump_step() > 0) {
  }
  expect_identical(a.get().session, session.run(session.make_input(21)),
                   "row a");
  expect_identical(b.get().session, session.run(session.make_input(22)),
                   "row b");

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.shed, 1);
  expect_reconciled(stats);
}

// A throwing admission hook fails only its wave: the rows already in
// flight are untouched and retire bit-identical — and the failed wave's
// queue time still lands in the aggregates (the stats-hole fix, pinned on
// the continuous path).
TEST_F(ContinuousServingTest, FailedWavePoisonsOnlyTheWave) {
  ManualClock clock;
  bool fail_dispatch = false;
  ServingEngine::Options opts = stepped_options(clock);
  opts.on_dispatch = [&fail_dispatch](const std::string& model,
                                      std::int64_t batch_size) {
    if (fail_dispatch) {
      throw std::runtime_error("injected wave failure for " + model +
                               " wave of " + std::to_string(batch_size));
    }
  };
  ServingEngine engine(std::move(opts));
  engine.add_model("dlrm", plan(), continuous_policy());
  const auto& session = engine.session("dlrm");

  auto a = engine.submit("dlrm", session.make_input(31));
  auto b = engine.submit("dlrm", session.make_input(32));
  EXPECT_EQ(engine.pump_step(), 2);

  fail_dispatch = true;
  auto doomed = engine.submit("dlrm", session.make_input(33));
  clock.advance(microseconds(500));
  EXPECT_EQ(engine.pump_step(), 2);  // the wave failed; a and b fly on
  EXPECT_THROW((void)doomed.get(), std::runtime_error);

  fail_dispatch = false;
  while (engine.pump_step() > 0) {
  }
  expect_identical(a.get().session, session.run(session.make_input(31)),
                   "surviving row a");
  expect_identical(b.get().session, session.run(session.make_input(32)),
                   "surviving row b");

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.batches, 2);  // wave {a,b} + the failed wave {doomed}
  // The doomed request queued 500us before its wave failed; the fix
  // records that wait instead of under-reporting queue pressure exactly
  // when dispatches fail.
  EXPECT_DOUBLE_EQ(stats.queue_us_total, 500.0);
  EXPECT_DOUBLE_EQ(stats.queue_us_max, 500.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_us(), 500.0 / 3.0);
  expect_reconciled(stats);
}

// A mid-wave engine failure (injected through on_admit, the only
// supported seam) resolves *every* promise: the rows already admitted,
// the rows of earlier waves still in flight, and — the regression this
// pins — the wave's not-yet-admitted tail, which never reaches the
// shard's live map. Before the fix the tail's futures hung forever and
// submitted == completed + failed + shed + queue_depth stopped
// reconciling (aift-analyze promise-ledger finding).
TEST_F(ContinuousServingTest, MidWaveFailureResolvesUnadmittedTail) {
  ManualClock clock;
  bool fail_mid_wave = false;
  ServingEngine::Options opts = stepped_options(clock);
  opts.on_admit = [&fail_mid_wave](const std::string& model,
                                   std::int64_t admitted,
                                   std::int64_t wave_size) {
    if (fail_mid_wave && admitted == 2) {
      throw std::runtime_error("injected engine failure in " + model +
                               " after 2/" + std::to_string(wave_size) +
                               " admissions");
    }
  };
  ServingEngine engine(std::move(opts));
  BatchPolicy policy = continuous_policy();
  policy.max_batch = 8;
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  // Wave 1: two healthy rows join and advance a step.
  auto a = engine.submit("dlrm", session.make_input(61));
  auto b = engine.submit("dlrm", session.make_input(62));
  EXPECT_EQ(engine.pump_step(), 2);

  // Wave 2: three rows; the injected failure fires after the second
  // admission, so w2 is the wave's un-admitted tail.
  fail_mid_wave = true;
  auto w0 = engine.submit("dlrm", session.make_input(63));
  auto w1 = engine.submit("dlrm", session.make_input(64));
  auto w2 = engine.submit("dlrm", session.make_input(65));
  EXPECT_EQ(engine.pump_step(), 0);  // the open batch reset

  // The open batch is not safely resumable, so every future resolves
  // with the injected error — in-flight a/b, admitted w0/w1, and the
  // un-admitted w2.
  EXPECT_THROW((void)a.get(), std::runtime_error);
  EXPECT_THROW((void)b.get(), std::runtime_error);
  EXPECT_THROW((void)w0.get(), std::runtime_error);
  EXPECT_THROW((void)w1.get(), std::runtime_error);
  EXPECT_THROW((void)w2.get(), std::runtime_error);

  const ServingStats after = engine.stats();
  EXPECT_EQ(after.submitted, 5);
  EXPECT_EQ(after.completed, 0);
  EXPECT_EQ(after.failed, 5);
  EXPECT_EQ(after.queue_depth, 0);
  expect_reconciled(after);

  // The shard's batch was reset, so the engine keeps serving.
  fail_mid_wave = false;
  auto c = engine.submit("dlrm", session.make_input(66));
  while (engine.pump_step() > 0) {
  }
  expect_identical(c.get().session, session.run(session.make_input(66)),
                   "post-failure row");
  expect_reconciled(engine.stats());
}

// drain() settles an open batch: force rounds keep admitting and stepping
// until every row retires, whatever mix of waves is in flight.
TEST_F(ContinuousServingTest, DrainSettlesAnOpenBatch) {
  ManualClock clock;
  ServingEngine engine(stepped_options(clock));
  BatchPolicy policy = continuous_policy();
  policy.max_batch = 4;  // several waves' worth of requests
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  std::vector<std::future<ServedResult>> futures;
  for (int r = 0; r < 10; ++r) {
    futures.push_back(engine.submit("dlrm", session.make_input(40 + r)));
  }
  (void)engine.pump_step();  // leave rows mid-flight on purpose
  engine.drain();

  for (int r = 0; r < 10; ++r) {
    expect_identical(futures[static_cast<std::size_t>(r)].get().session,
                     session.run(session.make_input(40 + r)),
                     "drained row " + std::to_string(r));
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.queue_depth, 0);
  expect_reconciled(stats);
}

// The threaded batcher drives continuous rounds end to end: a burst wider
// than max_batch flows through mid-flight admission under real threads,
// every result bit-identical, ledger reconciled. (The TSan CI job runs
// this suite too.)
TEST_F(ContinuousServingTest, ThreadedContinuousBurstIsBitIdentical) {
  ServingEngine engine;  // threaded, real clock
  BatchPolicy policy = continuous_policy();
  policy.max_batch = 4;
  policy.default_slo = microseconds(10'000'000);  // generous: no misses
  engine.add_model("dlrm", plan(), policy);
  const auto& session = engine.session("dlrm");

  std::vector<std::future<ServedResult>> futures;
  for (int r = 0; r < 16; ++r) {
    std::vector<SessionFault> faults;
    if (r % 5 == 1) faults = {SessionFault{0, big_fault(), 0}};
    futures.push_back(
        engine.submit("dlrm", session.make_input(60 + r), faults));
  }
  engine.drain();

  for (int r = 0; r < 16; ++r) {
    SessionRunOptions sopts;
    if (r % 5 == 1) sopts.faults = {SessionFault{0, big_fault(), 0}};
    expect_identical(futures[static_cast<std::size_t>(r)].get().session,
                     session.run(session.make_input(60 + r), sopts),
                     "threaded row " + std::to_string(r));
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 16);
  EXPECT_EQ(stats.shed, 0);
  expect_reconciled(stats);
  engine.shutdown();
}

}  // namespace
}  // namespace aift
