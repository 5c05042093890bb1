// Seeded schedule exploration of the stepped ServingEngine.
//
// Stepped mode (Options::threaded = false, an injected clock, and
// pump()/pump_step()/drain()) makes every scheduling decision a
// deterministic function of the call sequence. So a seeded generator of
// call sequences explores the engine's schedules the way a fuzzer explores
// inputs. Each sequence drives one engine that serves a closed and a
// continuous shard through submits (priority, deadline, faults), clock
// advances, pump, pump_step, drain, injected admission failures
// (Options::on_admit) and shutdown. After every operation it checks:
//
//  - the ledger: submitted == completed + failed + shed + queue_depth +
//    rows in flight, and each counter (unrecovered included) equals the
//    number of futures that resolved that way;
//  - the batch counters: the histogram holds one entry per non-empty wave,
//    and its sizes add up to every request that entered a wave;
//  - every resolved future carries a typed outcome: a result bit-identical
//    to standalone InferenceSession::run, DeadlineExceeded, or the
//    injected failure. No request is shed before its deadline.
//
// At the end of a sequence every future must have resolved. A failing
// sequence shrinks to a minimal one by dropping one operation at a time
// and is printed as a replayable Config plus op list for run_sequence().
//
// The environment variable AIFT_EXPLORER_SEEDS overrides the seed budget
// (default 1000).

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/model.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/serving.hpp"
#include "session_result_testing.hpp"

namespace aift {
namespace {

using std::chrono::microseconds;
using Clock = ServingEngine::Clock;

constexpr int kPoolInputs = 4;
constexpr int kFaultSets = 4;
constexpr int kModels = 2;  // 0: closed shard, 1: continuous shard
const char* const kModelNames[kModels] = {"closed", "continuous"};
constexpr std::int64_t kDefaultSloUs = 3000;

// The failure the on_admit hook injects: a typed outcome of its own, so an
// engine fault that surfaces as some other exception is told apart.
class InjectedFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Manually advanced time source (the serving suites' idiom).
struct ManualClock {
  std::shared_ptr<Clock::time_point> now_ =
      std::make_shared<Clock::time_point>(Clock::time_point{} +
                                          std::chrono::hours(1));

  [[nodiscard]] ServingEngine::ClockFn fn() const {
    auto now = now_;
    return [now] { return *now; };
  }
  void advance(microseconds d) { *now_ += d; }
};

// Fault set 0 is clean, 1 and 2 are recovered single faults on either
// layer, 3 faults every attempt of layer 1 so that a checked layer stays
// unrecovered.
std::vector<SessionFault> fault_set(int which, int max_retries) {
  switch (which) {
    case 1:
      return {SessionFault{0, big_fault(), 0}};
    case 2:
      return {SessionFault{1, big_fault(), 0}};
    case 3: {
      std::vector<SessionFault> faults;
      for (int attempt = 0; attempt <= max_retries; ++attempt) {
        faults.push_back(SessionFault{1, big_fault(), attempt});
      }
      return faults;
    }
    default:
      return {};
  }
}

// Plans, input pools and references, built once per process.
struct Shared {
  InferencePlan plans[kModels];
  std::vector<Matrix<half_t>> inputs[kModels];
  SessionResult refs[kModels][kPoolInputs][kFaultSets];
  int max_retries = 0;
};

const Shared& shared() {
  static const Shared s = [] {
    Shared out;
    GemmCostModel cost{devices::t4()};
    ProtectedPipeline pipe{cost};
    ModelBuilder b("tiny", 1, 64);
    b.linear("fc1", 64).linear("fc2", 32);
    const Model model = std::move(b).build();
    out.plans[0] = pipe.plan(model, ProtectionPolicy::intensity_guided);
    out.plans[1] = pipe.plan(model, ProtectionPolicy::global_abft);
    for (int m = 0; m < kModels; ++m) {
      const InferenceSession session(out.plans[m]);
      out.max_retries = session.options().max_retries;
      for (int i = 0; i < kPoolInputs; ++i) {
        out.inputs[m].push_back(
            session.make_input(100 + static_cast<std::uint64_t>(i)));
        for (int f = 0; f < kFaultSets; ++f) {
          SessionRunOptions ropts;
          ropts.faults = fault_set(f, out.max_retries);
          out.refs[m][i][f] = session.run(out.inputs[m].back(), ropts);
        }
      }
    }
    return out;
  }();
  return s;
}

// Per-sequence engine configuration.
struct Config {
  bool edf[kModels] = {true, true};
  std::int64_t max_batch[kModels] = {3, 3};
  std::int64_t max_delay_us[kModels] = {400, 0};
};

enum class OpKind {
  submit,
  advance,
  pump,
  pump_step,
  drain,
  fail_admit,
  shutdown,
};
constexpr int kOpKinds = static_cast<int>(OpKind::shutdown) + 1;

struct Op {
  OpKind kind = OpKind::pump;
  int model = 0;     ///< submit: 0 closed, 1 continuous
  int input = 0;     ///< submit: pool index
  int faults = 0;    ///< submit: fault_set index
  int priority = 1;  ///< submit: Priority value
  /// submit: relative deadline (0 = the default SLO); advance: step.
  std::int64_t us = 0;
  /// fail_admit: the next on_admit call whose admitted count reaches this
  /// throws InjectedFailure.
  int fail_at = 1;
};

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::submit: return "submit";
    case OpKind::advance: return "advance";
    case OpKind::pump: return "pump";
    case OpKind::pump_step: return "pump_step";
    case OpKind::drain: return "drain";
    case OpKind::fail_admit: return "fail_admit";
    case OpKind::shutdown: return "shutdown";
  }
  return "?";
}

std::string replayable(const Config& cfg, const std::vector<Op>& ops) {
  std::ostringstream os;
  os << std::boolalpha << "Config cfg{{" << cfg.edf[0] << ", " << cfg.edf[1]
     << "}, {" << cfg.max_batch[0] << ", " << cfg.max_batch[1] << "}, {"
     << cfg.max_delay_us[0] << ", " << cfg.max_delay_us[1] << "}};\n"
     << "std::vector<Op> ops = {\n";
  for (const Op& op : ops) {
    os << "    {OpKind::" << kind_name(op.kind) << ", " << op.model << ", "
       << op.input << ", " << op.faults << ", " << op.priority << ", "
       << op.us << ", " << op.fail_at << "},\n";
  }
  os << "};\nrun_sequence(cfg, ops);\n";
  return os.str();
}

std::pair<Config, std::vector<Op>> generate(std::uint64_t seed) {
  Rng rng(derive_seed(0x5C4ED01EULL, seed));
  Config cfg;
  for (int m = 0; m < kModels; ++m) {
    cfg.edf[m] = rng.uniform_int(0, 3) != 0;
    cfg.max_batch[m] = rng.uniform_int(1, 4);
    cfg.max_delay_us[m] = rng.uniform_int(0, 1) * 400;
  }
  static constexpr std::int64_t kDeadlines[] = {0, 0, 250, 1000, 5000};
  static constexpr std::int64_t kAdvances[] = {50, 200, 700, 2500};
  std::vector<Op> ops(static_cast<std::size_t>(rng.uniform_int(4, 40)));
  for (Op& op : ops) {
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 38) {
      op.kind = OpKind::submit;
      op.model = static_cast<int>(rng.uniform_int(0, kModels - 1));
      op.input = static_cast<int>(rng.uniform_int(0, kPoolInputs - 1));
      op.faults = static_cast<int>(rng.uniform_int(0, kFaultSets - 1));
      op.priority = static_cast<int>(rng.uniform_int(0, 2));
      op.us = kDeadlines[rng.uniform_int(0, 4)];
    } else if (roll < 52) {
      op.kind = OpKind::advance;
      op.us = kAdvances[rng.uniform_int(0, 3)];
    } else if (roll < 64) {
      op.kind = OpKind::pump;
    } else if (roll < 85) {
      op.kind = OpKind::pump_step;
    } else if (roll < 91) {
      op.kind = OpKind::drain;
    } else if (roll < 98) {
      op.kind = OpKind::fail_admit;
      op.fail_at = static_cast<int>(rng.uniform_int(1, 2));
    } else {
      op.kind = OpKind::shutdown;
    }
  }
  return {cfg, std::move(ops)};
}

struct Tracked {
  std::future<ServedResult> future;
  int model = 0;
  int input = 0;
  int faults = 0;
  Clock::time_point submitted;
  Clock::time_point deadline;
  double slo_us = 0.0;
  bool resolved = false;
};

struct Tally {
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t shed = 0;
  std::int64_t unrecovered = 0;  ///< completed with a layer still flagged
};

// Consumes every newly resolved future and checks the engine's counters
// against what the futures say. Empty when every invariant holds.
std::string check(const ServingEngine& engine, std::vector<Tracked>& tracked,
                  Tally& tally, std::int64_t in_flight, Clock::time_point now) {
  const Shared& s = shared();
  std::int64_t unresolved = 0;
  for (std::size_t r = 0; r < tracked.size(); ++r) {
    Tracked& t = tracked[r];
    if (t.resolved) continue;
    if (t.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++unresolved;
      continue;
    }
    t.resolved = true;
    const std::string who = "request " + std::to_string(r) + " (" +
                            kModelNames[t.model] + ")";
    try {
      const ServedResult served = t.future.get();
      ++tally.completed;
      if (!served.session.recovered()) ++tally.unrecovered;
      const std::string d =
          result_diff(served.session, s.refs[t.model][t.input][t.faults]);
      if (!d.empty()) return who + ": served result not bit-identical: " + d;
      if (served.deadline_met != (now <= t.deadline)) {
        return who + ": deadline_met disagrees with the clock";
      }
      if (served.batch_size < 1) return who + ": batch_size < 1";
    } catch (const DeadlineExceeded& e) {
      ++tally.shed;
      const double queued = std::chrono::duration<double, std::micro>(
                                now - t.submitted)
                                .count();
      if (!(e.late_us() > 0.0)) return who + ": shed before its deadline";
      if (e.queued_us() != queued || e.queued_us() - e.late_us() != t.slo_us) {
        return who + ": DeadlineExceeded timing disagrees with the clock";
      }
    } catch (const InjectedFailure&) {
      ++tally.failed;
    } catch (const std::exception& e) {
      return who + ": untyped outcome: " + e.what();
    }
  }

  const ServingStats st = engine.stats();
  std::ostringstream err;
  if (st.submitted != st.completed + st.failed + st.shed + st.queue_depth +
                          in_flight) {
    err << "ledger: submitted " << st.submitted << " != completed "
        << st.completed << " + failed " << st.failed << " + shed " << st.shed
        << " + queue_depth " << st.queue_depth << " + in flight " << in_flight;
  } else if (st.submitted != static_cast<std::int64_t>(tracked.size())) {
    err << "submitted " << st.submitted << " != " << tracked.size()
        << " submits";
  } else if (st.completed != tally.completed || st.failed != tally.failed ||
             st.shed != tally.shed || st.unrecovered != tally.unrecovered) {
    err << "counters (completed " << st.completed << ", failed " << st.failed
        << ", shed " << st.shed << ", unrecovered " << st.unrecovered
        << ") disagree with the futures (" << tally.completed << ", "
        << tally.failed << ", " << tally.shed << ", " << tally.unrecovered
        << ")";
  } else if (unresolved != st.queue_depth + in_flight) {
    err << unresolved << " unresolved futures, but queue_depth "
        << st.queue_depth << " + in flight " << in_flight;
  } else if (st.completed != st.deadline_hits + st.deadline_misses) {
    err << "completed != deadline hits + misses";
  } else if (st.max_queue_depth < st.queue_depth) {
    err << "max_queue_depth below queue_depth";
  }
  if (!err.str().empty()) return err.str();

  std::int64_t waves = 0, wave_rows = 0;
  for (std::size_t b = 0; b < st.batch_size_hist.size(); ++b) {
    waves += st.batch_size_hist[b];
    wave_rows += st.batch_size_hist[b] * static_cast<std::int64_t>(b);
  }
  if (!st.batch_size_hist.empty() && st.batch_size_hist[0] != 0) {
    return "histogram counts an empty wave";
  }
  if (waves != st.batches) return "histogram total != batches";
  if (wave_rows != st.completed + st.failed + in_flight) {
    return "histogram rows " + std::to_string(wave_rows) +
           " != completed + failed + in flight";
  }
  PriorityClassStats sum;
  for (const PriorityClassStats& cls : st.by_priority) {
    sum.submitted += cls.submitted;
    sum.completed += cls.completed;
    sum.failed += cls.failed;
    sum.shed += cls.shed;
    if (cls.completed != cls.deadline_hits + cls.deadline_misses) {
      return "class completed != class deadline hits + misses";
    }
  }
  if (sum.submitted != st.submitted || sum.completed != st.completed ||
      sum.failed != st.failed || sum.shed != st.shed) {
    return "per-class counters do not add up to the totals";
  }
  return {};
}

// Runs one sequence on a fresh engine. Empty when every invariant held
// after every operation and every future resolved by the end; the
// outcomes are then added to `*outcomes` when given.
std::string run_sequence(const Config& cfg, const std::vector<Op>& ops,
                         Tally* outcomes = nullptr) {
  const Shared& s = shared();
  ManualClock clock;
  auto armed = std::make_shared<int>(0);
  ServingEngine::Options opts;
  opts.threaded = false;
  opts.clock = clock.fn();
  opts.on_admit = [armed](const std::string& model, std::int64_t admitted,
                          std::int64_t) {
    if (*armed > 0 && admitted >= *armed) {
      *armed = 0;
      throw InjectedFailure("injected admission failure in " + model);
    }
  };
  ServingEngine engine(std::move(opts));
  for (int m = 0; m < kModels; ++m) {
    BatchPolicy policy;
    policy.continuous = m == 1;
    policy.scheduler = cfg.edf[m] ? SchedulerKind::edf : SchedulerKind::fifo;
    policy.max_batch = cfg.max_batch[m];
    policy.max_delay = microseconds(cfg.max_delay_us[m]);
    policy.default_slo = microseconds(kDefaultSloUs);
    policy.dispatch_margin = microseconds(200);
    engine.add_model(kModelNames[m], s.plans[m], policy);
  }

  std::vector<Tracked> tracked;
  Tally tally;
  std::int64_t in_flight = 0;
  bool shut_down = false;
  for (std::size_t i = 0; i < ops.size() && !shut_down; ++i) {
    const Op& op = ops[i];
    try {
      switch (op.kind) {
        case OpKind::submit: {
          Tracked t;
          t.model = op.model;
          t.input = op.input;
          t.faults = op.faults;
          t.submitted = *clock.now_;
          t.slo_us = static_cast<double>(op.us > 0 ? op.us : kDefaultSloUs);
          t.deadline = t.submitted + microseconds(op.us > 0 ? op.us
                                                            : kDefaultSloUs);
          RequestOptions req;
          req.priority = static_cast<Priority>(op.priority);
          req.deadline = microseconds(op.us);
          t.future = engine.submit(kModelNames[op.model],
                                   s.inputs[op.model][op.input],
                                   fault_set(op.faults, s.max_retries), req);
          tracked.push_back(std::move(t));
          break;
        }
        case OpKind::advance:
          clock.advance(microseconds(op.us));
          break;
        case OpKind::pump:
          (void)engine.pump();
          in_flight = 0;
          break;
        case OpKind::pump_step:
          in_flight = engine.pump_step();
          break;
        case OpKind::drain:
          engine.drain();
          in_flight = 0;
          break;
        case OpKind::fail_admit:
          *armed = op.fail_at;
          break;
        case OpKind::shutdown:
          engine.shutdown();
          in_flight = 0;
          shut_down = true;
          break;
      }
    } catch (const std::exception& e) {
      return "op " + std::to_string(i) + " (" + kind_name(op.kind) +
             ") threw: " + e.what();
    }
    const std::string err = check(engine, tracked, tally, in_flight,
                                  *clock.now_);
    if (!err.empty()) {
      return "after op " + std::to_string(i) + " (" + kind_name(op.kind) +
             "): " + err;
    }
  }
  if (!shut_down) {
    engine.shutdown();
    in_flight = 0;
    const std::string err = check(engine, tracked, tally, 0, *clock.now_);
    if (!err.empty()) return "after the final shutdown: " + err;
  }
  for (std::size_t r = 0; r < tracked.size(); ++r) {
    if (!tracked[r].resolved) {
      return "request " + std::to_string(r) + " never resolved";
    }
  }
  if (outcomes != nullptr) {
    outcomes->completed += tally.completed;
    outcomes->failed += tally.failed;
    outcomes->shed += tally.shed;
    outcomes->unrecovered += tally.unrecovered;
  }
  return {};
}

// Drops one operation at a time while the sequence still fails.
std::vector<Op> shrink(const Config& cfg, std::vector<Op> ops) {
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> fewer = ops;
      fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
      if (!run_sequence(cfg, fewer).empty()) {
        ops = std::move(fewer);
        progress = true;
        break;
      }
    }
  }
  return ops;
}

std::uint64_t seed_budget() {
  if (const char* env = std::getenv("AIFT_EXPLORER_SEEDS")) {
    char* end = nullptr;
    const long long n = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && n > 0) {
      return static_cast<std::uint64_t>(n);
    }
  }
  return 1000;
}

TEST(ScheduleExplorer, SeededSchedulesKeepEveryInvariant) {
  const std::uint64_t budget = seed_budget();
  Tally outcomes;
  int kinds[kOpKinds] = {};
  int models[kModels] = {};
  for (std::uint64_t seed = 0; seed < budget; ++seed) {
    const auto [cfg, ops] = generate(seed);
    for (const Op& op : ops) {
      ++kinds[static_cast<int>(op.kind)];
      if (op.kind == OpKind::submit) ++models[op.model];
    }
    const std::string err = run_sequence(cfg, ops, &outcomes);
    if (err.empty()) continue;
    const std::vector<Op> minimal = shrink(cfg, ops);
    FAIL() << "seed " << seed << ": " << err << "\nshrunk from " << ops.size()
           << " to " << minimal.size() << " ops (" << run_sequence(cfg, minimal)
           << "); replay:\n"
           << replayable(cfg, minimal);
  }
  // The budget reaches every operation, both shards and every outcome
  // class, not only served results.
  for (int k = 0; k < kOpKinds; ++k) {
    EXPECT_GT(kinds[k], 0) << kind_name(static_cast<OpKind>(k));
  }
  for (int m = 0; m < kModels; ++m) EXPECT_GT(models[m], 0) << kModelNames[m];
  EXPECT_GT(outcomes.completed, 0);
  EXPECT_GT(outcomes.failed, 0);
  EXPECT_GT(outcomes.shed, 0);
  EXPECT_GT(outcomes.unrecovered, 0);
  std::printf(
      "explored %llu sequences: %lld served (%lld unrecovered), %lld failed, "
      "%lld shed\n",
      static_cast<unsigned long long>(budget),
      static_cast<long long>(outcomes.completed),
      static_cast<long long>(outcomes.unrecovered),
      static_cast<long long>(outcomes.failed),
      static_cast<long long>(outcomes.shed));
}

}  // namespace
}  // namespace aift
