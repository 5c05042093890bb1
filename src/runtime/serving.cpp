#include "runtime/serving.hpp"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "common/table.hpp"
#include "runtime/calibration_io.hpp"
#include "runtime/plan_io.hpp"

namespace aift {
namespace {

double us_between(ServingEngine::Clock::time_point from,
                  ServingEngine::Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

std::string describe_shed(const std::string& model, Priority priority,
                          double queued_us, double late_us) {
  // fmt_double, not a default-locale stream: DeadlineExceeded::what() is
  // user-facing text, and a comma-decimal locale would turn "250.5us"
  // into "250,5us" (or group digits) the moment the host process imbues
  // the global locale.
  return std::string("deadline exceeded: ") + priority_name(priority) +
         " request for '" + model + "' shed " + fmt_double(late_us) +
         "us past its deadline after " + fmt_double(queued_us) +
         "us queued";
}

}  // namespace

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::interactive:
      return "interactive";
    case Priority::standard:
      return "standard";
    case Priority::bulk:
      return "bulk";
  }
  return "unknown";
}

const char* scheduler_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::fifo:
      return "fifo";
    case SchedulerKind::edf:
      return "edf";
  }
  return "unknown";
}

DeadlineExceeded::DeadlineExceeded(std::string model, Priority priority,
                                   double queued_us, double late_us)
    : std::runtime_error(describe_shed(model, priority, queued_us, late_us)),
      model_(std::move(model)),
      priority_(priority),
      queued_us_(queued_us),
      late_us_(late_us) {}

ServingEngine::ServingEngine() : ServingEngine(Options{}) {}

ServingEngine::ServingEngine(Options opts) : opts_(std::move(opts)) {
  AIFT_CHECK_MSG(
      !(opts_.threaded && opts_.clock),
      "an injected clock requires stepped mode (Options::threaded = false): "
      "the batcher thread sleeps in real time, so fake timestamps would "
      "silently turn every due/deadline decision into nonsense");
  // The injected-clock seam itself: the ONE place a real clock may enter
  // the engine (threaded mode only — stepped mode rejects it above).
  // aift-lint: allow(nondeterminism)
  if (!opts_.clock) opts_.clock = [] { return Clock::now(); };
  if (opts_.threaded) batcher_ = std::thread([this] { batcher_loop(); });
}

ServingEngine::~ServingEngine() { shutdown(); }

void ServingEngine::add_model(const std::string& name, InferencePlan plan,
                              const BatchPolicy& policy,
                              const SessionOptions& session_opts) {
  AIFT_CHECK_MSG(policy.max_batch >= 1,
                 "model '" << name << "': max_batch must be >= 1, got "
                           << policy.max_batch);
  AIFT_CHECK_MSG(policy.max_delay.count() >= 0,
                 "model '" << name << "': max_delay must be >= 0");
  AIFT_CHECK_MSG(policy.default_slo.count() > 0,
                 "model '" << name << "': default_slo must be > 0");
  AIFT_CHECK_MSG(policy.dispatch_margin.count() >= 0,
                 "model '" << name << "': dispatch_margin must be >= 0");
  // Session instantiation (weight sampling, offline checksums) is the
  // expensive part — do it outside the engine lock.
  auto shard = std::make_unique<Shard>(name, std::move(plan), policy,
                                       session_opts, opts_.batch);
  MutexLock lock(mu_);
  AIFT_CHECK_MSG(accepting_, "cannot add_model after shutdown");
  const bool inserted = shards_.emplace(name, std::move(shard)).second;
  AIFT_CHECK_MSG(inserted, "model '" << name << "' is already registered");
}

void ServingEngine::add_model_from_file(const std::string& name,
                                        const std::string& path,
                                        const BatchPolicy& policy,
                                        const SessionOptions& session_opts,
                                        const std::string& calibration_path) {
  // Load both artifacts before touching the engine, so a corrupt
  // calibration file cannot leave a half-registered model behind.
  InferencePlan plan = load_plan(path);
  std::optional<CalibrationTable> calib;
  if (!calibration_path.empty()) calib = load_calibration(calibration_path);
  add_model(name, std::move(plan), policy, session_opts);
  if (calib.has_value()) {
    MutexLock lock(mu_);
    shards_.at(name)->calibration = std::move(calib);
  }
}

std::vector<std::string> ServingEngine::models() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) names.push_back(name);
  return names;
}

const InferenceSession& ServingEngine::session(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = shards_.find(name);
  AIFT_CHECK_MSG(it != shards_.end(), "unknown model '" << name << "'");
  return it->second->session;
}

const CalibrationTable* ServingEngine::calibration(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = shards_.find(name);
  AIFT_CHECK_MSG(it != shards_.end(), "unknown model '" << name << "'");
  return it->second->calibration.has_value() ? &*it->second->calibration
                                             : nullptr;
}

std::future<ServedResult> ServingEngine::submit(
    const std::string& model, Matrix<half_t> input,
    std::vector<SessionFault> faults, const RequestOptions& req) {
  AIFT_CHECK_MSG(priority_index(req.priority) < kNumPriorityClasses,
                 "invalid priority class "
                     << static_cast<int>(req.priority));
  AIFT_CHECK_MSG(req.deadline.count() >= 0,
                 "deadline must be >= 0 (0 = the model's default_slo), got "
                     << req.deadline.count() << "us");

  UniqueLock lock(mu_);
  AIFT_CHECK_MSG(accepting_, "submit after shutdown");
  const auto it = shards_.find(model);
  AIFT_CHECK_MSG(it != shards_.end(), "unknown model '" << model << "'");
  Shard& shard = *it->second;

  // Validate here, where the error names one request, instead of letting a
  // malformed request fail a whole dynamically formed batch.
  const InferenceSession& session = shard.session;
  AIFT_CHECK_MSG(
      input.rows() == session.input_rows() &&
          input.cols() == session.input_cols(),
      "model '" << model << "': input is " << input.rows() << "x"
                << input.cols() << ", plan expects " << session.input_rows()
                << "x" << session.input_cols());
  for (const auto& f : faults) {
    AIFT_CHECK_MSG(f.layer < session.num_layers(),
                   "model '" << model << "': fault targets layer " << f.layer
                             << ", plan has " << session.num_layers()
                             << " layers");
    AIFT_CHECK_MSG(
        f.execution >= 0 && f.execution <= session.options().max_retries,
        "model '" << model << "': fault targets execution attempt "
                  << f.execution << ", but attempts are 0.."
                  << session.options().max_retries
                  << " under the retry budget");
  }

  Pending pending;
  pending.input = std::move(input);
  pending.faults = std::move(faults);
  pending.enqueued = now();
  pending.deadline =
      pending.enqueued + (req.deadline.count() > 0 ? req.deadline
                                                   : shard.policy.default_slo);
  pending.priority = req.priority;
  pending.seq = next_seq_++;
  std::future<ServedResult> future = pending.promise.get_future();
  shard.arrivals.emplace(pending.seq, pending.enqueued);

  if (shard.policy.scheduler == SchedulerKind::edf) {
    // Keep the queue most-urgent-first. upper_bound keeps equal keys in
    // submit order — though seq already makes every key unique.
    const auto more_urgent = [](const Pending& a, const Pending& b) {
      return std::tie(a.deadline, a.priority, a.seq) <
             std::tie(b.deadline, b.priority, b.seq);
    };
    const auto pos = std::upper_bound(shard.queue.begin(), shard.queue.end(),
                                      pending, more_urgent);
    shard.queue.insert(pos, std::move(pending));
  } else {
    shard.queue.push_back(std::move(pending));
  }

  ++stats_.submitted;
  ++stats_.by_priority[priority_index(req.priority)].submitted;
  ++stats_.queue_depth;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth,
                                    stats_.queue_depth);
  lock.unlock();
  work_cv_.notify_one();
  return future;
}

bool ServingEngine::idle_locked() const {
  if (shed_unresolved_ != 0) return false;
  for (const auto& [name, shard] : shards_) {
    if (shard->stepping || !shard->queue.empty()) return false;
  }
  return true;
}

ServingEngine::Clock::time_point ServingEngine::next_due_locked(
    const Shard& shard) const {
  // max_delay is the batching hold knob under both schedulers, measured
  // from the *oldest* pending request — under edf that is not the front
  // (the queue is deadline-sorted, so a loose-deadline early request can
  // sit behind a younger urgent one), hence the arrivals index. edf
  // additionally dispatches *earlier* when the most urgent request nears
  // its deadline; holding until deadline - margin alone would
  // procrastinate at low load and convert hold time into misses.
  const Clock::time_point oldest = shard.arrivals.begin()->second;
  Clock::time_point due = oldest + shard.policy.max_delay;
  if (shard.policy.scheduler == SchedulerKind::edf) {
    due = std::min(
        due, shard.queue.front().deadline - shard.policy.dispatch_margin);
  }
  return due;
}

ServingEngine::Formed ServingEngine::form_due_locked(Clock::time_point at,
                                                     bool force) {
  Formed formed;

  // Shedding pass: on an edf shard the queue is deadline-sorted, so the
  // expired requests are exactly a prefix. They are popped even under
  // force — drain/shutdown resolve them as DeadlineExceeded rather than
  // spending executor time on requests that already missed. Their stats
  // are recorded here, under the lock, so a waiter that wakes on the
  // future sees them counted; the promises resolve later, off-lock.
  for (auto& [name, shard] : shards_) {
    if (shard->policy.scheduler != SchedulerKind::edf) continue;
    auto& queue = shard->queue;
    while (!queue.empty() && queue.front().deadline < at) {
      Shed shed;
      shed.model = shard->name;
      shed.queued_us = us_between(queue.front().enqueued, at);
      shed.late_us = us_between(queue.front().deadline, at);
      shed.pending = std::move(queue.front());
      queue.pop_front();
      shard->arrivals.erase(shed.pending.seq);
      --stats_.queue_depth;
      ++stats_.shed;
      ++stats_.by_priority[priority_index(shed.pending.priority)].shed;
      ++shed_unresolved_;  // promise resolves off-lock; drain() must wait
      formed.shed.push_back(std::move(shed));
    }
  }

  // Among all due shards, serve the one that had to dispatch earliest
  // (next_due_locked — commensurable across schedulers, where comparing
  // a fifo head's enqueue time against an edf head's deadline would let
  // any due fifo shard outrank an arbitrarily urgent edf shard), the
  // head's priority class and then submit order breaking ties.
  // Deterministic: seq is engine-wide and unique, and the shard map's
  // name order fixes the iteration. Picking the first due shard instead
  // would let sustained traffic on one model starve another model's
  // urgent requests indefinitely.
  //
  // A shard with rows in flight is *always* due — it must keep stepping
  // so its rows retire — ranked at `at` so an overdue batch elsewhere
  // still goes first. The hold policy only governs starting an idle
  // shard.
  const auto urgency = [this, at](const Shard& s) {
    if (s.queue.empty()) {
      // Step-only round: no head to compare, least urgent at this instant.
      return std::make_tuple(at, Priority::bulk,
                             std::numeric_limits<std::uint64_t>::max());
    }
    const Pending& head = s.queue.front();
    Clock::time_point due = next_due_locked(s);
    if (!s.live.empty()) due = std::min(due, at);
    return std::make_tuple(due, head.priority, head.seq);
  };
  Shard* chosen = nullptr;
  for (auto& [name, shard] : shards_) {
    // A thread is mid-round on this shard; its queue will be looked at
    // again when the round completes and re-notifies the batcher.
    if (shard->stepping) continue;
    const auto& queue = shard->queue;
    if (shard->live.empty()) {
      if (queue.empty()) continue;
      const BatchPolicy& policy = shard->policy;
      const bool full = static_cast<std::int64_t>(queue.size()) >=
                        policy.max_batch;
      const bool due = at >= next_due_locked(*shard);
      if (!(force || full || due)) continue;
    }
    if (chosen == nullptr || urgency(*shard) < urgency(*chosen)) {
      chosen = shard.get();
    }
  }
  if (chosen == nullptr) return formed;

  formed.shard = chosen;
  auto& queue = chosen->queue;
  // Admission capacity is all that tells the two kinds of shard apart: a
  // continuous wave tops the open batch back up to max_batch rows, a
  // closed batch is admitted only into an idle shard. Either wave may be
  // empty — a step-only round that advances the rows in flight.
  const auto live = static_cast<std::int64_t>(chosen->live.size());
  std::int64_t capacity = live == 0 ? chosen->policy.max_batch : 0;
  if (chosen->policy.continuous) capacity = chosen->policy.max_batch - live;
  const std::size_t n =
      std::min(queue.size(), static_cast<std::size_t>(capacity));
  formed.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    formed.requests.push_back(std::move(queue.front()));
    queue.pop_front();
    chosen->arrivals.erase(formed.requests.back().seq);
  }
  stats_.queue_depth -= static_cast<std::int64_t>(n);
  chosen->stepping = true;
  return formed;
}

void ServingEngine::resolve_shed(std::vector<Shed> shed) {
  if (shed.empty()) return;
  for (auto& s : shed) {
    s.pending.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        std::move(s.model), s.pending.priority, s.queued_us, s.late_us)));
  }
  {
    MutexLock lock(mu_);
    shed_unresolved_ -= static_cast<std::int64_t>(shed.size());
  }
  idle_cv_.notify_all();
}

ServingEngine::DispatchOutcome ServingEngine::dispatch_due(
    UniqueLock& lock, bool force) {
  DispatchOutcome outcome;
  Formed formed = form_due_locked(now(), force);
  const bool execute = formed.shard != nullptr;
  // A step-only round advances in-flight rows but admits nothing new —
  // progress (any), not a batch.
  outcome.batch = execute && !formed.requests.empty();
  outcome.any = execute || !formed.shed.empty();
  // !outcome.any implies form_due_locked returned no shard and no sheds,
  // so `formed` is provably empty here — there is no promise to drop.
  // aift-analyze: allow(promise-ledger)
  if (!outcome.any) return outcome;
  lock.unlock();
  std::vector<Shed> shed = std::move(formed.shed);
  formed.shed.clear();
  resolve_shed(std::move(shed));
  if (execute) run_round(std::move(formed));
  lock.lock();
  return outcome;
}

void ServingEngine::run_round(Formed formed) {
  Shard& shard = *formed.shard;
  const auto wave_size = static_cast<std::int64_t>(formed.requests.size());

  // Admit the wave at the current layer boundary and advance the shard's
  // batch one step. `stepping` gives this thread exclusive ownership of
  // `batch` and `live` until it is cleared under the lock below.
  const Clock::time_point admitted_at = now();
  std::exception_ptr error;
  bool batch_touched = false;  // the throw came after the dispatch hook
  std::size_t admitted = 0;    // rows moved into shard.live so far
  std::vector<std::pair<std::int64_t, SessionResult>> retired;
  try {
    if (wave_size > 0 && opts_.on_dispatch) {
      opts_.on_dispatch(shard.name, wave_size);
    }
    batch_touched = true;
    const std::int64_t cohort =
        static_cast<std::int64_t>(shard.live.size()) + wave_size;
    for (auto& pending : formed.requests) {
      BatchRequest request;
      request.input = std::move(pending.input);
      request.faults = std::move(pending.faults);
      const std::int64_t id = shard.batch.admit(std::move(request));
      shard.live.emplace(
          id, Shard::LiveRow{std::move(pending), admitted_at, cohort});
      ++admitted;
      if (opts_.on_admit) {
        opts_.on_admit(shard.name, static_cast<std::int64_t>(admitted),
                       wave_size);
      }
    }
    shard.batch.step();
    retired = shard.batch.take_finished();
  } catch (...) {
    // submit() validation makes this unreachable short of an engine bug
    // or a throwing hook. A dispatch-hook throw fails only its wave:
    // nothing was admitted, so the rows in flight are untouched. A later
    // throw leaves the batch not safely resumable, so every in-flight row
    // fails too and the shard's batch resets.
    error = std::current_exception();
  }
  const Clock::time_point finished_at = now();

  struct Settled {
    std::promise<ServedResult> promise;
    ServedResult served;
  };
  std::vector<Settled> settled;
  const auto settle = [&](Shard::LiveRow row, SessionResult session) {
    ServedResult served;
    served.session = std::move(session);
    served.queue_us = us_between(row.request.enqueued, row.admitted);
    served.execute_us = us_between(row.admitted, finished_at);
    served.batch_size = row.cohort;
    served.priority = row.request.priority;
    served.deadline_met = finished_at <= row.request.deadline;
    settled.push_back(
        Settled{std::move(row.request.promise), std::move(served)});
  };
  if (error) {
    if (batch_touched) {
      for (auto& [id, row] : shard.live) settle(std::move(row), {});
      shard.live.clear();
      shard.batch = ContinuousBatch(shard.session, opts_.batch);
    }
    // Rows the throw cut off before admission never reached shard.live
    // but still hold their promises: settle them with the same error, or
    // their callers hang and submitted == completed + failed + shed +
    // queue_depth stops reconciling.
    for (std::size_t r = admitted; r < formed.requests.size(); ++r) {
      settle(Shard::LiveRow{std::move(formed.requests[r]), admitted_at, 0},
             {});
    }
  } else {
    for (auto& [id, session] : retired) {
      auto it = shard.live.find(id);
      AIFT_CHECK_MSG(it != shard.live.end(),
                     "retired row " << id << " has no live bookkeeping");
      settle(std::move(it->second), std::move(session));
      shard.live.erase(it);
    }
  }

  // Record stats BEFORE fulfilling the promises: a caller that wakes on
  // future.get() and immediately reads stats() must see its request
  // counted — including a failed one.
  {
    MutexLock lock(mu_);
    if (wave_size > 0) {
      ++stats_.batches;
      if (static_cast<std::int64_t>(stats_.batch_size_hist.size()) <=
          wave_size) {
        stats_.batch_size_hist.resize(static_cast<std::size_t>(wave_size) + 1,
                                      0);
      }
      ++stats_.batch_size_hist[static_cast<std::size_t>(wave_size)];
    }
    for (const auto& s : settled) {
      const ServedResult& r = s.served;
      auto& cls = stats_.by_priority[priority_index(r.priority)];
      // The wait was real even when the round failed: mean_queue_us
      // averages over completed + failed to match.
      stats_.queue_us_total += r.queue_us;
      stats_.queue_us_max = std::max(stats_.queue_us_max, r.queue_us);
      if (error) {
        ++stats_.failed;
        ++cls.failed;
        continue;
      }
      const double latency = r.queue_us + r.execute_us;
      ++stats_.completed;
      ++cls.completed;
      (r.deadline_met ? ++stats_.deadline_hits : ++stats_.deadline_misses);
      (r.deadline_met ? ++cls.deadline_hits : ++cls.deadline_misses);
      if (!r.session.recovered()) {
        ++stats_.unrecovered;
        ++cls.unrecovered;
      }
      stats_.execute_us_total += r.execute_us;
      stats_.execute_us_max = std::max(stats_.execute_us_max, r.execute_us);
      cls.latency_us_total += latency;
      cls.latency_us_max = std::max(cls.latency_us_max, latency);
    }
  }

  for (auto& s : settled) {
    if (error) {
      s.promise.set_exception(error);
    } else {
      s.promise.set_value(std::move(s.served));
    }
  }

  // The round is over only now that its futures are settled: a drain()
  // that sees the shard idle may return, and its caller may read them.
  // Wake the batcher (it skipped this shard while stepping) and any
  // drain()/shutdown() waiter.
  {
    MutexLock lock(mu_);
    shard.stepping = false;
  }
  work_cv_.notify_one();
  idle_cv_.notify_all();
}

std::size_t ServingEngine::pump() {
  AIFT_CHECK_MSG(!opts_.threaded,
                 "pump() drives stepped engines only; a threaded engine's "
                 "batcher dispatches on its own");
  std::size_t dispatched = 0;
  UniqueLock lock(mu_);
  for (;;) {
    const DispatchOutcome outcome = dispatch_due(lock, /*force=*/false);
    if (outcome.batch) ++dispatched;
    if (!outcome.any) return dispatched;
  }
}

std::int64_t ServingEngine::pump_step() {
  AIFT_CHECK_MSG(!opts_.threaded,
                 "pump_step() drives stepped engines only; a threaded "
                 "engine's batcher dispatches on its own");
  UniqueLock lock(mu_);
  (void)dispatch_due(lock, /*force=*/false);
  std::int64_t live = 0;
  for (const auto& [name, shard] : shards_) {
    live += static_cast<std::int64_t>(shard->live.size());
  }
  return live;
}

void ServingEngine::drain() {
  // Mode-independent: steal force-flushed rounds onto the calling thread
  // (the hold policy is waived, max_batch still caps each batch; expired
  // edf requests shed), then wait for any round another thread still has
  // in flight — or any shed another thread popped but has not yet
  // resolved (shed_unresolved_: those futures are no longer pending but
  // not yet settled either). A shard with rows in flight and no round
  // running is always due, so once nothing is due, idle means settled.
  UniqueLock lock(mu_);
  for (;;) {
    if (!dispatch_due(lock, /*force=*/true).any) {
      if (idle_locked()) return;
      idle_cv_.wait(lock.native());
    }
  }
}

void ServingEngine::shutdown() {
  std::thread batcher;
  {
    MutexLock lock(mu_);
    accepting_ = false;
    stop_ = true;
    // Claim the thread under the lock: of two concurrent shutdown()
    // calls (say, an explicit one racing the destructor) only one may
    // join it.
    batcher = std::move(batcher_);
  }
  work_cv_.notify_all();
  if (batcher.joinable()) batcher.join();
  // Threaded: the batcher exits only once every queue is empty, but a
  // concurrent drain() may still hold batches in flight; stepped: nothing
  // has run since the last pump. Either way drain() settles it.
  drain();
}

ServingStats ServingEngine::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ServingEngine::batcher_loop() {
  UniqueLock lock(mu_);
  for (;;) {
    if (dispatch_due(lock, /*force=*/stop_).any) continue;
    if (stop_) return;

    // Sleep until the next scheduling event (next_due_locked: the oldest
    // request aging past max_delay, or — edf — the most urgent request
    // nearing its deadline; shedding needs no separate wake, an expired
    // request is popped by the formation pass that follows any wake). A
    // submit/shutdown notification cuts the sleep short.
    bool have_deadline = false;
    Clock::time_point deadline{};
    for (const auto& [name, shard] : shards_) {
      // A stepping shard's queue cannot be served until its round ends —
      // the round's completion notifies work_cv_, so it needs no timed
      // wake here. Counting it would spin: its head is already due (the
      // dispatch pass skipped it only because of the round in flight), so
      // `remaining <= 0 -> continue` would loop WITHOUT RELEASING mu_,
      // and the round thread could never relock to clear `stepping`.
      if (shard->queue.empty() || shard->stepping) continue;
      const Clock::time_point d = next_due_locked(*shard);
      if (!have_deadline || d < deadline) {
        have_deadline = true;
        deadline = d;
      }
    }
    if (have_deadline) {
      const auto remaining = deadline - now();
      if (remaining <= Clock::duration::zero()) continue;
      work_cv_.wait_for(lock.native(), remaining);
    } else {
      work_cv_.wait(lock.native());
    }
  }
}

}  // namespace aift
