#include "service/gcgt_service.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/fault_injector.h"

namespace gcgt {

namespace {

AdmissionQueueOptions QueueOptionsFrom(const ServiceOptions& options) {
  AdmissionQueueOptions q;
  q.capacity = options.queue_capacity;
  q.edf = options.qos.edf;
  q.shed_target = options.qos.shed_target;
  q.shed_interval = options.qos.shed_interval;
  return q;
}

}  // namespace

GcgtService::GcgtService(const ServiceOptions& options)
    : options_(options), queue_(QueueOptionsFrom(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_bytes,
                                           options_.cache_shards);
  }
  // Arm chaos externally (GCGT_FAULT_SEED / GCGT_FAULT_RATE); no-op unless
  // both are set, and once-only so repeated service constructions never
  // reset the deterministic ordinal sequence mid-run.
  FaultInjector::InitFromEnv();
  slots_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (options_.qos.watchdog_interval.count() > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

GcgtService::~GcgtService() { Shutdown(); }

void GcgtService::Shutdown() {
  // call_once makes Shutdown idempotent AND safe to race: concurrent callers
  // (including the destructor) block until the winner finishes draining, so
  // no caller returns while workers are still running. Submissions racing
  // with shutdown either make it into the queue (drained, future fulfilled)
  // or see the closed queue and fail fast with Unavailable — AdmissionQueue
  // guarantees a false Push never consumes the item. The watchdog is joined
  // AFTER the drain: hedges it dispatches into the closed queue fail
  // harmlessly (TryPush kClosed releases the attempt).
  std::call_once(shutdown_once_, [&] {
    queue_.Close();  // workers drain the accepted jobs, then exit
    for (std::thread& worker : workers_) worker.join();
    if (watchdog_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(watchdog_mu_);
        watchdog_stop_ = true;
      }
      watchdog_cv_.notify_all();
      watchdog_.join();
    }
  });
}

Result<uint64_t> GcgtService::RegisterGraph(const Graph& graph,
                                            const PrepareOptions& options) {
  const uint64_t fingerprint = ComputeArtifactFingerprint(graph, options);
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (auto it = registry_.find(fingerprint); it != registry_.end()) {
      // Dedup trusts the 64-bit fingerprint (~2^-64 per accidental pair;
      // adversarial multi-tenant inputs are out of scope). This cheap shape
      // check turns the likeliest collision symptom — a DIFFERENT graph
      // mapping to a registered artifact — into an error instead of
      // silently serving the wrong graph's results.
      if (it->second->num_query_nodes() != graph.num_nodes()) {
        return Status::Internal(
            "artifact fingerprint collision: a different graph is already "
            "registered under this fingerprint");
      }
      return fingerprint;  // no re-encode
    }
  }
  // Encode OUTSIDE the registry lock so serving and other registrations
  // proceed meanwhile. Two concurrent first registrations of one artifact
  // can both encode; the loser's copy is dropped (correctness is unaffected
  // — the pipeline is deterministic — and registration is a startup-path
  // operation; the steady-state guarantee is "re-registering never
  // re-encodes").
  auto built = PreparedGraph::Build(graph, options, fingerprint);
  if (!built.ok()) return built.status();
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto [it, inserted] =
      registry_.try_emplace(fingerprint, std::move(built.value()));
  if (!inserted && it->second->num_query_nodes() != graph.num_nodes()) {
    // A concurrent first registration won the slot with a DIFFERENT graph:
    // the same collision guard as the fast path above.
    return Status::Internal(
        "artifact fingerprint collision: a different graph is already "
        "registered under this fingerprint");
  }
  return fingerprint;
}

Result<uint64_t> GcgtService::RegisterContainer(
    const std::string& path, const GcgtOptions& options,
    ooc::CgrContainer::ReadMode mode) {
  Result<ooc::CgrContainer> container = ooc::CgrContainer::Open(path, mode);
  if (!container.ok()) return container.status();
  ooc::CgrContainer& c = container.value();
  const NodeId container_nodes = c.num_nodes();
  // Registry key = the header's stored artifact fingerprint folded with the
  // serving options. The stored fingerprint already identifies graph bytes,
  // encode options and partition plan; folding `options` keeps one container
  // registered under two budgets (or cost models) as two distinct artifacts,
  // mirroring how RegisterGraph keys on graph AND options.
  PrepareOptions fp_opt;
  fp_opt.cgr = c.options();
  fp_opt.ooc_partitions = static_cast<int>(c.partitions().size());
  fp_opt.gcgt = options;
  const uint64_t fingerprint =
      CombineOptionsFingerprint(c.fingerprint(), fp_opt);
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (auto it = registry_.find(fingerprint); it != registry_.end()) {
      // Same collision shape guard as RegisterGraph.
      if (it->second->num_query_nodes() != container_nodes) {
        return Status::Internal(
            "artifact fingerprint collision: a different graph is already "
            "registered under this fingerprint");
      }
      return fingerprint;  // container already materialized
    }
  }
  // Materialize OUTSIDE the lock, same rationale as RegisterGraph. The
  // artifact takes ownership of the container (zero-copy mmap view).
  auto built = PreparedGraph::BuildFromContainer(std::move(c), options,
                                                 fingerprint);
  if (!built.ok()) return built.status();
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto [it, inserted] =
      registry_.try_emplace(fingerprint, std::move(built.value()));
  if (!inserted && it->second->num_query_nodes() != container_nodes) {
    return Status::Internal(
        "artifact fingerprint collision: a different graph is already "
        "registered under this fingerprint");
  }
  return fingerprint;
}

std::shared_ptr<const PreparedGraph> GcgtService::FindGraph(
    uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(fingerprint);
  return it == registry_.end() ? nullptr : it->second;
}

std::shared_ptr<CircuitBreaker> GcgtService::BreakerFor(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  auto it = breakers_.find(fingerprint);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(fingerprint,
                      std::make_shared<CircuitBreaker>(options_.breaker))
             .first;
  }
  return it->second;
}

CircuitBreakerState GcgtService::BreakerState(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  auto it = breakers_.find(fingerprint);
  return it == breakers_.end() ? CircuitBreakerState::kClosed
                               : it->second->state();
}

std::shared_ptr<GcgtService::ArtifactHealth> GcgtService::HealthFor(
    uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(health_mu_);
  auto it = health_.find(fingerprint);
  if (it == health_.end()) {
    it = health_.emplace(fingerprint, std::make_shared<ArtifactHealth>())
             .first;
  }
  return it->second;
}

double GcgtService::HealthScore(uint64_t fingerprint) const {
  std::shared_ptr<ArtifactHealth> health;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    auto it = health_.find(fingerprint);
    if (it == health_.end()) return 1.0;
    health = it->second;
  }
  const double ok =
      static_cast<double>(health->ok.load(std::memory_order_relaxed));
  const double failed =
      static_cast<double>(health->failed.load(std::memory_order_relaxed));
  const double stuck =
      static_cast<double>(health->stuck.load(std::memory_order_relaxed));
  // Failures weigh 4x a success, stuck detections 8x: one stuck worker
  // (a whole engine wedged past its deadline) is a far stronger signal than
  // one contained exception.
  const double total = ok + 4.0 * failed + 8.0 * stuck;
  return total <= 0.0 ? 1.0 : ok / total;
}

std::shared_ptr<GcgtService::JobState> GcgtService::MakeState(
    ServiceQuery query) {
  if (options_.default_timeout.count() > 0) {
    query.cancel = query.cancel.WithDeadlineMin(Clock::now() +
                                                options_.default_timeout);
  }
  // Canonicalize BC source sets (sort + dedup) at admission, before anything
  // reads the query: the executed query, the cache key and any hedge attempt
  // then always agree, so a cache hit is bit-identical to a fresh run of the
  // canonical query and equivalent submissions ({3,1}, {1,3,3}) share one
  // cached result.
  if (auto* bc = std::get_if<BcQuery>(&query.query)) {
    bc->sources = CanonicalBcSources(std::move(bc->sources));
  }
  // Same admission-time canonicalization for the symmetric pair queries:
  // {u,v} and {v,u} execute and cache as one {min,max} query.
  CanonicalizePairQuery(query.query);
  auto state = std::make_shared<JobState>();
  state->query = std::move(query);
  state->admitted_at = Clock::now();
  return state;
}

bool GcgtService::FairAdmit(uint64_t client_id) {
  if (options_.qos.fair_tokens_per_sec <= 0.0) return true;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(buckets_mu_);
  auto it = buckets_.find(client_id);
  if (it == buckets_.end()) {
    it = buckets_
             .try_emplace(client_id, options_.qos.fair_tokens_per_sec,
                          options_.qos.fair_burst, now)
             .first;
  }
  return it->second.TryAcquire(now);
}

void GcgtService::RegisterInflight(const std::shared_ptr<JobState>& state) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.push_back(state);
}

std::future<Result<QueryResult>> GcgtService::Submit(ServiceQuery query) {
  std::shared_ptr<JobState> state = MakeState(std::move(query));
  std::future<Result<QueryResult>> future = state->promise.get_future();
  // Count BEFORE the job becomes visible to workers, so Stats() never
  // transiently reports completed > submitted.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!FairAdmit(state->query.client_id)) {
    // Fair-admission sheds behave like shutdown-time shedding: the future
    // is fulfilled immediately with Unavailable.
    shed_rate_limited_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    state->fulfilled.store(true, std::memory_order_release);
    state->promise.set_value(Status::Unavailable(
        "fair admission: client exceeded its token-bucket rate"));
    return future;
  }
  if (FaultInjector::Global().ShouldInject(FaultPoint::kQueueAdmit)) {
    // A simulated admission failure behaves like shutdown-time shedding.
    completed_.fetch_add(1, std::memory_order_relaxed);
    state->fulfilled.store(true, std::memory_order_release);
    state->promise.set_value(
        Status::Unavailable("injected fault: queue admission shed"));
    return future;
  }
  if (options_.qos.enable_hedging) RegisterInflight(state);
  Job job{state, 0};
  // deadline() is time_point::max() for un-deadlined tokens — exactly the
  // queue's "no deadline" sentinel.
  if (!queue_.Push(job, state->query.priority, state->query.cancel.deadline())) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    state->fulfilled.store(true, std::memory_order_release);
    state->promise.set_value(Status::Unavailable("service is shut down"));
    return future;
  }
  return future;
}

Result<std::future<Result<QueryResult>>> GcgtService::TrySubmit(
    ServiceQuery query) {
  std::shared_ptr<JobState> state = MakeState(std::move(query));
  std::future<Result<QueryResult>> future = state->promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);  // see Submit()
  if (!FairAdmit(state->query.client_id)) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    shed_rate_limited_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "fair admission: client exceeded its token-bucket rate");
  }
  if (FaultInjector::Global().ShouldInject(FaultPoint::kQueueAdmit)) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected fault: queue admission shed");
  }
  if (options_.qos.enable_hedging) RegisterInflight(state);
  Job job{state, 0};
  switch (queue_.TryPush(job, state->query.priority,
                         state->query.cancel.deadline())) {
    case AdmissionQueue<Job>::PushResult::kOk:
      return future;
    case AdmissionQueue<Job>::PushResult::kFull:
      submitted_.fetch_sub(1, std::memory_order_relaxed);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("admission control: queue is full");
    case AdmissionQueue<Job>::PushResult::kClosed:
      submitted_.fetch_sub(1, std::memory_order_relaxed);
      return Status::Unavailable("service is shut down");
  }
  return Status::Internal("unreachable");
}

std::vector<std::future<Result<QueryResult>>> GcgtService::SubmitBatch(
    std::vector<ServiceQuery> queries) {
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(queries.size());
  for (ServiceQuery& query : queries) futures.push_back(Submit(std::move(query)));
  return futures;
}

bool GcgtService::Fulfill(JobState& state, Result<QueryResult> result,
                          const std::function<void()>& on_win) {
  if (state.fulfilled.exchange(true, std::memory_order_acq_rel)) return false;
  // The race is decided: stop the losing attempt (queued or mid-run) at its
  // next cooperative poll. Cancelling the winner's own token is harmless —
  // its result is already in hand.
  state.attempt_cancel[0].Cancel();
  state.attempt_cancel[1].Cancel();
  ObserveLatency(Clock::now() - state.admitted_at);
  if (!result.ok()) {
    if (result.status().IsCancelled()) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
    } else if (result.status().IsDeadlineExceeded()) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // ALL per-query accounting lands before set_value wakes the client, so a
  // Stats() read after .get() always sees this query fully counted.
  if (on_win) on_win();
  // Exactly-once fulfillment: every verdict funnels through this one
  // set_value, so an accepted future can never be abandoned or set twice.
  completed_.fetch_add(1, std::memory_order_relaxed);
  state.promise.set_value(std::move(result));
  return true;
}

void GcgtService::FailAttempt(Job& job, Status status, FailCause cause) {
  {
    std::lock_guard<std::mutex> lock(job.state->verdict_mu);
    job.state->error = std::move(status);
    job.state->error_cause = cause;
  }
  ReleaseAttempt(*job.state);
}

void GcgtService::ReleaseAttempt(JobState& state) {
  if (state.live_attempts.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    // A sibling attempt is still live (or already decided the query); a
    // failed attempt must never preempt a hedge that might still succeed.
    return;
  }
  // Last live attempt: its stored verdict decides the query — unless a
  // sibling already fulfilled it (Fulfill no-ops then).
  Status status = Status::OK();
  FailCause cause = FailCause::kRun;
  {
    std::lock_guard<std::mutex> lock(state.verdict_mu);
    status = state.error;
    cause = state.error_cause;
  }
  // Cause attribution happens only on the fulfilling verdict, so each query
  // lands in at most one overload counter (a swept-then-hedge-rescued query
  // counts as a success, not an expiry).
  Fulfill(state, std::move(status), [&] {
    if (cause == FailCause::kExpiredInQueue) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    } else if (cause == FailCause::kShedOverload) {
      shed_overload_.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

void GcgtService::WorkerLoop(int worker_index) {
  // Per-worker serving state: one session (engine) per artifact served so
  // far. Thread-confined — never shared, so Run() stays single-caller.
  std::unordered_map<uint64_t, WorkerSession> sessions;
  for (;;) {
    AdmissionQueue<Job>::PopOutcome out = queue_.Pop();
    // Queue-swept entries first: they are already doomed, and failing them
    // before serving the live item keeps their futures from waiting on an
    // unrelated traversal.
    for (Job& doomed : out.expired) {
      FailAttempt(doomed,
                  Status::DeadlineExceeded(
                      "query deadline expired while queued"),
                  FailCause::kExpiredInQueue);
    }
    for (Job& doomed : out.shed) {
      FailAttempt(doomed,
                  Status::Unavailable(
                      "overload shed: queue sojourn above target"),
                  FailCause::kShedOverload);
    }
    if (out.item) {
      Serve(worker_index, sessions, std::move(*out.item));
    } else if (!out.open) {
      break;
    }
  }
}

Result<QueryResult> GcgtService::Attempt(WorkerSession& ws,
                                         const ServiceQuery& query,
                                         const CancelToken& run_token,
                                         bool& degraded) {
  degraded = false;
  // Exception containment: ANYTHING a serve attempt throws — including the
  // injected fault below, which deliberately exercises this path — becomes
  // Status::Internal on this query alone. The worker thread survives.
  try {
    if (FaultInjector::Global().ShouldInject(FaultPoint::kWorkerServe)) {
      throw std::runtime_error("injected fault: worker serve");
    }
    RunOptions run;
    run.backend = query.backend;
    run.cancel = run_token;
    Result<QueryResult> result = ws.session.Run(query.query, run);
    if (!result.ok() && result.status().IsOutOfMemory() &&
        options_.enable_oom_fallback &&
        options_.fallback_backend != query.backend) {
      // Graceful degradation: the requested backend does not fit the device
      // budget (a fig8-style hard OOM row); answer on the fallback backend
      // and mark the result so clients can tell.
      RunOptions fallback = run;
      fallback.backend = options_.fallback_backend;
      Result<QueryResult> fb = ws.session.Run(query.query, fallback);
      if (fb.ok()) {
        fb.value().MarkDegraded();
        degraded = true;
        return fb;
      }
      return result;  // fallback failed too: report the original OOM
    }
    return result;
  } catch (const std::exception& e) {
    worker_faults_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal(std::string("worker exception: ") + e.what());
  } catch (...) {
    worker_faults_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("worker exception: unknown type");
  }
}

void GcgtService::Serve(int worker_index,
                        std::unordered_map<uint64_t, WorkerSession>& sessions,
                        Job job) {
  JobState& state = *job.state;
  const uint64_t fingerprint = state.query.graph;
  const Backend backend = state.query.backend;

  if (state.fulfilled.load(std::memory_order_acquire)) {
    // The sibling attempt of a hedged pair already answered while this one
    // was queued: drop it without touching a session.
    ReleaseAttempt(state);
    return;
  }

  // Publish what this worker is running so the watchdog can spot a stuck
  // attempt (running past deadline + grace without honoring its polls).
  struct SlotGuard {
    WorkerSlot& slot;
    SlotGuard(WorkerSlot& s, std::shared_ptr<JobState> running) : slot(s) {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.state = std::move(running);
    }
    ~SlotGuard() {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.state = nullptr;
    }
  } slot_guard(*slots_[worker_index], job.state);

  // This attempt's run token: the client/deadline token plus this attempt's
  // loser-abort flag (Fulfill cancels it when the sibling wins, so the
  // losing traversal aborts at its next cooperative poll).
  const CancelToken run_token =
      state.query.cancel.WithLinkedSource(state.attempt_cancel[job.attempt]);

  bool degraded = false;
  FailCause cause = FailCause::kRun;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    // Expiry/abort between pop and serve (queue sweeps catch most expiries
    // while QUEUED; this catches the rest) — fails without any worker time.
    if (Status s = run_token.Check(); !s.ok()) return s;

    // Injected spurious shed decision: behaves exactly like the sojourn
    // controller shedding this query (Unavailable, counted shed_overload).
    if (FaultInjector::Global().ShouldInject(FaultPoint::kShedDecision)) {
      cause = FailCause::kShedOverload;
      return Status::Unavailable("injected fault: spurious shed decision");
    }

    // Cache next: a hit answers without touching any session, the breaker
    // or the retry machinery (a memoized result proves nothing about the
    // artifact's current health and costs nothing to serve).
    std::optional<ResultCacheKey> key;
    if (cache_) {
      key = ResultCache::KeyFor(fingerprint, backend, state.query.query);
      if (key &&
          !FaultInjector::Global().ShouldInject(FaultPoint::kCacheLookup)) {
        if (std::shared_ptr<const QueryResult> hit = cache_->Lookup(*key)) {
          return QueryResult(*hit);
        }
      }
    }

    auto it = sessions.find(fingerprint);
    if (it == sessions.end()) {
      std::shared_ptr<const PreparedGraph> artifact = FindGraph(fingerprint);
      if (artifact == nullptr) {
        return Status::NotFound("graph is not registered with the service");
      }
      GcgtSession session =
          artifact->NewWorkerSession(options_.worker_engine_threads);
      worker_sessions_.fetch_add(1, std::memory_order_relaxed);
      it = sessions
               .emplace(fingerprint,
                        WorkerSession{std::move(artifact), std::move(session)})
               .first;
    }

    // Quarantine check: an artifact whose queries keep failing with
    // service-side errors fails fast until its cooldown probe succeeds.
    std::shared_ptr<CircuitBreaker> breaker = BreakerFor(fingerprint);
    if (!breaker->Allow()) {
      breaker_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("circuit breaker open for this artifact");
    }

    // Attempt loop: only TRANSIENT failures (Internal) retry, with capped
    // exponential backoff. Client errors, OOM verdicts (the fallback already
    // ran inside Attempt) and caller aborts return immediately.
    Result<QueryResult> attempt = Status::Internal("no attempt ran");
    for (int n = 1; ; ++n) {
      attempt = Attempt(it->second, state.query, run_token, degraded);
      if (attempt.ok() || !attempt.status().IsInternal() ||
          n >= options_.max_attempts) {
        break;
      }
      // Never burn backoff sleeps on a query that is already dead (or whose
      // hedge sibling already won).
      if (Status s = run_token.Check(); !s.ok()) return s;
      retries_.fetch_add(1, std::memory_order_relaxed);
      auto backoff = options_.retry_backoff_base * (int64_t{1} << (n - 1));
      std::this_thread::sleep_for(
          std::min<std::chrono::milliseconds>(backoff,
                                              options_.retry_backoff_cap));
    }

    // Only service-side verdicts feed the breaker (see circuit_breaker.h)
    // and the health score (watchdog stuck detections add the third input).
    std::shared_ptr<ArtifactHealth> health = HealthFor(fingerprint);
    if (attempt.ok()) {
      breaker->RecordSuccess();
      health->ok.fetch_add(1, std::memory_order_relaxed);
    } else if (attempt.status().IsInternal()) {
      breaker->RecordFailure();
      health->failed.fetch_add(1, std::memory_order_relaxed);
    }

    // Degraded results are never cached (their identity belongs to the
    // fallback backend).
    if (attempt.ok() && !degraded && cache_ && key &&
        !FaultInjector::Global().ShouldInject(FaultPoint::kCacheInsert)) {
      cache_->Insert(*key,
                     std::make_shared<const QueryResult>(attempt.value()));
    }
    return attempt;
  }();

  if (!result.ok()) {
    FailAttempt(job, result.status(), cause);
    return;
  }

  // Winner-only accounting: the losing result of a hedged pair is discarded,
  // so stats keep describing the results actually served. Out-of-core pager
  // metrics: cache hits replay the memoized metrics of the run that produced
  // them, so a hit on a paged artifact counts the same faults the original
  // traversal charged — the stats describe the modeled cost of the results
  // served, not host-side work performed.
  const bool attempt_degraded = degraded;
  const TraversalMetrics metrics = result.value().metrics();
  Fulfill(state, std::move(result), [&] {
    if (job.attempt == 1) hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    if (attempt_degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
    if (metrics.warp.partition_faults != 0) {
      partition_faults_.fetch_add(metrics.warp.partition_faults,
                                  std::memory_order_relaxed);
    }
    if (metrics.warp.partition_spills != 0) {
      partition_spills_.fetch_add(metrics.warp.partition_spills,
                                  std::memory_order_relaxed);
    }
    uint64_t peak = metrics.resident_bytes_peak;
    uint64_t seen = resident_bytes_peak_.load(std::memory_order_relaxed);
    while (peak > seen && !resident_bytes_peak_.compare_exchange_weak(
                              seen, peak, std::memory_order_relaxed)) {
    }
  });
  ReleaseAttempt(state);
}

void GcgtService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, options_.qos.watchdog_interval,
                          [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    lock.unlock();
    // An injected tick fault skips the whole scan — the system must stay
    // correct (just slower to hedge/detect) when the watchdog misses beats.
    if (!FaultInjector::Global().ShouldInject(FaultPoint::kWatchdogTick)) {
      ScanStuck();
      if (options_.qos.enable_hedging) ScanHedges();
      if (options_.qos.brownout_watermark_bytes > 0 && cache_) {
        ScanBrownout();
      }
    }
    lock.lock();
  }
}

void GcgtService::ScanStuck() {
  const Clock::time_point now = Clock::now();
  for (const std::unique_ptr<WorkerSlot>& slot_ptr : slots_) {
    std::shared_ptr<JobState> state;
    {
      std::lock_guard<std::mutex> lock(slot_ptr->mu);
      state = slot_ptr->state;
    }
    if (!state || state->fulfilled.load(std::memory_order_acquire)) continue;
    const CancelToken& token = state->query.cancel;
    if (!token.has_deadline()) continue;
    if (now < token.deadline() + options_.qos.stuck_grace) continue;
    // Running this long past the deadline means the engine is not honoring
    // its cooperative cancel polls (e.g. a single-source CPU Brandes run
    // that only polls between sources) — report once per query.
    if (state->stuck_reported.exchange(true, std::memory_order_acq_rel)) {
      continue;
    }
    watchdog_stuck_.fetch_add(1, std::memory_order_relaxed);
    HealthFor(state->query.graph)
        ->stuck.fetch_add(1, std::memory_order_relaxed);
    BreakerFor(state->query.graph)->RecordFailure();
  }
}

std::chrono::nanoseconds GcgtService::HedgeDelay() const {
  if (options_.qos.hedge_delay.count() > 0) return options_.qos.hedge_delay;
  // Adaptive: a multiple of the observed completion-latency EWMA, floored —
  // the tail-at-scale rule of thumb (hedge when a query outlives the typical
  // one by a comfortable factor).
  const uint64_t ewma = latency_ewma_ns_.load(std::memory_order_relaxed);
  const auto adaptive = std::chrono::nanoseconds(static_cast<int64_t>(
      static_cast<double>(ewma) * options_.qos.hedge_latency_factor));
  return std::max(adaptive, options_.qos.hedge_min_delay);
}

void GcgtService::ObserveLatency(Clock::duration latency) {
  const int64_t raw =
      std::chrono::duration_cast<std::chrono::nanoseconds>(latency).count();
  const uint64_t ns = raw < 0 ? 0 : static_cast<uint64_t>(raw);
  const uint64_t prev = latency_ewma_ns_.load(std::memory_order_relaxed);
  const uint64_t next = prev == 0 ? ns : (prev * 7 + ns) / 8;
  latency_ewma_ns_.store(next, std::memory_order_relaxed);
}

void GcgtService::ScanHedges() {
  const Clock::time_point now = Clock::now();
  const std::chrono::nanoseconds delay = HedgeDelay();
  std::vector<std::shared_ptr<JobState>> candidates;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      std::shared_ptr<JobState> state = it->lock();
      if (!state || state->fulfilled.load(std::memory_order_acquire)) {
        it = inflight_.erase(it);  // prune completed/abandoned entries
        continue;
      }
      if (!state->hedged.load(std::memory_order_relaxed) &&
          now - state->admitted_at >= delay) {
        candidates.push_back(std::move(state));
      }
      ++it;
    }
  }
  for (std::shared_ptr<JobState>& state : candidates) {
    // Spare-capacity gate: hedges amplify load, and a hedge pushed behind a
    // standing queue waits out the same backlog as its primary — pure waste.
    // Only hedge when the queue is shallower than the worker pool (the
    // hedge will be picked up about immediately); under real overload
    // hedging self-disables.
    if (queue_.size() >= static_cast<size_t>(options_.num_workers)) break;
    if (state->hedged.exchange(true, std::memory_order_acq_rel)) continue;
    if (FaultInjector::Global().ShouldInject(FaultPoint::kHedgeDispatch)) {
      // Injected hedge-path fault: the dispatch is lost. The primary still
      // owns the query, so correctness is untouched — only tail latency.
      continue;
    }
    // The hedge only races a LIVE primary: raising live_attempts from zero
    // is forbidden (a fully-failed query may already be fulfilled).
    int live = state->live_attempts.load(std::memory_order_relaxed);
    bool raised = false;
    while (live > 0) {
      if (state->live_attempts.compare_exchange_weak(
              live, live + 1, std::memory_order_acq_rel)) {
        raised = true;
        break;
      }
    }
    if (!raised) continue;
    Job hedge{state, 1};
    if (queue_.TryPush(hedge, state->query.priority,
                       state->query.cancel.deadline()) ==
        AdmissionQueue<Job>::PushResult::kOk) {
      hedged_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Queue full or closed: give the liveness back (fulfilling the stored
      // verdict if the primary failed in the meantime).
      ReleaseAttempt(*state);
    }
  }
}

void GcgtService::ScanBrownout() {
  const Clock::time_point now = Clock::now();
  const size_t watermark = options_.qos.brownout_watermark_bytes;
  const size_t resident = cache_->Stats().bytes;
  if (!brownout_active_.load(std::memory_order_relaxed)) {
    if (resident > watermark) {
      // Memory pressure: shed cache weight now, until pressure stays off for
      // the hold.
      brownout_since_ = now;
      brownout_events_.fetch_add(1, std::memory_order_relaxed);
      cache_->SetBudget(static_cast<size_t>(
          static_cast<double>(options_.cache_bytes) *
          options_.qos.brownout_shrink));
      brownout_active_.store(true, std::memory_order_release);
    }
  } else if (now - brownout_since_ >= options_.qos.brownout_hold &&
             resident <= watermark / 2) {
    cache_->SetBudget(options_.cache_bytes);
    brownout_active_.store(false, std::memory_order_release);
  }
}

ServiceStats GcgtService::Stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.worker_sessions = worker_sessions_.load(std::memory_order_relaxed);
  if (cache_) stats.cache = cache_->Stats();
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.worker_faults = worker_faults_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.breaker_rejected = breaker_rejected_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  stats.shed_rate_limited =
      shed_rate_limited_.load(std::memory_order_relaxed);
  stats.hedged = hedged_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  stats.watchdog_stuck = watchdog_stuck_.load(std::memory_order_relaxed);
  stats.brownout_events = brownout_events_.load(std::memory_order_relaxed);
  stats.brownout_active = brownout_active_.load(std::memory_order_relaxed);
  stats.partition_faults = partition_faults_.load(std::memory_order_relaxed);
  stats.partition_spills = partition_spills_.load(std::memory_order_relaxed);
  stats.resident_bytes_peak =
      resident_bytes_peak_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(breakers_mu_);
    for (const auto& [fp, breaker] : breakers_) {
      stats.breaker_opened += breaker->times_opened();
    }
  }
  return stats;
}

}  // namespace gcgt
