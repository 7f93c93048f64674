//! The incremental engine core: the continuous-batching scheduler of
//! [`ServingSim`](crate::ServingSim), exposed one iteration at a time.
//!
//! [`ServingSim::run_requests`](crate::ServingSim::run_requests) drives an
//! [`Engine`] to completion internally; multi-replica drivers (the
//! `ador-cluster` crate) instead interleave several engines on a shared
//! event clock: submit a request to one replica, [`Engine::step_until`]
//! the others up to the next arrival, and route based on the live
//! [`Engine::queue_depth`] / [`Engine::kv_in_use`] state.
//!
//! The scheduling semantics — chunked prefill against a shared
//! per-iteration token budget, token-granular KV accounting, and
//! youngest-first preemption with recompute-on-resume — are documented on
//! [`crate::ServingSim`]; this module only changes *who advances the
//! clock*, not what one iteration does.

use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use ador_model::Phase;
use ador_spec::{DraftStream, SpeculationConfig, SpeculationPolicy, Verify};
use ador_telemetry::{
    Event, EventDetail, EventKind, FlightRecorder, SeriesCollector, SeriesSample,
};
use ador_units::{conv, Seconds};

use crate::costs::StepCostTable;
use crate::prefix::{PrefixCache, PrefixCacheStats, PREFIX_BLOCK_TOKENS};
#[cfg(feature = "profile")]
use crate::profile::Stage;
use crate::sim::{SchedulerPolicy, SimConfig, SimError};
use crate::{EngineCounters, QosReport, Request, RequestOutcome};

/// A verify pass that drafted nothing: its own token is the whole commit.
const ONE_TOKEN: Verify = Verify {
    drafted: 0,
    accepted: 0,
    committed: 1,
};

/// Per-request scheduler state that survives preemption.
#[derive(Debug)]
struct Job {
    request: Request,
    /// Tokens generated so far. Survives preemption: the tokens are not
    /// re-emitted, but their KV is recomputed on resume.
    generated: usize,
    first_token_at: Option<Seconds>,
    last_token_at: Option<Seconds>,
    tbt_sum: Seconds,
    tbt_max: Seconds,
    tbt_count: usize,
    /// The request's seeded speculative-decoding acceptance stream.
    /// Survives preemption with the job, so a resumed request continues
    /// its draw sequence instead of replaying it.
    draft: DraftStream,
    /// Whether the job has ever been preempted — a later admission is a
    /// resume, not a first admit (telemetry only; scheduling ignores it).
    preempted: bool,
}

impl Job {
    fn new(request: Request, spec_seed: u64) -> Self {
        let draft = DraftStream::new(spec_seed, request.id);
        Self {
            request,
            generated: 0,
            first_token_at: None,
            last_token_at: None,
            tbt_sum: Seconds::ZERO,
            tbt_max: Seconds::ZERO,
            tbt_count: 0,
            draft,
            preempted: false,
        }
    }

    /// Mean inter-token gap observed so far, or `None` until the job has
    /// emitted a second token — the slack signal `SloAdaptive`
    /// speculation budgets depth against.
    fn mean_tbt_so_far(&self) -> Option<Seconds> {
        (self.tbt_count > 0).then(|| self.tbt_sum / conv::f64_from_usize(self.tbt_count))
    }

    /// Tokens a (re)admission must prefill before decoding: the prompt plus
    /// any previously generated tokens whose KV was dropped at preemption.
    fn prefill_target(&self) -> usize {
        self.request.input_tokens + self.generated
    }

    /// Records one emitted token at `now`. The first token sets TTFT; every
    /// later one contributes the gap since the previous token to the TBT
    /// stats — including any preemption stall.
    fn emit_token(&mut self, now: Seconds) {
        if self.first_token_at.is_none() {
            self.first_token_at = Some(now);
        } else if let Some(last) = self.last_token_at {
            let gap = now - last;
            self.tbt_sum += gap;
            self.tbt_max = self.tbt_max.max(gap);
            self.tbt_count += 1;
        }
        self.last_token_at = Some(now);
        self.generated += 1;
    }

    fn done(&self) -> bool {
        self.generated >= self.request.output_tokens
    }

    /// This step's verify outcome at draft depth `depth`. Depth 0 drafts
    /// nothing, so the verify pass's own token is the whole commit: no
    /// draw, and no acceptance rate to check — a request's rate matters
    /// only when it drafts.
    fn verify(&mut self, depth: usize, spec: &SpeculationConfig) -> Verify {
        if depth == 0 {
            return ONE_TOKEN;
        }
        let remaining = self.request.output_tokens - self.generated;
        let rate = self.request.accept_rate.unwrap_or(spec.default_acceptance);
        self.draft.verify(depth, remaining, rate)
    }
}

/// An admitted request: its job plus prefill progress and resident KV.
#[derive(Debug)]
struct Active {
    job: Job,
    /// Tokens prefilled so far in the current pass.
    prefilled: usize,
    /// Tokens the current pass must prefill before decoding (prompt plus
    /// preemption recompute, minus the prefix-cache hit at admission).
    prefill_target: usize,
    /// Private KV tokens resident for this request: prefilled tokens not
    /// covered by shared cache blocks, plus decoded tokens.
    kv_held: usize,
    /// Tokens covered by the prefix-cache blocks this request references
    /// (charged to the shared pool, not to `kv_held`): the first
    /// `cached_tokens` of its group's chain.
    cached_tokens: usize,
}

impl Active {
    /// `imported` tokens arrive with their KV already materialized (a
    /// disaggregated handoff): they join `kv_held` at admission and are
    /// excluded from the prefill pass alongside the prefix-cache hit.
    fn admit(job: Job, cached_tokens: usize, imported: usize) -> Self {
        let prefill_target = job.prefill_target() - cached_tokens - imported;
        Self {
            job,
            prefilled: 0,
            prefill_target,
            kv_held: imported,
            cached_tokens,
        }
    }

    fn is_decoding(&self) -> bool {
        self.prefilled == self.prefill_target
    }

    /// Full resident context: private KV plus shared prefix blocks.
    fn context(&self) -> usize {
        self.kv_held + self.cached_tokens
    }
}

/// The per-step working vectors of [`Engine::step`], owned by the engine
/// and reused every step: cleared, never shrunk, so once they have grown
/// to the largest batch a steady step allocates nothing.
#[derive(Debug, Default)]
struct StepScratch {
    /// Verify outcome per active slot planned this step (`None` while
    /// prefilling); slots admitted this step have no entry.
    plan: Vec<Option<Verify>>,
    /// Prefill grants: (active slot, tokens).
    chunks: Vec<(usize, usize)>,
    /// Active slots whose request finished this step, ascending.
    finished: Vec<usize>,
    /// `SloAdaptive` bids: (active slot, urgency, draftable room).
    bids: Vec<(usize, f64, usize)>,
    /// The clock at the end of each iteration of a steady decode run, in
    /// order (see [`Engine::steady_run`]); at most [`MAX_RUN`] long.
    stamps: Vec<Seconds>,
}

/// The most iterations one steady decode run commits at once. It bounds
/// the run's stamp buffer, so the buffer stops growing after the engine's
/// first long run; a longer steady stretch is simply several runs.
const MAX_RUN: usize = 64;

/// What one [`Engine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepEvent {
    /// Nothing to do: the engine is fully drained, or (inside
    /// [`Engine::step_until`]) its next arrival lies beyond the horizon.
    Idle,
    /// The engine was empty and its clock jumped to the next pending
    /// arrival; no work was performed.
    Jumped,
    /// One fused engine iteration ran. Its duration shows in
    /// [`Engine::now`], its completions in [`Engine::outcomes`].
    Worked,
}

/// The incremental scheduler core: the state of one engine replica,
/// advanced one continuous-batching iteration per [`Engine::step`] call.
///
/// Obtained from [`ServingSim::engine`](crate::ServingSim::engine).
/// Requests enter via [`Engine::submit`] (any time, in any arrival order)
/// and leave as [`RequestOutcome`]s once their final token is emitted.
///
/// # Examples
///
/// ```
/// use ador_serving::{Request, ServingSim, SimConfig, StepEvent};
/// use ador_perf::Deployment;
/// use ador_units::Seconds;
///
/// let arch = ador_baselines::ador_table3();
/// let model = ador_model::presets::llama3_8b();
/// let sim = ServingSim::new(&arch, &model, Deployment::single_device(),
///                           SimConfig::new(1.0, 8))?;
/// let mut engine = sim.engine();
/// engine.submit(Request::new(0, Seconds::ZERO, 128, 4))?;
/// while engine.step()? != StepEvent::Idle {}
/// assert_eq!(engine.completed(), 1);
/// # Ok::<(), ador_serving::SimError>(())
/// ```
pub struct Engine<'a> {
    /// The step prices of this engine's (architecture, model,
    /// deployment), shared with every engine built through the same
    /// [`StepCosts`](crate::StepCosts) registry.
    costs: Rc<StepCostTable<'a>>,
    cfg: SimConfig,
    kv_budget_tokens: usize,

    /// Submitted requests that have not yet reached the admission queue
    /// (their arrival lies at or beyond the current clock), sorted by
    /// arrival.
    pending: VecDeque<Request>,
    /// The admission queue: arrived but not yet admitted jobs. Preempted
    /// jobs re-enter at the front.
    waiting: VecDeque<Job>,
    active: Vec<Active>,
    outcomes: Vec<RequestOutcome>,
    now: Seconds,
    kv_in_use: usize,
    submitted: usize,

    /// Prefix-aware KV reuse (`None` when [`SimConfig::prefix_caching`]
    /// is off). Resident cache blocks are part of `kv_in_use`.
    cache: Option<PrefixCache>,

    steps: usize,
    batch_samples: f64,
    queue_samples: f64,
    /// Every counter but the two means and the prefix-cache counts,
    /// which [`Engine::counters`] fills in.
    tally: EngineCounters,
    prev_step_prefilled: bool,

    /// Running total of committed-but-not-resident prefill demand, kept in
    /// lockstep with every queue transition so [`Engine::backlog_tokens`]
    /// is O(1). Debug builds check it against a recompute-from-scratch
    /// oracle after every iteration.
    backlog: usize,
    /// The clock at the last invariant check (debug builds only), so the
    /// next check can tell that the clock never ran backwards.
    #[cfg(debug_assertions)]
    checked_at: Seconds,

    /// Working vectors reused by every step (see [`StepScratch`]).
    scratch: StepScratch,

    /// Telemetry event recorder — `None` when tracing is off, in which
    /// case the engine performs no per-event work at all.
    sink: Option<FlightRecorder>,
    /// Windowed time-series collector — `None` when off.
    series: Option<SeriesCollector>,
    /// Span-scoped self-profile of the step stages (compiled out — and
    /// therefore bit-identical — without the `profile` feature).
    #[cfg(feature = "profile")]
    profile: crate::profile::StepProfile,
}

impl<'a> Engine<'a> {
    pub(crate) fn from_parts(
        costs: Rc<StepCostTable<'a>>,
        cfg: SimConfig,
        kv_budget_tokens: usize,
    ) -> Self {
        Self {
            costs,
            cfg,
            kv_budget_tokens,
            pending: VecDeque::new(),
            waiting: VecDeque::new(),
            active: Vec::new(),
            outcomes: Vec::new(),
            now: Seconds::ZERO,
            kv_in_use: 0,
            submitted: 0,
            cache: cfg.prefix_caching.then(PrefixCache::new),
            steps: 0,
            batch_samples: 0.0,
            queue_samples: 0.0,
            tally: EngineCounters::default(),
            prev_step_prefilled: false,
            backlog: 0,
            #[cfg(debug_assertions)]
            checked_at: Seconds::ZERO,
            scratch: StepScratch::default(),
            sink: cfg.telemetry.events.map(FlightRecorder::new),
            series: cfg.telemetry.series_interval.map(SeriesCollector::new),
            #[cfg(feature = "profile")]
            profile: crate::profile::StepProfile::default(),
        }
    }

    /// The accumulated per-stage self-profile of every step this engine
    /// ran (see [`crate::profile`]).
    #[cfg(feature = "profile")]
    pub fn step_profile(&self) -> &crate::profile::StepProfile {
        &self.profile
    }

    /// Records `kind` for `request` at sim time `time` — a no-op (not even
    /// an allocation) when tracing is off. Free-standing over the sink
    /// field so call sites holding `&mut self.active[i]` can still emit.
    #[inline]
    fn emit(sink: &mut Option<FlightRecorder>, time: Seconds, request: u64, kind: EventKind) {
        if let Some(sink) = sink.as_mut() {
            sink.record(&Event {
                time,
                request,
                kind,
            });
        }
    }

    /// Submits a request. Arrivals may be submitted in any order (the
    /// pending set stays sorted) and may lie in the engine's past, in which
    /// case the request joins the admission queue at the next step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRequest`] for a zero-length prompt or
    /// response or an arrival time that is NaN or infinite (`Seconds`
    /// arithmetic does not check its results), [`SimError::NoKvHeadroom`]
    /// if the request's full context can never fit the KV budget
    /// (admitting it would wedge the queue), and, when the engine
    /// speculates, [`SimError::InvalidAcceptRate`] for an acceptance rate
    /// outside `[0, 1]`.
    pub fn submit(&mut self, request: Request) -> Result<(), SimError> {
        if request.input_tokens == 0
            || request.output_tokens == 0
            || !request.arrival.get().is_finite()
        {
            return Err(SimError::InvalidRequest { id: request.id });
        }
        if let Some(rate) = request.accept_rate {
            if self.cfg.speculation.speculates() && !(0.0..=1.0).contains(&rate) {
                return Err(SimError::InvalidAcceptRate {
                    id: Some(request.id),
                    rate,
                });
            }
        }
        if request.total_tokens() > self.kv_budget_tokens {
            return Err(SimError::NoKvHeadroom {
                budget_tokens: self.kv_budget_tokens,
            });
        }
        let pos = self
            .pending
            .partition_point(|q| q.arrival <= request.arrival);
        self.backlog += request.input_tokens;
        self.pending.insert(pos, request);
        self.submitted += 1;
        Ok(())
    }

    /// The engine clock: time consumed by iterations so far (plus idle
    /// jumps to arrivals).
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Requests that have emitted their final token.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Requests inside the engine: pending + queued + admitted.
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.pending.len() + self.waiting.len() + self.active.len(),
            self.submitted - self.outcomes.len(),
            "engine request ledger out of balance"
        );
        self.pending.len() + self.waiting.len() + self.active.len()
    }

    /// Requests waiting for an engine slot (queued or not yet arrived) —
    /// the load signal a join-shortest-queue router balances.
    pub fn queue_depth(&self) -> usize {
        self.pending.len() + self.waiting.len()
    }

    /// Requests currently admitted (prefilling or decoding).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// KV-cache tokens currently resident.
    pub fn kv_in_use(&self) -> usize {
        self.kv_in_use
    }

    /// Committed-but-not-yet-resident KV demand: prompt (plus
    /// recompute-on-resume) tokens of every queued request and the
    /// remaining prefill of every admitted one. Resident KV alone is a
    /// lagging load signal — a replica that just received a burst still
    /// looks empty until the prefills land — so token-backlog-aware
    /// routers balance `kv_in_use + backlog_tokens` instead.
    ///
    /// O(1): maintained incrementally across submissions, admissions,
    /// prefill chunks and preemptions rather than recomputed by scanning
    /// the queues (routers poll this every routing decision).
    pub fn backlog_tokens(&self) -> usize {
        self.backlog
    }

    /// Recompute-from-scratch definition of [`Engine::backlog_tokens`] —
    /// the oracle the incremental sum is checked against (debug asserts
    /// and the property tests).
    #[cfg(any(test, debug_assertions))]
    fn backlog_oracle(&self) -> usize {
        let pending: usize = self.pending.iter().map(|r| r.input_tokens).sum();
        let waiting: usize = self.waiting.iter().map(Job::prefill_target).sum();
        let active: usize = self
            .active
            .iter()
            .map(|a| a.prefill_target - a.prefilled)
            .sum();
        pending + waiting + active
    }

    /// The KV budget in tokens (across the whole deployment).
    pub fn kv_budget_tokens(&self) -> usize {
        self.kv_budget_tokens
    }

    /// Tokens held by resident prefix-cache blocks — shared blocks
    /// counted once, completed requests' retained prefixes included.
    /// Always 0 when prefix caching is off. Part of
    /// [`Engine::kv_in_use`].
    pub fn prefix_resident_tokens(&self) -> usize {
        self.cache.as_ref().map_or(0, PrefixCache::resident_tokens)
    }

    /// Lifetime prefix-cache counters, or `None` when caching is off.
    pub fn prefix_stats(&self) -> Option<PrefixCacheStats> {
        self.cache.as_ref().map(PrefixCache::stats)
    }

    /// Whether every submitted request has completed.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.waiting.is_empty() && self.active.is_empty()
    }

    /// When this engine next has work to do, on its own clock: `now` if a
    /// request is admitted or queued (the next iteration runs immediately),
    /// the earliest pending arrival if the engine is empty but a future
    /// submission is parked, or `None` once drained.
    ///
    /// This is the peek an event-driven fleet driver keys its event queue
    /// on: an idle replica never needs to be stepped before this instant,
    /// and a drained one never again. Calling [`Engine::step`] at (or
    /// after) this time always makes progress; the returned time is
    /// monotone across steps.
    pub fn next_event_time(&self) -> Option<Seconds> {
        if !self.active.is_empty() || !self.waiting.is_empty() {
            return Some(self.now);
        }
        self.pending.front().map(|r| self.now.max(r.arrival))
    }

    /// Completed-request outcomes so far, in completion order.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Consumes the engine, returning the completed outcomes.
    pub fn into_outcomes(self) -> Vec<RequestOutcome> {
        self.outcomes
    }

    /// Engine-level counters accumulated so far.
    pub fn counters(&self) -> EngineCounters {
        let per_step = |sum: f64| {
            if self.steps == 0 {
                0.0
            } else {
                sum / conv::f64_from_usize(self.steps)
            }
        };
        let cache = self.prefix_stats().unwrap_or_default();
        EngineCounters {
            mean_batch: per_step(self.batch_samples),
            mean_queue_depth: per_step(self.queue_samples),
            prefix_hit_tokens: cache.hit_tokens,
            prefix_miss_tokens: cache.miss_tokens,
            prefix_evicted_tokens: cache.evicted_tokens,
            ..self.tally
        }
    }

    /// The QoS report over the outcomes so far, or `None` if no request
    /// has completed yet (a replica may legitimately receive no traffic).
    pub fn report(&self) -> Option<QosReport> {
        if self.outcomes.is_empty() {
            return None;
        }
        Some(QosReport::from_outcomes(
            &self.outcomes,
            self.now,
            self.counters(),
        ))
    }

    /// Advances the engine by one iteration (or one idle jump to the next
    /// arrival). Returns [`StepEvent::Idle`] once drained.
    ///
    /// # Errors
    ///
    /// Propagates performance-model errors ([`SimError::Perf`]).
    pub fn step(&mut self) -> Result<StepEvent, SimError> {
        self.step_inner(None)
    }

    /// Steps until the clock reaches `horizon` or no work remains before
    /// it. Used by cluster drivers to advance every replica to the next
    /// routing decision point. An empty engine will not jump its clock to
    /// an arrival beyond `horizon`, but a busy engine still runs its
    /// iteration to completion even if that carries the clock past
    /// `horizon`.
    ///
    /// Runs exactly the iterations that calling [`Engine::step`] while
    /// the clock is below `horizon` would, and leaves every output
    /// bit-identical to them: outcomes, counters, reports, events and
    /// series points. Stretches of *steady decode* iterations (every
    /// admitted request decoding one token, nothing arriving, admitted,
    /// preempted, speculated or traced per token) are fast-forwarded,
    /// cold prefix blocks evicted, requests waiting behind a full batch
    /// and requests finishing at the stretch's last iteration included:
    /// each iteration is priced and stamped with the same lookup and the
    /// same clock additions as the general step, then committed request
    /// by request, so every accumulator sees the same float operations
    /// in the same order. [`Engine::step`] never fast-forwards; it stays
    /// the one-iteration reference.
    ///
    /// # Errors
    ///
    /// Propagates performance-model errors ([`SimError::Perf`]). The
    /// iterations before the one whose pricing failed are committed, as
    /// [`Engine::step`] would have left them.
    pub fn step_until(&mut self, horizon: Seconds) -> Result<(), SimError> {
        while self.now < horizon {
            if self.steady_run(horizon)? {
                continue;
            }
            if self.step_inner(Some(horizon))? == StepEvent::Idle {
                break;
            }
        }
        Ok(())
    }

    /// A steady decode run: up to [`MAX_RUN`] iterations, starting at the
    /// clock, in which every admitted request decodes exactly one token.
    /// It runs only when every admitted request is decoding, no pending
    /// arrival is due, the queue is empty or the batch is full (so
    /// admission never reads the queue), speculation is off, and no
    /// recorder takes per-token commits. It lasts until the first request
    /// emits its last token, and while the free KV budget plus the cold
    /// prefix blocks hold one more token per request for each iteration
    /// (so nothing is preempted). Otherwise it changes nothing and
    /// returns `Ok(false)`.
    ///
    /// Each iteration is priced with the lookup `timing` makes,
    /// `decode(n, max(ctx_sum / n, 1))`, whose mean context grows by
    /// exactly one per iteration, and its price is added to the clock one
    /// add at a time while the clock is below `horizon` and the next
    /// arrival. The stamped iterations then commit request by request
    /// through [`Job::emit_token`], and iteration by iteration evict what
    /// `admission` evicts ([`Engine::make_room`]), retire at the last
    /// iteration the requests it finished ([`Engine::retire`]) and sample
    /// their counters ([`Engine::sample_iteration`]), each through the
    /// helper the general step uses. Nothing in a run moves the prefix
    /// cache's LRU clock before that retirement, so the evictions come
    /// out as the general step's. A pricing error commits the iterations
    /// before it, makes the failing iteration's eviction (`admission`
    /// runs before `timing`) and is returned.
    fn steady_run(&mut self, horizon: Seconds) -> Result<bool, SimError> {
        #[cfg(feature = "profile")]
        let mut mark = crate::profile::probe_now();
        let stop = self
            .pending
            .front()
            .map_or(horizon, |r| r.arrival.min(horizon));
        let per_token_trace =
            self.sink.is_some() && self.cfg.telemetry.detail == EventDetail::PerToken;
        let admits = !self.waiting.is_empty() && self.active.len() < self.cfg.max_batch;
        if stop <= self.now
            || admits
            || self.active.is_empty()
            || self.cfg.speculation.speculates()
            || per_token_trace
        {
            return Ok(false);
        }
        // No request may complete before the run's last iteration, nor may
        // its KV growth need a preemption. An eviction takes its tokens
        // from the evictable blocks and the ledger alike, so the
        // headroom falls by exactly `n` per iteration, evictions or not.
        let n = self.active.len();
        let (mut ctx_sum, mut room) = (0, MAX_RUN);
        for a in &self.active {
            if !a.is_decoding() {
                return Ok(false);
            }
            ctx_sum += a.context();
            room = room.min(a.job.request.output_tokens - a.job.generated);
        }
        room = room.min(self.kv_headroom() / n);
        if room == 0 {
            return Ok(false);
        }
        #[cfg(feature = "profile")]
        self.profile.record(Stage::Admission, &mut mark);

        let mean_ctx = ctx_sum / n;
        let stamps = &mut self.scratch.stamps;
        stamps.clear();
        let mut clock = self.now;
        let mut failed = None;
        while stamps.len() < room && clock < stop {
            let phase = Phase::decode(n, (mean_ctx + stamps.len()).max(1));
            match self.costs.step_time(phase) {
                Ok(step_time) => {
                    clock += step_time;
                    stamps.push(clock);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        #[cfg(feature = "profile")]
        self.profile.record(Stage::Timing, &mut mark);

        let k = self.scratch.stamps.len();
        let finished = &mut self.scratch.finished;
        finished.clear();
        for (i, a) in self.active.iter_mut().enumerate() {
            a.kv_held += k;
            for &at in &self.scratch.stamps {
                a.job.emit_token(at);
            }
            if a.job.done() {
                finished.push(i);
            }
        }
        for j in 0..k {
            self.now = self.scratch.stamps[j];
            let fits = self.make_room(n);
            debug_assert!(fits, "a steady run outgrew budget plus evictable blocks");
            self.kv_in_use += n;
            self.tally.generated_tokens += n;
            if j + 1 == k {
                self.retire();
            }
            self.sample_iteration(n);
        }
        if failed.is_some() {
            self.make_room(n);
        }
        self.steps += k;
        if k > 0 {
            self.prev_step_prefilled = false;
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        #[cfg(feature = "profile")]
        {
            self.profile.record(Stage::Commit, &mut mark);
            self.profile.steps += conv::u64_from_usize(k);
        }
        failed.map_or(Ok(k > 0), |e| Err(e.into()))
    }

    /// One iteration, in the five stages `profile::Stage` names: arrivals,
    /// speculation plan, admission, timing and commit. The stages share
    /// the step's working vectors through `scratch`.
    fn step_inner(&mut self, horizon: Option<Seconds>) -> Result<StepEvent, SimError> {
        #[cfg(feature = "profile")]
        let mut mark = crate::profile::probe_now();
        loop {
            self.arrivals();
            #[cfg(feature = "profile")]
            self.profile.record(Stage::Arrivals, &mut mark);
            if self.active.is_empty() && self.waiting.is_empty() {
                return Ok(match self.pending.front() {
                    Some(next) if horizon.is_none_or(|h| next.arrival <= h) => {
                        self.now = next.arrival;
                        StepEvent::Jumped
                    }
                    _ => StepEvent::Idle,
                });
            }
            self.speculation();
            #[cfg(feature = "profile")]
            self.profile.record(Stage::Speculation, &mut mark);
            let runnable = self.admission()?;
            #[cfg(feature = "profile")]
            self.profile.record(Stage::Admission, &mut mark);
            if !runnable {
                // Every admitted request is mid-prefill with zero headroom
                // and nobody decodes: evict the youngest so the oldest can
                // proceed.
                self.preempt_youngest();
                #[cfg(feature = "profile")]
                self.profile.record(Stage::Admission, &mut mark);
                continue;
            }
            self.timing()?;
            #[cfg(feature = "profile")]
            self.profile.record(Stage::Timing, &mut mark);
            self.commit();
            #[cfg(feature = "profile")]
            {
                self.profile.record(Stage::Commit, &mut mark);
                self.profile.steps += 1;
            }
            return Ok(StepEvent::Worked);
        }
    }

    /// Arrivals: moves every request whose arrival has passed from the
    /// pending set into the admission queue, behind the preempted jobs
    /// (those re-entered at its front and resume first).
    fn arrivals(&mut self) {
        while self.pending.front().is_some_and(|r| r.arrival <= self.now) {
            // ador-lint: allow(panic) — invariant: front() was Some on the line above
            let request = self.pending.pop_front().expect("peeked");
            Self::emit(
                &mut self.sink,
                request.arrival,
                request.id,
                EventKind::Enqueue,
            );
            self.waiting
                .push_back(Job::new(request, self.cfg.speculation.seed));
        }
    }

    /// Speculation plan: gives each decoding request a draft depth and
    /// draws its verify outcome into `plan`, so it commits `accepted + 1`
    /// tokens this step — exactly 1 with speculation off. Planned before
    /// admission because multi-token commits are this step's KV growth.
    /// Every request draws from its own [`DraftStream`], so the order a
    /// policy visits requests in changes no draw.
    fn speculation(&mut self) {
        let spec = self.cfg.speculation;
        let plan = &mut self.scratch.plan;
        plan.clear();
        plan.extend(
            self.active
                .iter()
                .map(|a| a.is_decoding().then_some(ONE_TOKEN)),
        );
        match spec.policy {
            _ if !spec.speculates() => {}
            SpeculationPolicy::Off => {}
            SpeculationPolicy::Fixed(k) => {
                // Naive fleet-wide speculation: every decoder drafts k
                // tokens, whatever its SLO slack or the batch load.
                let k = k.min(spec.max_depth);
                for (a, verify) in self.active.iter_mut().zip(plan.iter_mut()) {
                    if let Some(verify) = verify {
                        *verify = a.job.verify(k, &spec);
                    }
                }
            }
            SpeculationPolicy::SloAdaptive => {
                // SLO-customized speculation: latency-contracted
                // decoders bid with their TBT urgency, and the
                // per-step verify-token budget is spent
                // most-urgent-first (ties toward the older request),
                // so throughput tenants never pay latency tenants'
                // verify overhead.
                let bids = &mut self.scratch.bids;
                bids.clear();
                bids.extend(
                    self.active
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.is_decoding())
                        .filter_map(|(i, a)| {
                            let urgency = spec.urgency(
                                a.job.request.slo.and_then(|s| s.tbt_max),
                                a.job.mean_tbt_so_far(),
                            )?;
                            let room = a.job.request.output_tokens - a.job.generated - 1;
                            Some((i, urgency, room))
                        }),
                );
                // The slot index breaks every tie, so the order is
                // total and an unstable sort (no heap scratch) is exact.
                bids.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        // ador-lint: allow(panic) — invariant: urgency is a ratio of finite positive times
                        .expect("urgency is never NaN")
                        .then(a.0.cmp(&b.0))
                });
                let mut budget = spec.budget_tokens(self.cfg.max_batch);
                for &(i, urgency, room) in bids.iter() {
                    if budget == 0 {
                        break;
                    }
                    let depth = spec.slack_depth(urgency).min(budget).min(room);
                    plan[i] = Some(self.active[i].job.verify(depth, &spec));
                    budget -= depth;
                }
            }
        }
    }

    /// Admission: relieves KV pressure, then schedules this step's
    /// prefill chunks into `chunks`, admitting from the queue head.
    /// Returns `false` when the step cannot run: more than one request
    /// is admitted, none of them decodes and none got a chunk.
    fn admission(&mut self) -> Result<bool, SimError> {
        // KV pressure: this step grows every decoding context by its
        // planned commit. Evict cold cached prefix blocks first; only
        // then preempt youngest-first — never the oldest, so the engine
        // always drains — until the growth fits the budget. A victim's
        // plan entry goes with it.
        let plan = &self.scratch.plan;
        let mut growth: usize = plan.iter().flatten().map(|v| v.committed).sum();
        while !self.make_room(growth) && self.active.len() > 1 {
            let was_decoding = self.preempt_youngest();
            let victim = self.scratch.plan.pop().flatten();
            debug_assert_eq!(
                was_decoding,
                victim.is_some(),
                "plan is aligned with active"
            );
            growth -= victim.map_or(0, |v| v.committed);
        }
        let decoders = self.scratch.plan.iter().flatten().count();

        // Prefill schedule: continue in-flight prefills oldest-first,
        // then admit from the queue head, sharing one `prefill_chunk`
        // token budget. A chunk that completes a pass also reserves the
        // +1 KV token of the first token it emits.
        let prefill_allowed = match self.cfg.policy {
            SchedulerPolicy::Fused => true,
            SchedulerPolicy::DecodePrioritized => decoders == 0 || !self.prev_step_prefilled,
        };
        let mut chunk_budget = if prefill_allowed {
            self.cfg.prefill_chunk
        } else {
            0
        };
        // Headroom for fresh KV growth beyond this step's decode
        // growth. Growth granted against the evictable share is
        // collected lazily by `charge_kv`.
        let mut kv_headroom = self.kv_headroom().saturating_sub(growth);
        let chunks = &mut self.scratch.chunks;
        chunks.clear();
        for (i, a) in self.active.iter().enumerate() {
            if chunk_budget == 0 {
                break;
            }
            if a.is_decoding() {
                continue;
            }
            let remaining = a.prefill_target - a.prefilled;
            let take = chunk_take(remaining, chunk_budget, kv_headroom);
            if take == 0 {
                break;
            }
            chunk_budget -= take;
            kv_headroom -= take + usize::from(take == remaining);
            chunks.push((i, take));
        }
        while chunk_budget > 0 && self.active.len() < self.cfg.max_batch {
            let Some(job) = self.waiting.front() else {
                break;
            };
            // Imported context (a disaggregated KV handoff): the
            // transferred tokens' KV is allocated outright — no prefill
            // compute, no prefix-cache interaction — leaving at least
            // the final prompt token to recompute. Preemption dropped
            // any imported KV with the rest of the context, so a
            // resumed job recomputes everything.
            let imported = if job.preempted {
                0
            } else {
                job.request
                    .imported_context
                    .min(job.request.input_tokens - 1)
            };
            if imported > kv_headroom {
                break;
            }
            // Match the prompt against the prefix cache before sizing
            // the chunk: matched blocks are skipped entirely (at least
            // one prompt token is always recomputed — its logits emit
            // the first output token). Acquiring pins the matched
            // blocks (they stop being evictable), which consumes the
            // same headroom fresh growth does.
            let group = job.request.prefix_group;
            let cached = match (&mut self.cache, group) {
                (Some(cache), Some(group)) if imported == 0 => {
                    let before = cache.evictable_tokens();
                    let cached = cache.acquire(group, job.request.input_tokens - 1);
                    let pinned = before - cache.evictable_tokens();
                    if pinned > kv_headroom {
                        cache.release(group, cached);
                        break;
                    }
                    kv_headroom -= pinned;
                    cached
                }
                _ => 0,
            };
            let remaining = job.prefill_target() - cached - imported;
            let take = chunk_take(remaining, chunk_budget, kv_headroom - imported);
            if take == 0 {
                if let (Some(cache), Some(group)) = (&mut self.cache, group) {
                    cache.release(group, cached);
                }
                break;
            }
            // ador-lint: allow(panic) — invariant: the admission loop peeked front() above
            let job = self.waiting.pop_front().expect("peeked");
            if let Some(cache) = &mut self.cache {
                if imported == 0 && job.request.prefix_group.is_some() {
                    let shareable = ((job.request.input_tokens - 1) / PREFIX_BLOCK_TOKENS)
                        * PREFIX_BLOCK_TOKENS;
                    cache.record_lookup(cached, shareable - cached);
                }
            }
            chunk_budget -= take;
            kv_headroom -= imported + take + usize::from(take == remaining);
            // Cached and imported tokens never prefill, so they leave
            // the backlog the moment the admission decision skips them;
            // imported KV becomes resident right here.
            self.backlog -= cached + imported;
            self.charge_kv(imported);
            let kind = if job.preempted {
                EventKind::Resume
            } else {
                // The request-alone prefill lower bound for the
                // remaining prompt: what attribution measures the
                // admission-to-first-commit span against. Priced
                // only when tracing is on, so the untraced path
                // stays bit-identical.
                let ideal_us = if self.sink.is_some() {
                    let alone = self.costs.step_time(Phase::prefill(1, remaining))?;
                    conv::u32_from_usize(conv::usize_from_f64(alone.as_micros().round()))
                } else {
                    0
                };
                EventKind::Admit {
                    cached_tokens: conv::u32_from_usize(cached),
                    ideal_us,
                }
            };
            Self::emit(&mut self.sink, self.now, job.request.id, kind);
            self.scratch.chunks.push((self.active.len(), take));
            self.active.push(Active::admit(job, cached, imported));
        }
        Ok(decoders > 0 || !self.scratch.chunks.is_empty() || self.active.len() <= 1)
    }

    /// Timing: prices one fused engine iteration and advances the clock
    /// by it. The verify pass prices `decoders + drafted` token positions
    /// through the decode model with the per-sequence context scaled down
    /// so the resident KV total is unchanged (draft tokens attend to the
    /// *same* contexts, they do not bring their own). Token-level
    /// parallelism rides the same roofline as batch parallelism:
    /// verification is nearly free while the step is weight-bound and
    /// costs real compute once it is not. On top of that, drafting is
    /// priced per drafted token — `draft_time_ratio` of a target token's
    /// step share, i.e. mean depth × base — the batched-drafter
    /// amortization, not a per-step charge in the deepest request's
    /// depth.
    fn timing(&mut self) -> Result<(), SimError> {
        let chunks = &self.scratch.chunks;
        let prefill_tokens: usize = chunks.iter().map(|&(_, t)| t).sum();
        let (mut decoders, mut ctx_sum, mut drafted) = (0, 0, 0);
        for (a, verify) in self.active.iter().zip(&self.scratch.plan) {
            if let Some(v) = verify {
                decoders += 1;
                ctx_sum += a.context();
                drafted += v.drafted;
            }
        }
        let mut step_time = Seconds::ZERO;
        if prefill_tokens > 0 {
            let mean_chunk = (prefill_tokens / chunks.len()).max(1);
            step_time += self
                .costs
                .step_time(Phase::prefill(chunks.len(), mean_chunk))?;
        }
        if let Some(mean_ctx) = ctx_sum.checked_div(decoders) {
            let ctx = mean_ctx.max(1);
            if drafted == 0 {
                step_time += self.costs.step_time(Phase::decode(decoders, ctx))?;
            } else {
                let verify_tokens = decoders + drafted;
                let ctx_eq = (ctx_sum / verify_tokens).max(1);
                step_time += self.costs.step_time(Phase::decode(verify_tokens, ctx_eq))?;
                let base = self.costs.step_time(Phase::decode(decoders, ctx))?;
                let mean_depth = conv::f64_from_usize(drafted) / conv::f64_from_usize(decoders);
                step_time += base * (self.cfg.speculation.draft_time_ratio * mean_depth);
            }
        }
        self.now += step_time;
        self.steps += 1;
        self.prev_step_prefilled = prefill_tokens > 0;
        Ok(())
    }

    /// Commit: lands the prefill chunks, commits every planned run and
    /// every first token, retires the finished requests and samples the
    /// step's counters.
    fn commit(&mut self) {
        // Apply prefill progress token-granularly; prompts whose pass
        // completed publish their full-block prefix into the cache so
        // later requests of the same group (and later session turns)
        // can share it.
        for c in 0..self.scratch.chunks.len() {
            let (i, take) = self.scratch.chunks[c];
            self.charge_kv(take);
            self.tally.prefilled_tokens += take;
            self.backlog -= take;
            let a = &mut self.active[i];
            a.prefilled += take;
            a.kv_held += take;
            Self::emit(
                &mut self.sink,
                self.now,
                a.job.request.id,
                EventKind::PrefillChunk {
                    tokens: conv::u32_from_usize(take),
                },
            );
        }
        for c in 0..self.scratch.chunks.len() {
            let i = self.scratch.chunks[c].0;
            if self.active[i].is_decoding() {
                self.cache_publish(i);
            }
        }

        // Token emission: every request that decoded this step commits
        // its verified run (exactly one token with speculation off),
        // plus every request whose prefill pass just completed emits
        // its first — or, after preemption, next — token out of the
        // fused step. A request with no plan entry was prefilling when
        // the step was planned, so only this step's chunk can have
        // completed its pass: it commits exactly when it decodes now.
        // This is also the decode-batch occupancy sample, taken after
        // same-step admissions so fresh decoders are counted. All
        // tokens of one commit share the step-end timestamp: the verify
        // pass reveals them at once, so the first carries the whole
        // inter-step gap and the rest are free — exactly how
        // speculation buys mean TBT.
        let per_token_events = self.cfg.telemetry.detail == EventDetail::PerToken;
        let mut batch_now = 0usize;
        self.scratch.finished.clear();
        for i in 0..self.active.len() {
            let verify = self.scratch.plan.get(i).copied().flatten();
            let commit = verify.map_or(usize::from(self.active[i].is_decoding()), |v| v.committed);
            if commit == 0 {
                continue;
            }
            batch_now += 1;
            self.charge_kv(commit);
            let a = &mut self.active[i];
            a.kv_held += commit;
            for _ in 0..commit {
                a.job.emit_token(self.now);
            }
            debug_assert!(
                a.job.generated <= a.job.request.output_tokens,
                "request {} committed past its stop boundary",
                a.job.request.id
            );
            let (drafted, accepted) = verify.map_or((0, 0), |v| (v.drafted, v.accepted));
            self.tally.generated_tokens += commit;
            self.tally.drafted_tokens += drafted;
            self.tally.accepted_tokens += accepted;
            self.tally.rejected_tokens += drafted - accepted;
            // Under Lifecycle detail only the phase-boundary commit
            // and draft-carrying verify steps reach the sink — steady
            // one-token decode steps are the event flood the overhead
            // budget elides. A commit with no verify plan ends a
            // prefill pass: the first tokens after admit/resume.
            if per_token_events || verify.is_none() || drafted > 0 {
                Self::emit(
                    &mut self.sink,
                    self.now,
                    a.job.request.id,
                    EventKind::Commit {
                        committed: conv::u32_from_usize(commit),
                        drafted: conv::u32_from_usize(drafted),
                        accepted: conv::u32_from_usize(accepted),
                    },
                );
            }
            if a.job.done() {
                self.scratch.finished.push(i);
            }
        }
        self.retire();
        self.sample_iteration(batch_now);
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Retires the requests in `scratch.finished` (ascending active
    /// slots), highest slot first so the lower slots stay put. Each one
    /// publishes its finished context (prompt + response) into the cache
    /// — the follow-up turn of a session prompts with exactly this
    /// context — then leaves the batch, drops its block references and
    /// its private KV, and completes at the clock. Shared by `commit`
    /// and the steady run.
    fn retire(&mut self) {
        while let Some(i) = self.scratch.finished.pop() {
            self.cache_publish(i);
            let a = self.active.remove(i);
            if let (Some(cache), Some(group)) = (&mut self.cache, a.job.request.prefix_group) {
                cache.release(group, a.cached_tokens);
            }
            self.kv_in_use -= a.kv_held;
            Self::emit(
                &mut self.sink,
                self.now,
                a.job.request.id,
                EventKind::Complete,
            );
            self.outcomes.push(finish(a.job, self.now));
        }
    }

    /// Samples one finished iteration's counters: the decode-batch
    /// occupancy and queue-depth sums behind the means, the three peaks
    /// and the time series. Shared by `commit` and the steady run, so
    /// both feed the float sums the same additions in the same order.
    fn sample_iteration(&mut self, batch: usize) {
        self.batch_samples += conv::f64_from_usize(batch);
        self.queue_samples += conv::f64_from_usize(self.waiting.len());
        let tally = &mut self.tally;
        tally.peak_batch = tally.peak_batch.max(batch);
        tally.peak_queue_depth = tally.peak_queue_depth.max(self.waiting.len());
        tally.peak_kv_tokens = tally.peak_kv_tokens.max(self.kv_in_use);
        self.sample_series();
    }

    /// Debug builds only: checks every incremental ledger against its
    /// recompute-from-scratch definition after each iteration and each
    /// steady run. The token backlog equals its queue scan, the KV ledger
    /// equals private contexts plus resident cache blocks and stays
    /// within the budget, the prefix cache has no empty chain and its LRU
    /// index equals its chain scan, every submitted request is pending,
    /// queued, admitted or completed, and the clock never runs backwards.
    #[cfg(debug_assertions)]
    fn check_invariants(&mut self) {
        assert_eq!(
            self.backlog,
            self.backlog_oracle(),
            "incremental token backlog drifted from the queue scan"
        );
        assert_eq!(
            self.kv_in_use,
            self.active.iter().map(|a| a.kv_held).sum::<usize>() + self.prefix_resident_tokens(),
            "KV ledger must equal private contexts plus resident cache blocks"
        );
        assert!(
            self.kv_in_use <= self.kv_budget_tokens,
            "KV in use ({}) exceeded the budget ({})",
            self.kv_in_use,
            self.kv_budget_tokens
        );
        assert!(
            self.cache
                .as_ref()
                .is_none_or(PrefixCache::lru_matches_scan),
            "prefix cache has an empty chain or an LRU index drifted from its chain scan"
        );
        assert_eq!(
            self.pending.len() + self.waiting.len() + self.active.len() + self.outcomes.len(),
            self.submitted,
            "every submitted request is pending, queued, admitted or completed"
        );
        assert!(
            self.now >= self.checked_at,
            "the clock ran backwards from {} to {}",
            self.checked_at,
            self.now
        );
        self.checked_at = self.now;
    }

    /// Pauses the youngest admitted request: releases its private KV back
    /// to the pool (its cached prefix blocks merely lose a reference and
    /// stay resident — resuming will likely re-match them, making the
    /// recompute cheap) and returns its job to the head of the admission
    /// queue for resume. Returns whether the victim was decoding (so
    /// callers can check it against its plan entry). The caller guarantees
    /// `active` is non-empty and never preempts down to zero, preserving
    /// forward progress for the oldest.
    fn preempt_youngest(&mut self) -> bool {
        // ador-lint: allow(panic) — invariant: documented caller contract (active is non-empty)
        let mut victim = self.active.pop().expect("caller checks non-empty");
        let was_decoding = victim.is_decoding();
        self.kv_in_use -= victim.kv_held;
        if let (Some(cache), Some(group)) = (&mut self.cache, victim.job.request.prefix_group) {
            cache.release(group, victim.cached_tokens);
        }
        self.tally.preemptions += 1;
        // The victim re-enters the queue owing a full recompute (prompt
        // plus generated-so-far), where as an active it owed only its
        // remaining prefill.
        self.backlog += victim.job.prefill_target();
        self.backlog -= victim.prefill_target - victim.prefilled;
        victim.job.preempted = true;
        Self::emit(
            &mut self.sink,
            self.now,
            victim.job.request.id,
            EventKind::Preempt,
        );
        self.waiting.push_front(victim.job);
        was_decoding
    }

    /// Feeds the windowed time-series collector one post-iteration sample
    /// (no-op when collection is off).
    fn sample_series(&mut self) {
        let Some(series) = self.series.as_mut() else {
            return;
        };
        let cache = self
            .cache
            .as_ref()
            .map(PrefixCache::stats)
            .unwrap_or_default();
        series.observe(
            self.now,
            &SeriesSample {
                queue_depth: self.waiting.len(),
                active: self.active.len(),
                kv_in_use: self.kv_in_use,
                hit_tokens: conv::u64_from_usize(cache.hit_tokens),
                seen_tokens: conv::u64_from_usize(cache.hit_tokens + cache.miss_tokens),
                accepted: conv::u64_from_usize(self.tally.accepted_tokens),
                drafted: conv::u64_from_usize(self.tally.drafted_tokens),
                completed_tokens: conv::u64_from_usize(self.tally.generated_tokens),
            },
        );
    }

    /// KV tokens free for growth: the budget plus what eviction could
    /// reclaim, less what is resident. The one headroom rule of
    /// `admission` and the steady run.
    fn kv_headroom(&self) -> usize {
        let evictable = self.cache.as_ref().map_or(0, PrefixCache::evictable_tokens);
        (self.kv_budget_tokens + evictable).saturating_sub(self.kv_in_use)
    }

    /// Evicts cold cached prefix blocks, least recently used first, until
    /// `growth` more KV tokens fit the budget or nothing evictable is
    /// left, and returns whether they fit. The one eviction rule of
    /// `admission`'s pressure loop, `charge_kv` and the steady run.
    fn make_room(&mut self, growth: usize) -> bool {
        let over = (self.kv_in_use + growth).saturating_sub(self.kv_budget_tokens);
        if over == 0 {
            return true;
        }
        let freed = self.cache.as_mut().map_or(0, |c| c.evict(over));
        self.kv_in_use -= freed;
        freed >= over
    }

    /// Charges `tokens` of fresh KV growth to the ledger, evicting cold
    /// cached prefix blocks when the free budget does not cover it. The
    /// scheduler only grants growth that budget-plus-evictable headroom
    /// can absorb, so eviction always reclaims enough.
    fn charge_kv(&mut self, tokens: usize) {
        let fits = self.make_room(tokens);
        debug_assert!(fits, "scheduler granted KV growth beyond headroom");
        self.kv_in_use += tokens;
    }

    /// Publishes `active[idx]`'s resident context into the prefix cache,
    /// block-aligned: newly created blocks transfer ownership of their
    /// tokens from the request's private KV to the shared pool (no ledger
    /// change), while blocks a concurrent request already published are
    /// deduplicated — the private copies are returned to the ledger.
    fn cache_publish(&mut self, idx: usize) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        let a = &mut self.active[idx];
        let Some(group) = a.job.request.prefix_group else {
            return;
        };
        let context = a.job.request.input_tokens + a.job.generated;
        let aligned = (context / PREFIX_BLOCK_TOKENS) * PREFIX_BLOCK_TOKENS;
        if aligned <= a.cached_tokens {
            return;
        }
        let fresh = cache.extend(group, a.cached_tokens, context);
        let moved = aligned - a.cached_tokens;
        a.kv_held -= moved;
        a.cached_tokens = aligned;
        self.kv_in_use -= moved - fresh;
    }

    /// The live event recorder, if tracing is on — fleet drivers use
    /// this to record their own lifecycle events (request shedding
    /// happens at the router, not in the engine) into the same stream.
    pub fn event_sink_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.sink.as_mut()
    }

    /// Detaches and returns the event recorder (subsequent steps trace
    /// nothing), or `None` when tracing was off.
    pub fn take_event_sink(&mut self) -> Option<FlightRecorder> {
        self.sink.take()
    }

    /// Detaches and returns the time-series collector, or `None` when
    /// collection was off.
    pub fn take_series(&mut self) -> Option<SeriesCollector> {
        self.series.take()
    }
}

impl fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let evaluator = self.costs.evaluator();
        f.debug_struct("Engine")
            .field("arch", &evaluator.architecture().name)
            .field("model", &evaluator.model().name)
            .field("cfg", &self.cfg)
            .field("kv_budget_tokens", &self.kv_budget_tokens)
            .field("now", &self.now)
            .field("submitted", &self.submitted)
            .field("completed", &self.outcomes.len())
            .finish()
    }
}

/// Prefill tokens to grant a pass with `remaining` tokens to go, given
/// the iteration's remaining chunk budget and KV headroom. Completing
/// the pass needs one extra headroom token for the emitted token's KV.
fn chunk_take(remaining: usize, chunk_budget: usize, kv_headroom: usize) -> usize {
    let mut take = remaining.min(chunk_budget).min(kv_headroom);
    if take == remaining && take + 1 > kv_headroom {
        take = take.saturating_sub(1);
    }
    take
}

fn finish(job: Job, now: Seconds) -> RequestOutcome {
    let mean_tbt = job.mean_tbt_so_far().unwrap_or(Seconds::ZERO);
    RequestOutcome {
        // ador-lint: allow(panic) — invariant: finish() is only called after the last output token
        ttft: job.first_token_at.expect("finished jobs emitted a token") - job.request.arrival,
        mean_tbt,
        max_tbt: job.tbt_max,
        e2e: now - job.request.arrival,
        request: job.request,
    }
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::{ServingSim, TraceProfile};
    use ador_baselines::ador_table3;
    use ador_model::presets;
    use ador_perf::Deployment;
    use proptest::prelude::*;

    fn engine<'a>(
        arch: &'a ador_hw::Architecture,
        model: &'a ador_model::ModelConfig,
        cfg: SimConfig,
    ) -> Engine<'a> {
        ServingSim::new(arch, model, Deployment::single_device(), cfg)
            .unwrap()
            .engine()
    }

    #[test]
    fn stepwise_drive_matches_run_to_completion() {
        // Driving the engine one step at a time is exactly the
        // run-to-completion loop: same outcomes, same counters.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(4.0, 32).with_requests(40).with_seed(11);
        let requests =
            crate::RequestGenerator::new(4.0, TraceProfile::ultrachat_like(), 11).take(40);

        let (report, outcomes) = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_requests(requests.clone())
            .unwrap();

        let mut eng = engine(&arch, &model, cfg);
        for r in requests {
            eng.submit(r).unwrap();
        }
        while eng.step().unwrap() != StepEvent::Idle {}
        assert_eq!(eng.outcomes(), &outcomes[..]);
        assert_eq!(eng.report().unwrap(), report);
    }

    #[test]
    fn conservation_at_every_step() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(8.0, 8);
        let mut eng = engine(&arch, &model, cfg);
        for r in crate::RequestGenerator::new(8.0, TraceProfile::short_chat(), 3).take(30) {
            eng.submit(r).unwrap();
            assert_eq!(eng.submitted(), eng.completed() + eng.in_flight());
        }
        loop {
            assert_eq!(eng.submitted(), eng.completed() + eng.in_flight());
            if eng.step().unwrap() == StepEvent::Idle {
                break;
            }
        }
        assert!(eng.is_drained());
        assert_eq!(eng.completed(), 30);
    }

    #[test]
    fn bounded_step_respects_the_horizon() {
        // An empty engine must not jump past the horizon: a router needs
        // the replica parked at the routing decision point, not warped to
        // its own next arrival.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mut eng = engine(&arch, &model, SimConfig::new(1.0, 8));
        eng.submit(Request::new(0, Seconds::new(5.0), 64, 4))
            .unwrap();
        eng.step_until(Seconds::new(2.0)).unwrap();
        assert_eq!(eng.now(), Seconds::ZERO, "must not jump to t=5 arrival");
        assert_eq!(eng.completed(), 0);
        // Unbounded stepping then drains it.
        while eng.step().unwrap() != StepEvent::Idle {}
        assert_eq!(eng.completed(), 1);
        assert!(eng.now() >= Seconds::new(5.0));
    }

    #[test]
    fn next_event_time_tracks_work_and_arrivals() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mut eng = engine(&arch, &model, SimConfig::new(1.0, 8));
        // Drained engine: no next event.
        assert_eq!(eng.next_event_time(), None);
        // Empty engine with a future submission: the pending arrival.
        eng.submit(Request::new(0, Seconds::new(3.0), 64, 4))
            .unwrap();
        assert_eq!(eng.next_event_time(), Some(Seconds::new(3.0)));
        // Stepping at that instant makes progress (the clock jumps), and
        // from then on the next event is the engine's own clock until the
        // request drains.
        assert_eq!(eng.step().unwrap(), StepEvent::Jumped);
        while let Some(t) = eng.next_event_time() {
            assert_eq!(t, eng.now(), "busy engine works at its own clock");
            eng.step().unwrap();
        }
        assert!(eng.is_drained());
        assert_eq!(eng.completed(), 1);
    }

    #[test]
    fn next_event_time_never_runs_backwards() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mut eng = engine(&arch, &model, SimConfig::new(4.0, 4));
        for r in crate::RequestGenerator::new(4.0, TraceProfile::short_chat(), 9).take(20) {
            eng.submit(r).unwrap();
        }
        let mut last = Seconds::ZERO;
        while let Some(t) = eng.next_event_time() {
            assert!(t >= last, "next event {t} regressed below {last}");
            last = t;
            eng.step().unwrap();
        }
        assert_eq!(eng.completed(), 20);
    }

    #[test]
    fn out_of_order_submission_is_resorted() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mut eng = engine(&arch, &model, SimConfig::new(1.0, 8));
        eng.submit(Request::new(1, Seconds::new(1.0), 64, 4))
            .unwrap();
        eng.submit(Request::new(0, Seconds::ZERO, 64, 4)).unwrap();
        while eng.step().unwrap() != StepEvent::Idle {}
        // Request 0 arrived first and must complete first.
        assert_eq!(eng.outcomes()[0].request.id, 0);
    }

    #[test]
    fn imported_context_skips_prefill_compute() {
        // A disaggregated decode-side continuation: all but one prompt
        // token arrive as transferred KV. TTFT collapses to roughly one
        // decode-sized step, and the prefill counter records only the
        // recomputed tail token.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 8);

        let mut cold = engine(&arch, &model, cfg);
        cold.submit(Request::new(0, Seconds::ZERO, 2048, 8))
            .unwrap();
        while cold.step().unwrap() != StepEvent::Idle {}

        let mut warm = engine(&arch, &model, cfg);
        warm.submit(Request::new(0, Seconds::ZERO, 2048, 8).with_imported_context(2047))
            .unwrap();
        while warm.step().unwrap() != StepEvent::Idle {}

        assert_eq!(warm.counters().prefilled_tokens, 1);
        assert_eq!(cold.counters().prefilled_tokens, 2048);
        let (cold, warm) = (&cold.outcomes()[0], &warm.outcomes()[0]);
        assert!(
            warm.ttft < cold.ttft / 4.0,
            "imported context must skip the prefill wall: {} vs {}",
            warm.ttft,
            cold.ttft
        );
        // The imported KV is still resident context: decode steps attend
        // to the full 2048-token prompt either way, so generation length
        // and totals match.
        assert_eq!(warm.request.total_tokens(), cold.request.total_tokens());
    }

    #[test]
    fn imported_context_charges_kv_at_admission() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mut eng = engine(&arch, &model, SimConfig::new(1.0, 8));
        eng.submit(Request::new(0, Seconds::ZERO, 1024, 4).with_imported_context(1023))
            .unwrap();
        // First step admits and prefills the single recomputed token; the
        // imported 1023 tokens must already sit in the KV ledger.
        eng.step().unwrap();
        assert!(
            eng.kv_in_use() >= 1023,
            "imported KV not resident: {} tokens in use",
            eng.kv_in_use()
        );
        while eng.step().unwrap() != StepEvent::Idle {}
        assert_eq!(eng.completed(), 1);
        assert_eq!(eng.kv_in_use(), 0, "completion releases imported KV too");
    }

    #[test]
    fn imported_context_is_recomputed_after_preemption() {
        // Starve the KV budget so the youngest import gets preempted: the
        // transferred KV is dropped with the rest of its context, and the
        // resume prefills the full prompt (imported_context is ignored for
        // resumed jobs). The engine must still drain with exact ledgers —
        // the debug asserts in step() check backlog and KV each iteration.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 8).with_kv_memory_fraction(0.006);
        let mut eng = engine(&arch, &model, cfg);
        let budget = eng.kv_budget_tokens();
        let input = budget * 2 / 5;
        let output = budget / 8;
        for id in 0..4u64 {
            eng.submit(Request::new(id, Seconds::ZERO, input, output).with_imported_context(input))
                .unwrap();
        }
        while eng.step().unwrap() != StepEvent::Idle {}
        assert_eq!(eng.completed(), 4);
        assert!(
            eng.counters().preemptions > 0,
            "scenario must actually exercise preemption of imported contexts"
        );
        assert!(
            eng.counters().prefilled_tokens > 4,
            "resumed imports recompute their prompts"
        );
    }

    #[test]
    fn empty_replica_reports_none() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let eng = engine(&arch, &model, SimConfig::new(1.0, 8));
        assert!(eng.report().is_none());
        assert!(eng.is_drained());
    }

    #[test]
    fn prefix_cache_reuses_session_context() {
        // Turn 1: 1024-token prompt, 64-token response (context 1088 = 17
        // exact blocks). Turn 2 prompts with that full context plus 64 new
        // tokens, long after turn 1 completed.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let run = |caching: bool| {
            let cfg = SimConfig::new(1.0, 8).with_prefix_caching(caching);
            let mut eng = engine(&arch, &model, cfg);
            eng.submit(Request::new(0, Seconds::ZERO, 1024, 64).with_prefix_group(42))
                .unwrap();
            eng.submit(Request::new(1, Seconds::new(100.0), 1152, 64).with_prefix_group(42))
                .unwrap();
            while eng.step().unwrap() != StepEvent::Idle {}
            (eng.counters(), eng.outcomes().to_vec(), eng.kv_in_use())
        };
        let (cold, cold_outcomes, cold_kv) = run(false);
        let (warm, warm_outcomes, warm_kv) = run(true);

        // Cache off: every prompt token is prefilled; no cache residue.
        assert_eq!(cold.prefilled_tokens, 1024 + 1152);
        assert_eq!(cold.prefix_hit_tokens, 0);
        assert_eq!(cold_kv, 0, "no cache => nothing resident after drain");

        // Cache on: turn 2 skips the 17 published context blocks and
        // prefills only its 64 fresh tokens.
        assert_eq!(warm.prefilled_tokens, 1024 + 64);
        assert_eq!(warm.prefix_hit_tokens, 1088);
        // Turn 1's shareable span (960 tokens: input − 1 rounded down to
        // blocks) was a cold miss; turn 2 missed nothing.
        assert_eq!(warm.prefix_miss_tokens, 960);
        assert!(
            warm_outcomes[1].ttft < cold_outcomes[1].ttft,
            "warm turn-2 TTFT {} must beat cold {}",
            warm_outcomes[1].ttft,
            cold_outcomes[1].ttft
        );
        // After drain only retained cache blocks remain: turn 2's full
        // context, block-aligned ((1152 + 64) / 64 = 19 blocks).
        assert_eq!(warm_kv, 19 * PREFIX_BLOCK_TOKENS);
    }

    #[test]
    fn prefix_cache_shares_blocks_across_concurrent_requests() {
        // Two identical-group prompts in flight together: the second
        // matches whatever the first published, and shared blocks are
        // charged once — peak KV stays below two full private contexts.
        // A 2048-token chunk staggers the admissions, so the first prompt
        // publishes its blocks one iteration before the second is sized.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 8)
            .with_prefix_caching(true)
            .with_prefill_chunk(2048);
        let mut eng = engine(&arch, &model, cfg);
        for id in 0..2 {
            eng.submit(Request::new(id, Seconds::ZERO, 2048, 32).with_prefix_group(7))
                .unwrap();
        }
        while eng.step().unwrap() != StepEvent::Idle {}
        assert_eq!(eng.completed(), 2);
        let counters = eng.counters();
        assert!(
            counters.prefix_hit_tokens > 0,
            "the later admission must reuse the earlier prompt's blocks"
        );
        assert!(
            counters.peak_kv_tokens < 2 * (2048 + 32),
            "shared blocks must not be double-charged (peak {})",
            counters.peak_kv_tokens
        );
    }

    #[test]
    fn prefix_caching_is_deterministic_and_leaves_uncached_requests_alone() {
        // Untagged requests bypass the cache entirely: a cache-enabled
        // engine produces the exact same outcomes as a cache-free one.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let requests =
            crate::RequestGenerator::new(6.0, TraceProfile::ultrachat_like(), 3).take(30);
        let run = |caching: bool| {
            let cfg = SimConfig::new(6.0, 16).with_prefix_caching(caching);
            let mut eng = engine(&arch, &model, cfg);
            for r in requests.clone() {
                eng.submit(r).unwrap();
            }
            while eng.step().unwrap() != StepEvent::Idle {}
            (eng.outcomes().to_vec(), eng.report().unwrap())
        };
        let (outcomes_off, report_off) = run(false);
        let (outcomes_on, report_on) = run(true);
        assert_eq!(outcomes_off, outcomes_on);
        assert_eq!(report_off, report_on);
        assert_eq!(
            report_on.prefix_hit_tokens + report_on.prefix_miss_tokens,
            0
        );
    }

    #[test]
    fn submit_validates_requests() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mut eng = engine(&arch, &model, SimConfig::new(1.0, 8));
        let mut bad = Request::new(3, Seconds::ZERO, 10, 10);
        bad.output_tokens = 0;
        assert_eq!(
            eng.submit(bad).unwrap_err(),
            SimError::InvalidRequest { id: 3 }
        );
        let budget = eng.kv_budget_tokens();
        let big = Request::new(4, Seconds::ZERO, budget, budget);
        assert!(matches!(
            eng.submit(big).unwrap_err(),
            SimError::NoKvHeadroom { .. }
        ));
        // `Seconds` sums are unchecked: an arrival can overflow to +inf,
        // and inf - inf is NaN.
        let inf = Seconds::new(f64::MAX) * 2.0;
        for (id, arrival) in [(5, inf), (6, inf - inf)] {
            let late = Request {
                arrival,
                ..Request::new(id, Seconds::ZERO, 10, 10)
            };
            assert_eq!(
                eng.submit(late).unwrap_err(),
                SimError::InvalidRequest { id }
            );
        }
        assert_eq!(eng.submitted(), 0, "rejected submissions are not counted");
    }

    #[test]
    fn backlog_is_maintained_incrementally() {
        // The O(1) counter must track the queue-scan definition at every
        // step (including through preemptions) and drain to zero.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(6.0, 8).with_kv_memory_fraction(0.05);
        let mut eng = engine(&arch, &model, cfg);
        for r in crate::RequestGenerator::new(6.0, TraceProfile::ultrachat_like(), 5).take(40) {
            eng.submit(r).unwrap();
            assert_eq!(eng.backlog_tokens(), eng.backlog_oracle());
        }
        loop {
            assert_eq!(eng.backlog_tokens(), eng.backlog_oracle());
            if eng.step().unwrap() == StepEvent::Idle {
                break;
            }
        }
        assert_eq!(eng.backlog_tokens(), 0, "drained engine has no backlog");
    }

    proptest! {
        /// Seed-swept version of the incremental-backlog pin, over varied
        /// load and KV pressure.
        #[test]
        fn backlog_matches_the_scan_oracle(
            seed in 0u64..12,
            rate in 1.0f64..12.0,
        ) {
            let arch = ador_table3();
            let model = presets::llama3_8b();
            let cfg = SimConfig::new(rate, 8).with_kv_memory_fraction(0.04);
            let mut eng = engine(&arch, &model, cfg);
            for r in crate::RequestGenerator::new(rate, TraceProfile::short_chat(), seed).take(25)
            {
                eng.submit(r).unwrap();
            }
            loop {
                prop_assert_eq!(eng.backlog_tokens(), eng.backlog_oracle());
                if eng.step().unwrap() == StepEvent::Idle {
                    break;
                }
            }
            prop_assert_eq!(eng.backlog_tokens(), 0);
        }

        /// Telemetry must be pure observation: enabling it changes no
        /// outcome, report field or counter, for any seed.
        #[test]
        fn telemetry_never_perturbs_the_simulation(seed in 0u64..12) {
            let arch = ador_table3();
            let model = presets::llama3_8b();
            let cfg = SimConfig::new(5.0, 16).with_requests(30).with_seed(seed);
            let run = |cfg: SimConfig| {
                let requests = crate::RequestGenerator::new(
                    5.0, TraceProfile::ultrachat_like(), seed).take(30);
                let mut eng = engine(&arch, &model, cfg);
                for r in requests {
                    eng.submit(r).unwrap();
                }
                while eng.step().unwrap() != StepEvent::Idle {}
                (eng.report().unwrap(), eng.into_outcomes())
            };
            let off = run(cfg);
            let traced = run(cfg.with_telemetry(
                ador_telemetry::TelemetryConfig::trace()
                    .with_series(Seconds::from_millis(50.0)),
            ));
            prop_assert_eq!(off, traced);
        }
    }

    /// An engine's whole observable state as text. The `Debug` text of an
    /// `f64` tells every bit pattern apart (NaN payloads aside), so equal
    /// fingerprints mean bit-identical state.
    fn fingerprint(eng: &Engine<'_>) -> String {
        format!(
            "now {:?} steps {} batch {:?} queue {:?} kv {} backlog {} prev {} \
             pending {:?} waiting {:?} active {:?} cache {:?} {:?} counters {:?} outcomes {:?}",
            eng.now,
            eng.steps,
            eng.batch_samples,
            eng.queue_samples,
            eng.kv_in_use,
            eng.backlog,
            eng.prev_step_prefilled,
            eng.pending,
            eng.waiting,
            eng.active,
            eng.prefix_stats(),
            eng.prefix_resident_tokens(),
            eng.counters(),
            eng.outcomes,
        )
    }

    /// `step_until(horizon)` without steady runs, through the public
    /// one-iteration `step`: step while the clock is below the horizon
    /// and the next event is not beyond it.
    fn step_to(eng: &mut Engine<'_>, horizon: Seconds) {
        while eng.now() < horizon && eng.next_event_time().is_some_and(|t| t <= horizon) {
            eng.step().unwrap();
        }
    }

    /// Drives `requests`, submitted up front, through an engine stepped
    /// by `step` and a twin advanced by `step_until` to the same
    /// horizons: the end of every seventh iteration (where a run must
    /// stop exactly) and the midpoint of the two iterations ending there
    /// (inside a run), then to the end. Asserts equal fingerprints at
    /// each horizon and equal reports, event streams and series points
    /// at the end, and returns the stepped engine's final counters.
    fn assert_twins_agree(cfg: SimConfig, requests: &[Request]) -> EngineCounters {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let build = || {
            let mut eng = engine(&arch, &model, cfg);
            for r in requests {
                eng.submit(*r).unwrap();
            }
            eng
        };
        let (mut stepped, mut twin, mut probe) = (build(), build(), build());
        let mut horizons = Vec::new();
        let mut ends = [Seconds::ZERO; 3];
        for i in 0.. {
            if probe.step().unwrap() == StepEvent::Idle {
                break;
            }
            ends = [ends[1], ends[2], probe.now()];
            if i % 7 == 0 {
                horizons.push(ends[2]);
                horizons.push(ends[0] + (ends[2] - ends[0]) * 0.5);
            }
        }
        horizons.sort_by(|a, b| a.get().total_cmp(&b.get()));
        for horizon in horizons {
            step_to(&mut stepped, horizon);
            twin.step_until(horizon).unwrap();
            assert_eq!(fingerprint(&stepped), fingerprint(&twin), "at {horizon}");
        }
        while stepped.step().unwrap() != StepEvent::Idle {}
        twin.step_until(Seconds::new(f64::MAX)).unwrap();
        assert_eq!(fingerprint(&stepped), fingerprint(&twin));
        assert_eq!(
            format!("{:?}", stepped.report()),
            format!("{:?}", twin.report())
        );
        let events = |eng: &mut Engine<'_>| eng.take_event_sink().map(|mut r| r.drain());
        assert_eq!(
            format!("{:?}", events(&mut stepped)),
            format!("{:?}", events(&mut twin))
        );
        let points = |eng: &mut Engine<'_>| eng.take_series().map(SeriesCollector::finish);
        assert_eq!(
            format!("{:?}", points(&mut stepped)),
            format!("{:?}", points(&mut twin))
        );
        stepped.counters()
    }

    /// Lifecycle tracing with a time series: the run must emit each
    /// `Complete` event and series point the general step does.
    fn traced() -> ador_telemetry::TelemetryConfig {
        ador_telemetry::TelemetryConfig::trace()
            .with_detail(EventDetail::Lifecycle)
            .with_series(Seconds::from_millis(5.0))
    }

    #[test]
    fn a_run_evicts_the_cold_blocks_the_general_step_evicts() {
        // Twelve one-turn sessions of distinct groups, one a second,
        // finish and leave their contexts as cold blocks that fill the
        // budget; four long decodes then arrive, and their growth must
        // evict those blocks one at a time, oldest first, through steady
        // stretches.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 8)
            .with_prefix_caching(true)
            .with_kv_memory_fraction(0.006)
            .with_telemetry(traced());
        let budget = engine(&arch, &model, cfg).kv_budget_tokens();
        let prompt = budget / 6;
        let mut requests: Vec<Request> = (0..12)
            .map(|id| Request::new(id, Seconds::new(id as f64), prompt, 2).with_prefix_group(id))
            .collect();
        requests.extend(
            (12..16).map(|id| Request::new(id, Seconds::new(20.0), 64, prompt / 2 + id as usize)),
        );
        let counters = assert_twins_agree(cfg, &requests);
        assert!(
            counters.prefix_evicted_tokens > prompt,
            "the decodes must evict cold blocks ({} tokens evicted)",
            counters.prefix_evicted_tokens
        );
        assert_eq!(counters.preemptions, 0, "evictions alone make room");
    }

    #[test]
    fn a_run_waits_behind_a_full_batch() {
        // Twelve requests for a batch of four: eight wait in the queue
        // while the batch decodes, and each completion admits one.
        let cfg = SimConfig::new(1.0, 4).with_telemetry(traced());
        let requests: Vec<Request> = (0..12)
            .map(|id| Request::new(id, Seconds::ZERO, 128, 40 + 13 * id as usize))
            .collect();
        let counters = assert_twins_agree(cfg, &requests);
        assert_eq!(counters.peak_queue_depth, 8);
    }

    #[test]
    fn a_run_retires_the_requests_it_finishes() {
        // Staggered response lengths, two of them equal: every stretch
        // between completions is one run, and one run finishes two
        // requests at once, which retire highest slot first.
        let cfg = SimConfig::new(1.0, 8)
            .with_prefix_caching(true)
            .with_telemetry(traced());
        let requests: Vec<Request> = [(0, 90), (1, 37), (2, 150), (3, 37), (4, 211)]
            .into_iter()
            .map(|(id, output)| {
                Request::new(id, Seconds::ZERO, 300, output).with_prefix_group(id % 2)
            })
            .collect();
        let counters = assert_twins_agree(cfg, &requests);
        assert_eq!(counters.generated_tokens, 90 + 37 + 150 + 37 + 211);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]
        /// `step_until` fast-forwards steady decode runs and `step` never
        /// does, so an engine driven by `step` and its twin driven by
        /// `step_until` to the same horizons (random instants, most of
        /// them inside runs, and arrival instants) must agree bit for bit
        /// at every horizon and at the end: state, counters, outcomes,
        /// report, event stream and series points. The scenarios cover
        /// both scheduler policies, prefix caching, KV-scarce budgets
        /// (eviction and preemption), imported context, speculation
        /// (where the run must fall back), Lifecycle tracing with a
        /// series and PerToken tracing, and requests submitted up front
        /// or at their arrivals, as a fleet submits them. Release builds
        /// run four times the cases.
        #[test]
        fn step_until_matches_stepping_bit_for_bit(
            seed in 0u64..1_000_000,
            rate in 2.0f64..24.0,
            long in 0u8..2,
            policy in 0u8..2,
            caching in 0u8..2,
            kv in 0u8..3,
            imported in 0u8..2,
            spec in 0u8..4,
            telemetry in 0u8..4,
            at_arrival in 0u8..2,
        ) {
            let arch = ador_table3();
            let model = presets::llama3_8b();
            let speculation = match spec {
                0 | 1 => SpeculationConfig::off(),
                2 => SpeculationConfig::new(SpeculationPolicy::Fixed(2)),
                _ => SpeculationConfig::new(SpeculationPolicy::SloAdaptive),
            };
            let series = Seconds::from_millis(20.0);
            let telemetry = match telemetry {
                0 => ador_telemetry::TelemetryConfig::OFF,
                1 => ador_telemetry::TelemetryConfig::OFF.with_series(series),
                2 => ador_telemetry::TelemetryConfig::trace()
                    .with_detail(EventDetail::Lifecycle)
                    .with_series(series),
                _ => ador_telemetry::TelemetryConfig::trace(),
            };
            let cfg = SimConfig::new(rate, 8)
                .with_policy([SchedulerPolicy::Fused, SchedulerPolicy::DecodePrioritized]
                    [usize::from(policy)])
                .with_prefix_caching(caching == 1)
                .with_kv_memory_fraction([0.9, 0.02, 0.006][usize::from(kv)])
                .with_speculation(speculation)
                .with_telemetry(telemetry);
            let profile = if long == 1 {
                TraceProfile::ultrachat_like()
            } else {
                TraceProfile::short_chat()
            };
            let requests: Vec<Request> = crate::RequestGenerator::new(rate, profile, seed)
                .take(24)
                .into_iter()
                .map(|r| {
                    let r = r
                        .with_prefix_group(r.id % 3)
                        .with_slo(crate::Slo::tbt_only(Seconds::from_millis(5.0)));
                    if imported == 1 && r.id % 2 == 0 {
                        r.with_imported_context(r.input_tokens - 1)
                    } else {
                        r
                    }
                })
                .collect();

            let mut stepped = engine(&arch, &model, cfg);
            let mut twin = engine(&arch, &model, cfg);
            let submit = |eng: &mut Engine<'_>, r: Request| {
                // A request larger than a scarce budget is rejected by
                // both engines alike.
                let _ = eng.submit(r);
            };
            // Horizons: instants spread over the run (most land inside a
            // steady run), every fifth iteration end (a run must stop
            // exactly there), and arrival instants: every one when
            // requests are submitted at their arrival, else every fourth,
            // so that most runs end at a pending arrival.
            let last = requests.last().map_or(Seconds::ZERO, |r| r.arrival);
            let mut horizons: Vec<(Seconds, Option<Request>)> = requests
                .iter()
                .filter(|r| at_arrival == 1 || r.id % 4 == 0)
                .map(|r| (r.arrival, (at_arrival == 1).then_some(*r)))
                .collect();
            for i in 0..24 {
                let u = ador_spec::splitmix64(seed.wrapping_add(i)) >> 11;
                let fraction = conv::f64_from_u64(u) / conv::f64_from_u64(1 << 53);
                horizons.push((last * (1.5 * fraction), None));
            }
            let mut probe = engine(&arch, &model, cfg);
            for r in &requests {
                submit(&mut probe, *r);
            }
            for i in 0.. {
                if probe.step().unwrap() == StepEvent::Idle {
                    break;
                }
                if i % 5 == 0 {
                    horizons.push((probe.now(), None));
                }
            }
            horizons.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
            if at_arrival == 0 {
                for r in &requests {
                    submit(&mut stepped, *r);
                    submit(&mut twin, *r);
                }
            }
            for (horizon, arriving) in horizons {
                step_to(&mut stepped, horizon);
                twin.step_until(horizon).unwrap();
                prop_assert_eq!(fingerprint(&stepped), fingerprint(&twin));
                if let Some(r) = arriving {
                    submit(&mut stepped, r);
                    submit(&mut twin, r);
                }
            }
            while stepped.step().unwrap() != StepEvent::Idle {}
            twin.step_until(Seconds::new(f64::MAX)).unwrap();
            prop_assert!(twin.is_drained());
            prop_assert_eq!(fingerprint(&stepped), fingerprint(&twin));
            prop_assert_eq!(
                format!("{:?}", stepped.report()),
                format!("{:?}", twin.report())
            );
            let events = |eng: &mut Engine<'_>| eng.take_event_sink().map(|mut r| r.drain());
            prop_assert_eq!(format!("{:?}", events(&mut stepped)), format!("{:?}", events(&mut twin)));
            let points = |eng: &mut Engine<'_>| eng.take_series().map(SeriesCollector::finish);
            prop_assert_eq!(format!("{:?}", points(&mut stepped)), format!("{:?}", points(&mut twin)));
        }
    }

    /// Runs `requests` on the whole KV pool under `cfg` through an
    /// engine stepped by `step` until a decode's context bucket rounds up
    /// past the pool and fails to price, and through a twin advanced by
    /// `step_until` to the end. Both must return that error and leave the
    /// same state. Returns the stepped engine's counters.
    fn assert_twins_fail_alike(cfg: SimConfig, requests: &[Request]) -> EngineCounters {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = cfg.with_kv_memory_fraction(1.0);
        let (mut stepped, mut twin) = (engine(&arch, &model, cfg), engine(&arch, &model, cfg));
        for r in requests {
            stepped.submit(*r).unwrap();
            twin.submit(*r).unwrap();
        }
        let stepped_err = loop {
            match stepped.step() {
                Ok(StepEvent::Idle) => panic!("the scenario must fail to price"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        let twin_err = twin.step_until(Seconds::new(f64::MAX)).unwrap_err();
        assert!(matches!(
            twin_err,
            SimError::Perf(ador_perf::PerfError::KvCacheTooLarge { .. })
        ));
        assert_eq!(twin_err, stepped_err);
        assert_eq!(fingerprint(&stepped), fingerprint(&twin));
        stepped.counters()
    }

    /// The KV budget of the whole pool, in tokens.
    fn pool_tokens() -> usize {
        let (arch, model) = (ador_table3(), presets::llama3_8b());
        engine(
            &arch,
            &model,
            SimConfig::new(1.0, 8).with_kv_memory_fraction(1.0),
        )
        .kv_budget_tokens()
    }

    #[test]
    fn a_pricing_error_inside_a_run_keeps_the_iterations_before_it() {
        // The run meets the failing decode mid-way: it must commit the
        // iterations before it and return the error, as stepping does.
        let pool = pool_tokens();
        let input = pool / 128 * 128 - 40;
        let counters = assert_twins_fail_alike(
            SimConfig::new(1.0, 8),
            &[Request::new(0, Seconds::ZERO, input, pool - input)],
        );
        assert!(counters.generated_tokens > 2, "the run made progress");
    }

    #[test]
    fn a_pricing_error_at_a_runs_first_iteration_changes_nothing() {
        // A prompt of whole buckets prefills, and the first decode after
        // it fails: the run must leave the prefill step's flag set.
        let pool = pool_tokens();
        let input = pool / 128 * 128;
        let counters = assert_twins_fail_alike(
            SimConfig::new(1.0, 8),
            &[Request::new(0, Seconds::ZERO, input, pool - input)],
        );
        assert_eq!(counters.generated_tokens, 1, "only the prefill's token");
    }

    #[test]
    fn a_pricing_error_inside_a_run_makes_its_iterations_eviction() {
        // A one-token session leaves `cold` blocks resident, then a batch
        // of 64 equal decodes, prefilled in one step, grows until its
        // mean context's bucket rounds up past the pool's 64th part. With
        // `cold` chosen from the pool's remainder, the failing iteration
        // is the first whose growth must evict, and `admission` evicts
        // before `timing` fails, so the run must too.
        let (pool, n) = (pool_tokens(), 64);
        let whole = pool / (n * 128) * 128;
        let cold = (pool % (n * 128)).saturating_sub(64) / 64;
        assert!(cold > 0, "the pool leaves no remainder for cold blocks");
        let mut requests = vec![
            Request::new(0, Seconds::ZERO, cold * PREFIX_BLOCK_TOKENS + 1, 1).with_prefix_group(1),
        ];
        requests
            .extend((1..=n as u64).map(|id| Request::new(id, Seconds::new(1.0), whole - 200, 400)));
        let cfg = SimConfig::new(1.0, n)
            .with_prefix_caching(true)
            .with_prefill_chunk(1 << 30);
        let counters = assert_twins_fail_alike(cfg, &requests);
        assert_eq!(counters.prefix_evicted_tokens, PREFIX_BLOCK_TOKENS);
        assert_eq!(counters.generated_tokens, 1 + n * 201);
    }

    #[test]
    fn trace_captures_the_request_lifecycle() {
        // One lone request: the event stream is exactly
        // enqueue → admit → prefill chunks → commits → complete.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 8)
            .with_prefill_chunk(512)
            .with_telemetry(ador_telemetry::TelemetryConfig::trace());
        let mut eng = engine(&arch, &model, cfg);
        eng.submit(Request::new(7, Seconds::ZERO, 1024, 4)).unwrap();
        while eng.step().unwrap() != StepEvent::Idle {}
        let events = eng.take_event_sink().unwrap().drain();
        assert!(eng.take_event_sink().is_none(), "sink was detached");
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds[0], EventKind::Enqueue);
        assert!(
            matches!(
                kinds[1],
                EventKind::Admit {
                    cached_tokens: 0,
                    ideal_us
                } if ideal_us > 0
            ),
            "admit carries the request-alone prefill bound: {:?}",
            kinds[1]
        );
        assert_eq!(
            kinds[2..4],
            [
                EventKind::PrefillChunk { tokens: 512 },
                EventKind::PrefillChunk { tokens: 512 },
            ]
        );
        assert_eq!(*kinds.last().unwrap(), EventKind::Complete);
        let commits = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Commit { committed, .. } => Some(committed),
                _ => None,
            })
            .sum::<u32>();
        assert_eq!(commits, 4, "every generated token is committed");
        assert!(events.iter().all(|e| e.request == 7));
        let times: Vec<Seconds> = events.iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "times are monotone");
    }

    #[test]
    fn lifecycle_detail_elides_steady_commits_but_keeps_the_phase_structure() {
        // Lifecycle detail drops only the steady one-token decode
        // commits: what remains is a subset of the per-token stream,
        // the non-commit events are untouched, and the phase spans —
        // which only need the boundary commit — come out identical.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let run = |detail: EventDetail| {
            let cfg = SimConfig::new(4.0, 16)
                .with_telemetry(ador_telemetry::TelemetryConfig::trace().with_detail(detail));
            let mut eng = engine(&arch, &model, cfg);
            for r in crate::RequestGenerator::new(4.0, TraceProfile::short_chat(), 3).take(12) {
                eng.submit(r).unwrap();
            }
            while eng.step().unwrap() != StepEvent::Idle {}
            eng.take_event_sink().unwrap().drain()
        };
        let full = run(EventDetail::PerToken);
        let lean = run(EventDetail::Lifecycle);

        let is_commit = |e: &Event| matches!(e.kind, EventKind::Commit { .. });
        let full_commits = full.iter().filter(|e| is_commit(e)).count();
        let lean_commits = lean.iter().filter(|e| is_commit(e)).count();
        assert!(
            lean_commits < full_commits,
            "steady commits are elided ({lean_commits} vs {full_commits})"
        );
        let non_commit = |events: &[Event]| -> Vec<Event> {
            events.iter().filter(|e| !is_commit(e)).copied().collect()
        };
        assert_eq!(
            non_commit(&full),
            non_commit(&lean),
            "only commit events differ between details"
        );
        let mut cursor = full.iter();
        assert!(
            lean.iter().all(|e| cursor.any(|f| f == e)),
            "the lifecycle stream is an ordered subset of the per-token stream"
        );
        assert_eq!(
            ador_telemetry::spans(&full),
            ador_telemetry::spans(&lean),
            "phase decomposition only needs the boundary commits"
        );
    }

    #[test]
    fn preemption_traces_a_preempt_then_resume() {
        // Starve the KV budget so decode growth must evict the youngest;
        // its trace shows Preempt followed by Resume, and the stream still
        // completes every request.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 8)
            .with_kv_memory_fraction(0.005)
            .with_telemetry(ador_telemetry::TelemetryConfig::trace());
        let mut eng = engine(&arch, &model, cfg);
        let budget = eng.kv_budget_tokens();
        let slice = budget / 3;
        for id in 0..4u64 {
            eng.submit(Request::new(id, Seconds::ZERO, slice / 4, slice))
                .unwrap();
        }
        while eng.step().unwrap() != StepEvent::Idle {}
        assert!(
            eng.counters().preemptions > 0,
            "config must force preemption"
        );
        let events = eng.take_event_sink().unwrap().drain();
        let victim = events
            .iter()
            .find(|e| e.kind == EventKind::Preempt)
            .unwrap()
            .request;
        let kinds: Vec<EventKind> = events
            .iter()
            .filter(|e| e.request == victim)
            .map(|e| e.kind)
            .collect();
        let preempt_at = kinds.iter().position(|k| *k == EventKind::Preempt).unwrap();
        assert!(
            kinds[preempt_at..].contains(&EventKind::Resume),
            "a preempted request resumes: {kinds:?}"
        );
        assert_eq!(*kinds.last().unwrap(), EventKind::Complete);
    }

    #[test]
    fn flight_recorder_keeps_only_the_tail() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(4.0, 16)
            .with_telemetry(ador_telemetry::TelemetryConfig::flight_recorder(16));
        let mut eng = engine(&arch, &model, cfg);
        for r in crate::RequestGenerator::new(4.0, TraceProfile::short_chat(), 2).take(20) {
            eng.submit(r).unwrap();
        }
        while eng.step().unwrap() != StepEvent::Idle {}
        let events = eng.take_event_sink().unwrap().drain();
        assert_eq!(events.len(), 16, "ring is bounded at its capacity");
        assert!(
            events.iter().any(|e| e.kind == EventKind::Complete),
            "the tail of the run includes the last completions"
        );
    }

    #[test]
    fn a_ring_of_unbounded_capacity_runs_like_a_log() {
        // The capacity is a bound, not a reservation: reserving
        // `usize::MAX` events up front would overflow, so the engine
        // must build, run and record exactly what an unbounded log does.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let run = |telemetry| {
            let mut eng = engine(
                &arch,
                &model,
                SimConfig::new(4.0, 16).with_telemetry(telemetry),
            );
            for r in crate::RequestGenerator::new(4.0, TraceProfile::short_chat(), 2).take(20) {
                eng.submit(r).unwrap();
            }
            while eng.step().unwrap() != StepEvent::Idle {}
            eng.take_event_sink().unwrap().drain()
        };
        let ring = run(ador_telemetry::TelemetryConfig::flight_recorder(usize::MAX));
        assert!(!ring.is_empty());
        assert_eq!(ring, run(ador_telemetry::TelemetryConfig::trace()));
    }

    #[test]
    fn series_collector_samples_the_run() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(4.0, 16).with_telemetry(
            ador_telemetry::TelemetryConfig::OFF.with_series(Seconds::from_millis(20.0)),
        );
        let mut eng = engine(&arch, &model, cfg);
        for r in crate::RequestGenerator::new(4.0, TraceProfile::ultrachat_like(), 3).take(20) {
            eng.submit(r).unwrap();
        }
        while eng.step().unwrap() != StepEvent::Idle {}
        assert!(eng.take_event_sink().is_none(), "no event sink requested");
        let series = eng.take_series().unwrap().finish();
        assert!(series.points.len() > 1, "a multi-second run yields points");
        let t: Vec<Seconds> = series.points.iter().map(|p| p.time).collect();
        assert!(t.windows(2).all(|w| w[0] < w[1]), "sample times increase");
        assert!(series
            .points
            .iter()
            .any(|p| p.active > 0 && p.kv_in_use > 0));
    }

    #[test]
    fn step_cost_tables_are_shared_only_between_equal_inputs() {
        // Two separately built copies of one chip share a table; a chip
        // with doubled DRAM bandwidth, another model and a two-way
        // deployment each get a table of their own, priced as a fresh
        // evaluator prices them.
        let (base, copy) = (ador_table3(), ador_table3());
        let mut fast = ador_table3();
        fast.dram.bandwidth = fast.dram.bandwidth * 2.0;
        let (llama, mistral) = (presets::llama3_8b(), presets::mistral_7b());
        let (one, two) = (Deployment::single_device(), Deployment::tensor_parallel(2));
        let cfg = SimConfig::new(1.0, 8);
        let mut costs = crate::StepCosts::new();
        let mut build = |arch, model, deployment| {
            ServingSim::new(arch, model, deployment, cfg)
                .unwrap()
                .engine_in(&mut costs)
        };
        let shared = [build(&base, &llama, one), build(&copy, &llama, one)];
        assert!(Rc::ptr_eq(&shared[0].costs, &shared[1].costs));
        let distinct = [
            build(&base, &llama, one),
            build(&fast, &llama, one),
            build(&base, &mistral, one),
            build(&base, &llama, two),
        ];
        let step = Phase::decode(8, 1000);
        let mut prices = Vec::new();
        for (i, engine) in distinct.iter().enumerate() {
            assert_eq!(
                Rc::ptr_eq(&engine.costs, &shared[0].costs),
                i == 0,
                "engine {i}"
            );
            let evaluator = engine.costs.evaluator();
            let fresh = ador_perf::Evaluator::new(
                evaluator.architecture(),
                evaluator.model(),
                evaluator.deployment(),
            )
            .unwrap();
            let price = engine.costs.step_time(step).unwrap();
            assert_eq!(price, fresh.step(Phase::decode(8, 1024)).unwrap().total);
            prices.push(price);
        }
        for (i, a) in prices.iter().enumerate() {
            assert!(prices[i + 1..].iter().all(|b| b != a), "price {i} repeats");
        }
    }
}
