//! Multi-tenant traffic: SLO classes, arrival processes, and the
//! deterministic merged request stream a cluster serves.
//!
//! A [`TenantClass`] bundles what distinguishes one traffic class from
//! another in a production fleet: its token-length marginals
//! ([`TraceProfile`]), its latency contract ([`Slo`]), and its arrival
//! process (steady Poisson or bursty on/off MMPP). A [`TenantMix`]
//! multiplexes several classes into one seeded, arrival-sorted
//! [`ClusterRequest`] stream.
//!
//! Classes with a [`SessionShape`] emit multi-turn conversations instead
//! of one-shot requests: each arrival starts a session whose follow-up
//! turns re-prompt with the full previous context plus a fresh user
//! message, tagged with one `prefix_group` per session — the workload
//! whose growing shared prefixes a prefix-caching engine
//! ([`ador_serving::SimConfig::prefix_caching`]) exploits.

use ador_serving::{Request, Slo, TraceProfile};
use ador_units::{conv, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A request tagged with the tenant class that issued it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterRequest {
    /// The underlying serving request.
    pub request: Request,
    /// Index of the issuing class within its [`TenantMix`].
    pub tenant: usize,
}

/// How a tenant's requests arrive over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (req/s) — the paper's
    /// Fig. 14b request generator.
    Poisson {
        /// Mean arrival rate, req/s.
        rate: f64,
    },
    /// A two-state Markov-modulated Poisson process: exponential ON
    /// sojourns emitting Poisson arrivals at `rate_on`, alternating with
    /// silent exponential OFF sojourns. Models bursty tenants (batch jobs,
    /// diurnal spikes) whose time-averaged rate understates their peaks.
    OnOffMmpp {
        /// Arrival rate while ON, req/s.
        rate_on: f64,
        /// Mean ON-sojourn duration.
        mean_on: Seconds,
        /// Mean OFF-sojourn duration.
        mean_off: Seconds,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate in req/s (for MMPP, the ON rate
    /// scaled by the ON duty cycle).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::OnOffMmpp {
                rate_on,
                mean_on,
                mean_off,
            } => rate_on * mean_on.get() / (mean_on.get() + mean_off.get()),
        }
    }

    /// Scales the mean rate by `factor`, preserving the burst structure
    /// (MMPP sojourn durations are untouched; only the ON rate scales).
    pub fn scaled(self, factor: f64) -> Self {
        match self {
            ArrivalProcess::Poisson { rate } => ArrivalProcess::Poisson {
                rate: rate * factor,
            },
            ArrivalProcess::OnOffMmpp {
                rate_on,
                mean_on,
                mean_off,
            } => ArrivalProcess::OnOffMmpp {
                rate_on: rate_on * factor,
                mean_on,
                mean_off,
            },
        }
    }

    /// Draws `count` arrival times from simulation start.
    fn sample_arrivals(&self, rng: &mut StdRng, count: usize) -> Vec<Seconds> {
        let mut arrivals = Vec::with_capacity(count);
        match *self {
            ArrivalProcess::Poisson { rate } => {
                let mut now = 0.0;
                for _ in 0..count {
                    now += exp_sample(rng, 1.0 / rate);
                    arrivals.push(Seconds::new(now));
                }
            }
            ArrivalProcess::OnOffMmpp {
                rate_on,
                mean_on,
                mean_off,
            } => {
                let mut now = 0.0;
                let mut on_end = exp_sample(rng, mean_on.get());
                while arrivals.len() < count {
                    // Exponential gaps are memoryless, so redrawing after a
                    // state boundary keeps the process exact.
                    let gap = exp_sample(rng, 1.0 / rate_on);
                    if now + gap <= on_end {
                        now += gap;
                        arrivals.push(Seconds::new(now));
                    } else {
                        now = on_end + exp_sample(rng, mean_off.get());
                        on_end = now + exp_sample(rng, mean_on.get());
                    }
                }
            }
        }
        arrivals
    }

    fn validate(&self) {
        let ok = match *self {
            ArrivalProcess::Poisson { rate } => rate.is_finite() && rate > 0.0,
            ArrivalProcess::OnOffMmpp {
                rate_on,
                mean_on,
                mean_off,
            } => {
                rate_on.is_finite() && rate_on > 0.0 && mean_on.get() > 0.0 && mean_off.get() >= 0.0
            }
        };
        assert!(ok, "arrival process must have positive rates: {self:?}");
    }
}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean
}

/// The shape of a class's multi-turn sessions.
///
/// Each arrival of the class's [`ArrivalProcess`] starts a *session*: a
/// geometric number of turns, each prompting with the full previous
/// context (previous prompt plus previous response) extended by a fresh
/// user message, after an exponential think-time gap. All turns of one
/// session carry the same
/// [`Request::prefix_group`](ador_serving::Request::prefix_group), so a
/// prefix-caching engine can skip re-prefilling the shared history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionShape {
    /// Mean turns per session (geometric, so sessions of length 1 remain
    /// common). Must be ≥ 1.
    pub mean_turns: f64,
    /// Mean think time between a turn's arrival and the next turn's
    /// arrival (exponential). Open-loop: the gap models the user reading
    /// the response and typing, independent of service latency.
    pub mean_think: Seconds,
    /// Token-length marginals of follow-up user messages (only the
    /// `input` marginal is sampled; first-turn prompts and every turn's
    /// response come from the class [`TraceProfile`]).
    pub followup: TraceProfile,
}

impl SessionShape {
    /// Interactive chat sessions: 4 turns on average, 8 s mean think
    /// time, follow-up messages with a median of ~80 tokens.
    pub fn chat() -> Self {
        Self {
            mean_turns: 4.0,
            mean_think: Seconds::new(8.0),
            followup: TraceProfile {
                input_mu: 80.0_f64.ln(),
                input_sigma: 0.7,
                output_mu: 0.0,
                output_sigma: 0.0,
                max_tokens: 1024,
            },
        }
    }

    fn validate(&self) {
        assert!(
            self.mean_turns >= 1.0 && self.mean_turns.is_finite(),
            "sessions need a mean of at least one turn: {self:?}"
        );
        assert!(
            self.mean_think.get() >= 0.0,
            "think time cannot be negative: {self:?}"
        );
    }

    /// Draws a session length: 1 + Geometric(p) with `p = 1/mean_turns`,
    /// so the mean is `mean_turns` and single-turn sessions stay common.
    fn sample_turns(&self, rng: &mut StdRng) -> usize {
        if self.mean_turns <= 1.0 {
            return 1;
        }
        let p = 1.0 / self.mean_turns;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        // Inverse-CDF of the geometric distribution on {0, 1, ...}.
        1 + conv::usize_from_f64((u.ln() / (1.0 - p).ln()).floor())
    }
}

/// One traffic class: a name, token-length marginals, an SLO contract and
/// an arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Human-readable class name (report labels).
    pub name: String,
    /// Prompt/response token-length marginals.
    pub profile: TraceProfile,
    /// The latency contract this class's requests are judged against.
    pub slo: Slo,
    /// The class's arrival process.
    pub arrivals: ArrivalProcess,
    /// Multi-turn session structure; `None` means one-shot requests.
    /// When set, arrivals are session *starts* and the emitted request
    /// rate is roughly `mean_turns` times the arrival rate.
    pub session: Option<SessionShape>,
    /// The class's speculative-decoding acceptance profile: the per-token
    /// probability a draft model's proposal survives verification on this
    /// traffic (AdaServe's per-class speculation signal — templated code
    /// completions draft far better than free-form prose). Stamped onto
    /// every generated request; only read by engines that speculate.
    pub accept_rate: f64,
}

impl TenantClass {
    /// Creates a class, validating the arrival process.
    ///
    /// # Panics
    ///
    /// Panics if the arrival process has a non-positive rate.
    pub fn new(
        name: impl Into<String>,
        profile: TraceProfile,
        slo: Slo,
        arrivals: ArrivalProcess,
    ) -> Self {
        arrivals.validate();
        Self {
            name: name.into(),
            profile,
            slo,
            arrivals,
            session: None,
            accept_rate: ador_spec::DEFAULT_ACCEPTANCE,
        }
    }

    /// Sets the class's draft acceptance profile for speculative decoding.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    pub fn with_acceptance(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "acceptance must be a probability, got {rate}"
        );
        self.accept_rate = rate;
        self
    }

    /// Turns the class into a session workload: each arrival starts a
    /// multi-turn conversation of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape's mean turn count is below 1 or its think time
    /// is negative.
    pub fn with_sessions(mut self, shape: SessionShape) -> Self {
        shape.validate();
        self.session = Some(shape);
        self
    }

    /// Multi-turn chatbot sessions: ultrachat-like first prompts and
    /// responses, the paper's strict SLO, Poisson session starts at
    /// `rate` sessions/s, and [`SessionShape::chat`] turn structure. The
    /// flagship prefix-caching workload: every follow-up turn re-prompts
    /// with the whole conversation so far.
    pub fn chat_sessions(rate: f64) -> Self {
        Self::chatbot(rate).with_sessions(SessionShape::chat())
    }

    /// Interactive chatbot traffic: ultrachat-like lengths, the paper's
    /// strict SLO (25 ms TBT), steady Poisson arrivals, and a 0.8 draft
    /// acceptance profile (conversational prose drafts well).
    pub fn chatbot(rate: f64) -> Self {
        Self::new(
            "chatbot",
            TraceProfile::ultrachat_like(),
            Slo::strict(),
            ArrivalProcess::Poisson { rate },
        )
        .with_acceptance(0.8)
    }

    /// Long-document summarization: heavy prompts, the paper's relaxed SLO
    /// (50 ms TBT), and bursty on/off MMPP arrivals (4 s ON spells at 4×
    /// the mean rate, 12 s OFF) — batch-style traffic whose peaks stress
    /// the fleet far beyond its time-averaged rate.
    pub fn summarization(mean_rate: f64) -> Self {
        let mean_on = Seconds::new(4.0);
        let mean_off = Seconds::new(12.0);
        let duty = mean_on.get() / (mean_on.get() + mean_off.get());
        Self::new(
            "summarization",
            TraceProfile::summarization(),
            Slo::relaxed(),
            ArrivalProcess::OnOffMmpp {
                rate_on: mean_rate / duty,
                mean_on,
                mean_off,
            },
        )
        // Dense novel prose: a draft model mispredicts often, so fixed
        // fleet-wide speculation burns verify compute on this class.
        .with_acceptance(0.6)
    }

    /// Code completion: mid-size prompts, very short responses, and the
    /// tightest contract of the three presets (400 ms TTFT / 25 ms TBT —
    /// an editor keystroke cannot wait for a queue).
    pub fn code_completion(rate: f64) -> Self {
        let profile = TraceProfile {
            input_mu: 512.0_f64.ln(),
            input_sigma: 0.8,
            output_mu: 32.0_f64.ln(),
            output_sigma: 0.6,
            max_tokens: 2048,
        };
        let slo = Slo {
            ttft_max: Some(Seconds::from_millis(400.0)),
            tbt_max: Some(Seconds::from_millis(25.0)),
        };
        Self::new(
            "code-completion",
            profile,
            slo,
            ArrivalProcess::Poisson { rate },
        )
        // Boilerplate-heavy code drafts extremely well (AdaServe).
        .with_acceptance(0.9)
    }
}

/// A multiplex of tenant classes: the workload a cluster serves.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    classes: Vec<TenantClass>,
}

impl TenantMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn new(classes: Vec<TenantClass>) -> Self {
        assert!(!classes.is_empty(), "a tenant mix needs at least one class");
        Self { classes }
    }

    /// The classes in index order (the index is the `tenant` tag on
    /// generated requests).
    pub fn classes(&self) -> &[TenantClass] {
        &self.classes
    }

    /// The combined long-run mean **request** rate, req/s. For session
    /// classes each arrival is a session start that fans out into
    /// `mean_turns` requests on average, so it contributes
    /// `mean_rate × mean_turns`.
    pub fn aggregate_rate(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.arrivals.mean_rate() * c.session.map_or(1.0, |s| s.mean_turns))
            .sum()
    }

    /// Rescales every class's arrival process so the aggregate mean rate
    /// becomes `total` req/s, preserving the per-class traffic shares and
    /// burst structure. This is the knob `cluster_capacity` bisects.
    pub fn with_aggregate_rate(mut self, total: f64) -> Self {
        let current = self.aggregate_rate();
        assert!(
            total > 0.0 && current > 0.0,
            "aggregate rates must be positive"
        );
        let factor = total / current;
        for class in &mut self.classes {
            class.arrivals = class.arrivals.scaled(factor);
        }
        self
    }

    /// Generates the first `count` requests of the multiplexed stream:
    /// each class draws its own seeded arrival/length sequence (session
    /// classes expand each arrival into a multi-turn conversation with a
    /// growing, `prefix_group`-tagged context), the per-class streams
    /// merge by arrival time, and ids are assigned in merged order
    /// (`0..count`). Fully deterministic under `seed`.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<ClusterRequest> {
        let mut merged: Vec<(Seconds, usize, usize, usize, Option<u64>)> = Vec::new();
        for (tenant, class) in self.classes.iter().enumerate() {
            // Decorrelate classes with a per-class seed; any class alone
            // can supply the whole truncated stream (sessions yield at
            // least one turn per arrival), so `count` draws each is
            // always enough.
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(
                (conv::u64_from_usize(tenant) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            let starts = class.arrivals.sample_arrivals(&mut rng, count);
            match class.session {
                None => {
                    for arrival in starts {
                        let input = class.profile.sample_input(&mut rng);
                        let output = class.profile.sample_output(&mut rng);
                        merged.push((arrival, tenant, input, output, None));
                    }
                }
                Some(shape) => {
                    for (session, start) in starts.into_iter().enumerate() {
                        let group = session_group(seed, tenant, session);
                        let turns = shape.sample_turns(&mut rng);
                        let mut arrival = start;
                        let mut context = 0usize;
                        for _ in 0..turns {
                            // Follow-up turns re-prompt with the full
                            // previous context plus a fresh user message.
                            let fresh = if context == 0 {
                                class.profile.sample_input(&mut rng)
                            } else {
                                shape.followup.sample_input(&mut rng)
                            };
                            let input = (context + fresh).min(class.profile.max_tokens.max(1));
                            let output = class.profile.sample_output(&mut rng);
                            merged.push((arrival, tenant, input, output, Some(group)));
                            context = input + output;
                            if context + 1 >= class.profile.max_tokens {
                                // Context window exhausted: end the session.
                                break;
                            }
                            arrival += Seconds::new(exp_sample(&mut rng, shape.mean_think.get()));
                        }
                    }
                }
            }
        }
        merged.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                // ador-lint: allow(panic) — invariant: arrivals are finite draws from the workload
                .expect("arrival times are never NaN")
                .then(a.1.cmp(&b.1))
        });
        merged
            .into_iter()
            .take(count)
            .enumerate()
            .map(|(id, (arrival, tenant, input, output, group))| {
                // Every request carries its class's contract and draft
                // acceptance profile: the SLO feeds goodput accounting
                // and SLO-adaptive speculation depth, the acceptance rate
                // the seeded verify draws.
                let class = &self.classes[tenant];
                ClusterRequest {
                    request: Request {
                        prefix_group: group,
                        ..Request::new(conv::u64_from_usize(id), arrival, input, output)
                    }
                    .with_slo(class.slo)
                    .with_accept_rate(class.accept_rate),
                    tenant,
                }
            })
            .collect()
    }
}

/// Deterministic, collision-resistant session identity (splitmix64 over
/// the seed/tenant/session triple): the `prefix_group` every turn of one
/// session carries.
fn session_group(seed: u64, tenant: usize, session: usize) -> u64 {
    ador_serving::splitmix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((conv::u64_from_usize(tenant) + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((conv::u64_from_usize(session) + 1).wrapping_mul(0x94D0_49BB_1331_11EB)),
    )
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn poisson_mean_rate_is_the_rate() {
        let p = ArrivalProcess::Poisson { rate: 7.5 };
        assert_eq!(p.mean_rate(), 7.5);
    }

    #[test]
    fn mmpp_mean_rate_uses_duty_cycle() {
        let p = ArrivalProcess::OnOffMmpp {
            rate_on: 8.0,
            mean_on: Seconds::new(1.0),
            mean_off: Seconds::new(3.0),
        };
        assert!((p.mean_rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mmpp_arrivals_converge_to_the_mean_rate() {
        let p = ArrivalProcess::OnOffMmpp {
            rate_on: 20.0,
            mean_on: Seconds::new(2.0),
            mean_off: Seconds::new(6.0),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let arrivals = p.sample_arrivals(&mut rng, 8000);
        let span = arrivals.last().unwrap().get();
        let measured = arrivals.len() as f64 / span;
        assert!(
            (measured - p.mean_rate()).abs() / p.mean_rate() < 0.15,
            "measured {measured:.2} vs mean {:.2}",
            p.mean_rate()
        );
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_equal_mean_rate() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for an on/off MMPP.
        let cv2 = |p: &ArrivalProcess| {
            let mut rng = StdRng::seed_from_u64(11);
            let arrivals = p.sample_arrivals(&mut rng, 6000);
            let gaps: Vec<f64> = arrivals.windows(2).map(|w| (w[1] - w[0]).get()).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(&ArrivalProcess::Poisson { rate: 2.0 });
        let mmpp = cv2(&ArrivalProcess::OnOffMmpp {
            rate_on: 8.0,
            mean_on: Seconds::new(1.0),
            mean_off: Seconds::new(3.0),
        });
        assert!((poisson - 1.0).abs() < 0.25, "poisson cv² {poisson:.2}");
        assert!(mmpp > 1.5, "mmpp cv² {mmpp:.2} should be super-Poisson");
    }

    #[test]
    fn generated_stream_is_deterministic_and_sorted() {
        let mix = TenantMix::new(vec![
            TenantClass::chatbot(4.0),
            TenantClass::summarization(1.0),
        ]);
        let a = mix.generate(200, 42);
        let b = mix.generate(200, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a
            .windows(2)
            .all(|w| w[0].request.arrival <= w[1].request.arrival));
        // Ids are the merged order.
        assert!(a.iter().enumerate().all(|(i, r)| r.request.id == i as u64));
        // Both classes contribute.
        assert!(a.iter().any(|r| r.tenant == 0));
        assert!(a.iter().any(|r| r.tenant == 1));
        let c = mix.generate(200, 43);
        assert_ne!(a, c, "the seed must reach every class's stream");
    }

    #[test]
    fn generated_requests_carry_class_slo_and_acceptance() {
        let mix = TenantMix::new(vec![
            TenantClass::chatbot(4.0),
            TenantClass::summarization(1.0),
            TenantClass::code_completion(2.0).with_acceptance(0.95),
        ]);
        assert_eq!(mix.classes()[0].accept_rate, 0.8);
        assert_eq!(mix.classes()[1].accept_rate, 0.6);
        for cr in mix.generate(150, 5) {
            let class = &mix.classes()[cr.tenant];
            assert_eq!(cr.request.slo, Some(class.slo));
            assert_eq!(cr.request.accept_rate, Some(class.accept_rate));
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn non_probability_acceptance_rejected() {
        let _ = TenantClass::chatbot(1.0).with_acceptance(-0.1);
    }

    #[test]
    fn rescaling_preserves_shares() {
        let mix = TenantMix::new(vec![
            TenantClass::chatbot(6.0),
            TenantClass::summarization(2.0),
        ]);
        let scaled = mix.clone().with_aggregate_rate(16.0);
        assert!((scaled.aggregate_rate() - 16.0).abs() < 1e-9);
        let share = |m: &TenantMix| m.classes()[0].arrivals.mean_rate() / m.aggregate_rate();
        assert!((share(&mix) - share(&scaled)).abs() < 1e-9);
        // Burst structure is preserved: sojourn times untouched.
        match (mix.classes()[1].arrivals, scaled.classes()[1].arrivals) {
            (
                ArrivalProcess::OnOffMmpp {
                    mean_on: a,
                    mean_off: b,
                    ..
                },
                ArrivalProcess::OnOffMmpp {
                    mean_on: c,
                    mean_off: d,
                    ..
                },
            ) => {
                assert_eq!(a, c);
                assert_eq!(b, d);
            }
            _ => panic!("summarization preset must be MMPP"),
        }
    }

    #[test]
    fn session_turns_share_a_group_and_grow_their_context() {
        let mix = TenantMix::new(vec![TenantClass::chat_sessions(2.0)]);
        let stream = mix.generate(300, 7);
        assert_eq!(stream.len(), 300);
        // Every request belongs to a session.
        assert!(stream.iter().all(|r| r.request.prefix_group.is_some()));

        // Group turns by session and check the multi-turn structure.
        // BTreeMap so the per-session checks below run in a defined
        // order (the determinism contract applies to tests too).
        let mut by_group: std::collections::BTreeMap<u64, Vec<&ClusterRequest>> =
            std::collections::BTreeMap::new();
        for r in &stream {
            by_group
                .entry(r.request.prefix_group.unwrap())
                .or_default()
                .push(r);
        }
        let mut multi_turn = 0usize;
        for turns in by_group.values() {
            let mut turns = turns.clone();
            turns.sort_by(|a, b| a.request.arrival.partial_cmp(&b.request.arrival).unwrap());
            if turns.len() > 1 {
                multi_turn += 1;
            }
            for pair in turns.windows(2) {
                let (prev, next) = (&pair[0].request, &pair[1].request);
                // A follow-up prompt strictly extends the full previous
                // context (prompt + response) with new user tokens; the
                // session ends before the context window would overflow.
                assert!(
                    next.input_tokens > prev.input_tokens + prev.output_tokens,
                    "follow-up prompt {} must extend the previous context {}",
                    next.input_tokens,
                    prev.input_tokens + prev.output_tokens
                );
            }
        }
        assert!(
            multi_turn * 2 >= by_group.len(),
            "a mean of 4 turns must yield many multi-turn sessions \
             ({multi_turn} of {})",
            by_group.len()
        );

        // Deterministic under the seed, different under another.
        assert_eq!(stream, mix.generate(300, 7));
        assert_ne!(stream, mix.generate(300, 8));
    }

    #[test]
    fn session_rate_counts_turns_not_starts() {
        let one_shot = TenantMix::new(vec![TenantClass::chatbot(2.0)]);
        let sessions = TenantMix::new(vec![TenantClass::chat_sessions(2.0)]);
        assert!((one_shot.aggregate_rate() - 2.0).abs() < 1e-12);
        assert!(
            (sessions.aggregate_rate() - 8.0).abs() < 1e-12,
            "4 turns avg"
        );
        // Rescaling still lands on the requested request rate.
        let scaled = sessions.clone().with_aggregate_rate(4.0);
        assert!((scaled.aggregate_rate() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one turn")]
    fn sub_single_turn_sessions_rejected() {
        let _ = TenantClass::chatbot(1.0).with_sessions(SessionShape {
            mean_turns: 0.5,
            ..SessionShape::chat()
        });
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_rejected() {
        let _ = TenantMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive rates")]
    fn zero_rate_class_rejected() {
        let _ = TenantClass::chatbot(0.0);
    }
}
