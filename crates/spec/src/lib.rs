//! Speculative decoding for the ADOR serving engine: a draft-and-verify
//! model with SLO-customized speculation depth.
//!
//! Speculative decoding (Leviathan et al., AdaServe) lets a decode step
//! commit several tokens at once: a cheap draft model proposes `k` tokens,
//! the target model verifies them in one parallel pass, and the leading
//! run of accepted tokens — plus the verify pass's own token (the
//! correction after the first rejection, or the bonus token when all `k`
//! survive) — is committed. Per-step cost rises (the verify pass processes
//! `k + 1` tokens per sequence, and the batched draft model charges per
//! drafted token), but when the draft's acceptance rate is high enough the
//! committed run outpaces the overhead and time-between-tokens drops — the
//! biggest unmodeled lever on the latency/throughput frontier the ADOR
//! paper explores.
//!
//! This crate holds the engine-independent half of the model:
//!
//! - [`SpeculationPolicy`] — `Off`, `Fixed(k)`, or [`SloAdaptive`]
//!   (`SloAdaptive` picks a per-request depth each step from the request's
//!   measured TBT slack against its SLO target, throttled under batch
//!   pressure so throughput tenants don't pay latency tenants' verify
//!   overhead).
//! - [`SpeculationConfig`] — the policy plus the acceptance/cost knobs and
//!   the seed of the acceptance process.
//! - [`DraftStream`] — a per-request, seeded, deterministic acceptance
//!   sampler: the number of accepted draft tokens in each verify step is a
//!   leading-run draw under the request's acceptance rate, reproducible
//!   from `(seed, request id, draw index)` regardless of how the engine
//!   interleaves requests.
//! - [`Verify`] — one verify step's outcome (drafted / accepted /
//!   committed), with the accepted run clamped at the request's stop
//!   boundary so a request can never commit past its declared response
//!   length.
//!
//! The serving engine (`ador-serving`) consumes these pieces inside
//! `Engine::step`; the cluster layer plumbs per-tenant-class acceptance
//! profiles into each request.
//!
//! [`SloAdaptive`]: SpeculationPolicy::SloAdaptive
//!
//! # Examples
//!
//! ```
//! use ador_spec::{DraftStream, SpeculationConfig, SpeculationPolicy};
//!
//! let cfg = SpeculationConfig::new(SpeculationPolicy::Fixed(3));
//! let mut stream = DraftStream::new(cfg.seed, 42);
//! let v = stream.verify(3, 100, 0.8);
//! assert!(v.accepted <= v.drafted);
//! assert_eq!(v.committed, v.accepted + 1); // the verify pass's own token
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ador_units::{conv, Seconds};

/// Default ceiling on speculation depth (draft tokens per verify step).
pub const DEFAULT_MAX_DEPTH: usize = 4;

/// Default per-token draft acceptance probability, used for requests that
/// carry no per-class acceptance profile. 0.7 is a mid-range figure for a
/// well-trained drafter on chat text.
pub const DEFAULT_ACCEPTANCE: f64 = 0.7;

/// Default cost of one drafted token, as a fraction of one target-model
/// token's share of the decode interval at the same batch and context.
pub const DEFAULT_DRAFT_TIME_RATIO: f64 = 0.1;

/// The [`SloAdaptive`] verify-token budget, as a fraction of the engine's
/// batch slots: the drafted tokens all requests may add to one
/// verify pass together. A full batch already amortizes weight reads, so
/// extra verify tokens there cost real compute that every co-batched
/// request pays for; capping the drafted total (and spending it urgent
/// requests first) is what keeps throughput tenants from paying latency
/// tenants' verify overhead. `Fixed(k)` deliberately ignores the budget —
/// that unbounded overhead under load is its failure mode.
///
/// [`SloAdaptive`]: SpeculationPolicy::SloAdaptive
pub const DEFAULT_VERIFY_BUDGET: f64 = 0.5;

/// TBT-slack floor of the [`SloAdaptive`] depth map: a request whose
/// measured mean TBT sits below this fraction of its target has latency to
/// spare and gets depth 0; between the floor and [`URGENT_CEIL`] the depth
/// rises linearly to the configured maximum.
///
/// [`SloAdaptive`]: SpeculationPolicy::SloAdaptive
pub const SLACK_FLOOR: f64 = 0.5;

/// Urgency at which the [`SloAdaptive`] depth map saturates at
/// [`SpeculationConfig::max_depth`]. Deliberately below 1.0 (the SLO
/// boundary itself): the controller steers requests toward a margin
/// *under* their target rather than letting them ride the boundary where
/// a single slow step tips them into a miss.
///
/// [`SloAdaptive`]: SpeculationPolicy::SloAdaptive
pub const URGENT_CEIL: f64 = 0.9;

/// How the engine picks a speculation depth for each decoding request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpeculationPolicy {
    /// No speculation: every decode step commits exactly one token — the
    /// engine's historical behaviour, bit-identical.
    #[default]
    Off,
    /// Every decoding request drafts exactly `k` tokens per step
    /// (capped at [`SpeculationConfig::max_depth`]). `Fixed(0)` is
    /// equivalent to `Off`.
    Fixed(usize),
    /// SLO-customized depth (AdaServe): each request's depth is derived
    /// from its measured mean-TBT slack against its SLO target — requests
    /// at or past [`URGENT_CEIL`] of their target get the full
    /// [`SpeculationConfig::max_depth`], requests below [`SLACK_FLOOR`]
    /// of it get none — and the per-step drafted total is capped by the
    /// verify-token budget ([`DEFAULT_VERIFY_BUDGET`]), spent
    /// most-urgent-first. Requests without a TBT target (throughput
    /// tenants) never speculate.
    SloAdaptive,
}

impl std::fmt::Display for SpeculationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpeculationPolicy::Off => f.write_str("off"),
            SpeculationPolicy::Fixed(k) => write!(f, "fixed({k})"),
            SpeculationPolicy::SloAdaptive => f.write_str("slo-adaptive"),
        }
    }
}

/// Speculative-decoding parameters: the policy plus the acceptance process
/// seed and the draft/verify cost knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// The depth policy.
    pub policy: SpeculationPolicy,
    /// Seed of the deterministic acceptance process. Independent of the
    /// workload seed so acceptance luck can be varied without moving the
    /// arrivals.
    pub seed: u64,
    /// Hard ceiling on per-request speculation depth.
    pub max_depth: usize,
    /// Per-token acceptance probability for requests that carry no
    /// per-class profile ([`DEFAULT_ACCEPTANCE`]).
    pub default_acceptance: f64,
    /// Cost of one drafted token as a fraction of one target-model
    /// token's share of the decode interval at the same batch/context
    /// ([`DEFAULT_DRAFT_TIME_RATIO`]). A step drafting a mean depth of
    /// `k̄` across its batch adds `k̄ × draft_time_ratio` decode
    /// intervals of draft time — the amortized cost of a *batched*
    /// drafter (weights shared across sequences, per-token compute
    /// dominating), not a per-step charge in the deepest request's
    /// depth. The verify cost itself is priced by the engine's
    /// analytical model, which evaluates the decode pass at
    /// `batch + drafted` token positions.
    pub draft_time_ratio: f64,
}

impl SpeculationConfig {
    /// Creates a config under `policy` with the default knobs: seed 0,
    /// depth ceiling [`DEFAULT_MAX_DEPTH`], acceptance
    /// [`DEFAULT_ACCEPTANCE`], draft cost [`DEFAULT_DRAFT_TIME_RATIO`].
    pub fn new(policy: SpeculationPolicy) -> Self {
        Self {
            policy,
            seed: 0,
            max_depth: DEFAULT_MAX_DEPTH,
            default_acceptance: DEFAULT_ACCEPTANCE,
            draft_time_ratio: DEFAULT_DRAFT_TIME_RATIO,
        }
    }

    /// Speculation disabled (the engine default).
    pub fn off() -> Self {
        Self::new(SpeculationPolicy::Off)
    }

    /// Sets the acceptance-process seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the depth ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` is zero while the policy speculates.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        assert!(
            max_depth > 0 || self.policy == SpeculationPolicy::Off,
            "a speculating policy needs a positive depth ceiling"
        );
        self.max_depth = max_depth;
        self
    }

    /// Sets the default per-token acceptance probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    pub fn with_default_acceptance(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "acceptance must be a probability, got {rate}"
        );
        self.default_acceptance = rate;
        self
    }

    /// Sets the draft-step cost ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is negative or not finite.
    pub fn with_draft_time_ratio(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio >= 0.0,
            "draft cost ratio must be finite and non-negative, got {ratio}"
        );
        self.draft_time_ratio = ratio;
        self
    }

    /// Whether any request can ever draft a token under this config.
    pub fn speculates(&self) -> bool {
        match self.policy {
            SpeculationPolicy::Off | SpeculationPolicy::Fixed(0) => false,
            SpeculationPolicy::Fixed(_) | SpeculationPolicy::SloAdaptive => self.max_depth > 0,
        }
    }

    /// The `SloAdaptive` urgency of one request: its measured mean TBT
    /// over its SLO target. `None` when the request carries no (positive)
    /// TBT target — throughput tenants never speculate. A request that
    /// has not measured a gap yet (`measured_tbt` is `None`) is treated
    /// as sitting exactly at its target, so a fresh latency-bound request
    /// speculates immediately rather than waiting to fall behind.
    pub fn urgency(
        &self,
        tbt_target: Option<Seconds>,
        measured_tbt: Option<Seconds>,
    ) -> Option<f64> {
        let target = tbt_target.filter(|t| !t.is_zero())?;
        Some(measured_tbt.map_or(1.0, |m| m.get() / target.get()))
    }

    /// The `SloAdaptive` slack-to-depth map: 0 at or below [`SLACK_FLOOR`]
    /// of the target, the full [`SpeculationConfig::max_depth`] at or
    /// above [`URGENT_CEIL`], linear in between. The per-step verify
    /// budget is applied by the engine on top of this, most-urgent-first.
    pub fn slack_depth(&self, urgency: f64) -> usize {
        if urgency >= URGENT_CEIL {
            self.max_depth
        } else if urgency <= SLACK_FLOOR {
            0
        } else {
            conv::usize_from_f64(
                (conv::f64_from_usize(self.max_depth) * (urgency - SLACK_FLOOR)
                    / (URGENT_CEIL - SLACK_FLOOR))
                    .floor(),
            )
        }
    }

    /// The per-step drafted-token budget for an engine with `max_batch`
    /// slots (`Fixed` ignores it; see [`DEFAULT_VERIFY_BUDGET`]).
    pub fn budget_tokens(&self, max_batch: usize) -> usize {
        conv::usize_from_f64((DEFAULT_VERIFY_BUDGET * conv::f64_from_usize(max_batch)).floor())
    }
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// One verify step's outcome for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verify {
    /// Draft tokens proposed (after clamping the requested depth at the
    /// request's stop boundary).
    pub drafted: usize,
    /// Leading run of drafted tokens the target model accepted
    /// (`accepted ≤ drafted`).
    pub accepted: usize,
    /// Tokens committed: the accepted run plus the verify pass's own
    /// token (correction or bonus), never past the stop boundary.
    pub committed: usize,
}

impl Verify {
    /// Drafted tokens the target model rejected
    /// (`drafted == accepted + rejected` always holds).
    pub fn rejected(&self) -> usize {
        self.drafted - self.accepted
    }
}

/// The per-request acceptance process: a counter-mode SplitMix64 stream
/// keyed by `(seed, request id)`, drawn once per drafted token. Fully
/// deterministic and independent of engine interleaving: the `n`-th draw
/// of request `r` is the same in a solo engine and in a 16-replica fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DraftStream {
    key: u64,
    draws: u64,
}

impl DraftStream {
    /// Creates the stream for `request_id` under the acceptance-process
    /// `seed`.
    pub fn new(seed: u64, request_id: u64) -> Self {
        Self {
            key: mix(seed ^ mix(request_id.wrapping_add(0xA076_1D64_78BD_642F))),
            draws: 0,
        }
    }

    /// Runs one verify step: drafts up to `depth` tokens (clamped so the
    /// committed run can never pass the `remaining` tokens the request may
    /// still emit), samples the leading accepted run under `accept_rate`,
    /// and returns the outcome. With `depth == 0` (or `remaining <= 1`)
    /// this draws nothing and commits exactly one token — the
    /// speculation-off path.
    ///
    /// # Panics
    ///
    /// Panics if `remaining` is zero (a finished request must not decode)
    /// or `accept_rate` is not a probability.
    pub fn verify(&mut self, depth: usize, remaining: usize, accept_rate: f64) -> Verify {
        assert!(remaining > 0, "cannot verify a finished request");
        assert!(
            (0.0..=1.0).contains(&accept_rate),
            "acceptance must be a probability, got {accept_rate}"
        );
        // The verify pass itself always commits one token, so drafting
        // more than `remaining - 1` could only overshoot the stop
        // boundary: clamp the depth, not the commit.
        let drafted = depth.min(remaining - 1);
        let mut accepted = 0;
        while accepted < drafted && self.draw() < accept_rate {
            accepted += 1;
        }
        // Rejected drafts still consumed their draws only up to the first
        // rejection (leading-run semantics): skip the draws the remaining
        // drafts would have used so the stream position depends only on
        // the drafted count, not on where the run broke.
        self.draws += conv::u64_from_usize((drafted - accepted).saturating_sub(1));
        Verify {
            drafted,
            accepted,
            committed: accepted + 1,
        }
    }

    /// One uniform draw in `[0, 1)`.
    fn draw(&mut self) -> f64 {
        let word = mix(self
            .key
            .wrapping_add(self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        self.draws += 1;
        conv::f64_from_u64(word >> 11) * (1.0 / conv::f64_from_u64(1u64 << 53))
    }
}

/// One SplitMix64 step: the golden-ratio increment, then the finalizer —
/// the bijective mixer behind the acceptance stream.
fn mix(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The SplitMix64 finalizer: a cheap, well-mixed, bijective `u64 -> u64`
/// hash, and the one definition in the workspace. It drives the
/// acceptance stream here and `ador-cluster`'s session identities.
/// `#[inline]` so callers in other crates can inline it.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn off_and_fixed_zero_never_speculate() {
        assert!(!SpeculationConfig::off().speculates());
        assert!(!SpeculationConfig::new(SpeculationPolicy::Fixed(0)).speculates());
        assert!(SpeculationConfig::new(SpeculationPolicy::Fixed(2)).speculates());
        assert!(SpeculationConfig::new(SpeculationPolicy::SloAdaptive).speculates());
    }

    #[test]
    fn urgency_needs_a_positive_target() {
        let cfg = SpeculationConfig::new(SpeculationPolicy::SloAdaptive);
        let target = Some(Seconds::from_millis(25.0));
        assert_eq!(cfg.urgency(None, None), None, "no contract, no urgency");
        assert_eq!(cfg.urgency(Some(Seconds::ZERO), None), None);
        // A fresh latency-bound request sits exactly at its target.
        assert_eq!(cfg.urgency(target, None), Some(1.0));
        let u = cfg
            .urgency(target, Some(Seconds::from_millis(20.0)))
            .unwrap();
        assert!((u - 0.8).abs() < 1e-12);
    }

    #[test]
    fn slack_depth_scales_with_urgency() {
        let cfg = SpeculationConfig::new(SpeculationPolicy::SloAdaptive);
        // Past the urgent ceiling: full depth. Lots of slack: none.
        assert_eq!(cfg.slack_depth(1.2), DEFAULT_MAX_DEPTH);
        assert_eq!(cfg.slack_depth(URGENT_CEIL), DEFAULT_MAX_DEPTH);
        assert_eq!(cfg.slack_depth(SLACK_FLOOR), 0);
        assert_eq!(cfg.slack_depth(0.2), 0);
        // In between: monotone non-decreasing.
        let depths: Vec<usize> = [0.55, 0.65, 0.75, 0.85]
            .map(|u| cfg.slack_depth(u))
            .to_vec();
        assert!(depths.windows(2).all(|w| w[0] <= w[1]), "{depths:?}");
        assert!(depths[3] > 0);
    }

    #[test]
    fn verify_budget_scales_with_batch_slots() {
        let cfg = SpeculationConfig::new(SpeculationPolicy::SloAdaptive);
        assert_eq!(cfg.budget_tokens(64), 32);
        assert_eq!(cfg.budget_tokens(256), 128);
    }

    #[test]
    fn verify_conserves_tokens_and_respects_the_stop_boundary() {
        let mut s = DraftStream::new(7, 1);
        for remaining in 1..20usize {
            let v = s.verify(8, remaining, 0.9);
            assert!(v.accepted <= v.drafted);
            assert_eq!(v.drafted, v.accepted + v.rejected());
            assert_eq!(v.committed, v.accepted + 1);
            assert!(v.committed <= remaining, "commit past the stop boundary");
            assert!(v.drafted <= remaining.saturating_sub(1));
        }
    }

    #[test]
    fn acceptance_extremes_are_exact() {
        let mut s = DraftStream::new(3, 9);
        let sure = s.verify(4, 100, 1.0);
        assert_eq!((sure.drafted, sure.accepted, sure.committed), (4, 4, 5));
        let never = s.verify(4, 100, 0.0);
        assert_eq!((never.drafted, never.accepted, never.committed), (4, 0, 1));
        let off = s.verify(0, 100, 1.0);
        assert_eq!((off.drafted, off.accepted, off.committed), (0, 0, 1));
    }

    #[test]
    fn streams_are_deterministic_and_request_independent() {
        let run = |seed: u64, id: u64| {
            let mut s = DraftStream::new(seed, id);
            (0..32)
                .map(|_| s.verify(4, 100, 0.6).accepted)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1, 5), run(1, 5));
        assert_ne!(run(1, 5), run(1, 6), "ids decorrelate");
        assert_ne!(run(1, 5), run(2, 5), "seeds decorrelate");
    }

    #[test]
    fn acceptance_rate_converges_to_the_profile() {
        // Mean accepted per k=1 verify ≈ p.
        let mut s = DraftStream::new(11, 0);
        let n = 20_000;
        let accepted: usize = (0..n).map(|_| s.verify(1, 100, 0.7).accepted).sum();
        let mean = accepted as f64 / n as f64;
        assert!((mean - 0.7).abs() < 0.02, "measured {mean:.3}");
    }

    #[test]
    #[should_panic(expected = "finished request")]
    fn verifying_a_finished_request_panics() {
        let _ = DraftStream::new(0, 0).verify(2, 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn non_probability_acceptance_rejected() {
        let _ = SpeculationConfig::off().with_default_acceptance(1.5);
    }
}
