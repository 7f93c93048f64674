//! Speculative-decoding regression tests: the pinned fixed-depth TBT win,
//! the pinned SLO-adaptive fleet-goodput win, bit-identity of the
//! speculation-off path, seeded determinism of the acceptance process,
//! and property tests for token conservation and the stop-boundary clamp.

use ador::cluster::scenarios::{
    spec_engine_config, spec_fleet, spec_mix, SPEC_RATE, SPEC_REPLICAS, SPEC_REQUESTS, SPEC_SEED,
};
use ador::cluster::{ClusterSim, FleetReport};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::{
    QosReport, Request, RequestGenerator, ServingSim, SimConfig, SimError, Slo, SpeculationConfig,
    SpeculationPolicy, StepEvent, TraceProfile,
};
use ador::units::Seconds;
use proptest::prelude::*;

fn engine_report(policy: SpeculationPolicy, acceptance: f64) -> QosReport {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    ServingSim::new(
        &arch,
        &model,
        Deployment::single_device(),
        spec_engine_config(policy, acceptance),
    )
    .unwrap()
    .run(TraceProfile::ultrachat_like())
    .unwrap()
}

fn fleet_report(policy: SpeculationPolicy) -> FleetReport {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    ClusterSim::new(
        &arch,
        &model,
        Deployment::single_device(),
        spec_fleet(SPEC_REPLICAS, policy),
    )
    .unwrap()
    .run(&spec_mix(SPEC_RATE), SPEC_REQUESTS, SPEC_SEED)
    .unwrap()
}

/// The acceptance pin, engine half: on the weight-bound single-engine
/// scenario, every positive fixed depth strictly improves mean TBT over
/// `Off` once draft acceptance reaches 0.7 — multi-token commits divide
/// the inter-token gap faster than the verify pass grows it.
#[test]
fn fixed_depth_improves_mean_tbt_over_off_at_acceptance_070_and_up() {
    for acceptance in [0.7, 0.9] {
        let off = engine_report(SpeculationPolicy::Off, acceptance);
        assert_eq!(off.drafted_tokens, 0);
        for k in [1usize, 2, 4] {
            let fixed = engine_report(SpeculationPolicy::Fixed(k), acceptance);
            assert!(
                fixed.tbt.mean < off.tbt.mean,
                "Fixed({k}) at acceptance {acceptance} must beat Off on mean TBT: \
                 {} vs {}",
                fixed.tbt.mean,
                off.tbt.mean
            );
            assert!(fixed.drafted_tokens > 0);
            // The committed-run mechanism, not a timing accident: the
            // realized acceptance tracks the leading-run expectation.
            assert!(fixed.acceptance_rate() > 0.0);
            assert!(fixed.acceptance_rate() <= acceptance + 0.05);
        }
    }
}

/// The acceptance pin, fleet half: on the pinned compute-bound
/// mixed-tenant fleet, `SloAdaptive` strictly beats `Off` and every swept
/// fixed depth on goodput (generated tokens from SLO-met requests per
/// second) — and the mechanism is visible: it drafts *fewer* tokens than
/// the mid fixed depths while converting far more chatbot requests to
/// SLO-met.
#[test]
fn slo_adaptive_tops_fleet_goodput_on_the_mixed_tenant_scenario() {
    let adaptive = fleet_report(SpeculationPolicy::SloAdaptive);
    let ada_fleet = adaptive.fleet.as_ref().unwrap();
    let fixed: Vec<(String, FleetReport)> = [
        SpeculationPolicy::Off,
        SpeculationPolicy::Fixed(1),
        SpeculationPolicy::Fixed(2),
        SpeculationPolicy::Fixed(4),
    ]
    .into_iter()
    .map(|p| (p.to_string(), fleet_report(p)))
    .collect();

    for (name, report) in &fixed {
        let rival = report.fleet.as_ref().unwrap();
        assert!(
            ada_fleet.goodput_tokens_per_sec > rival.goodput_tokens_per_sec,
            "slo-adaptive goodput {:.0} must strictly beat {name} at {:.0}",
            ada_fleet.goodput_tokens_per_sec,
            rival.goodput_tokens_per_sec
        );
        assert!(
            adaptive.tenants[0].attainment > report.tenants[0].attainment,
            "the goodput win must come from the latency tenant: \
             slo-adaptive chatbot attainment {:.3} vs {name} {:.3}",
            adaptive.tenants[0].attainment,
            report.tenants[0].attainment
        );
    }
    // Budgeted targeting, not brute force: strictly fewer drafted tokens
    // than every speculating fixed depth.
    for (name, report) in &fixed[1..] {
        let rival = report.fleet.as_ref().unwrap();
        assert!(
            ada_fleet.drafted_tokens < rival.drafted_tokens,
            "slo-adaptive must draft less than {name}: {} vs {}",
            ada_fleet.drafted_tokens,
            rival.drafted_tokens
        );
    }
    // Targeting the 0.85-acceptance tenant shows up as a realized
    // acceptance above every all-tenant fixed depth's.
    for (name, report) in &fixed[1..] {
        let rival = report.fleet.as_ref().unwrap();
        assert!(
            ada_fleet.acceptance_rate() > rival.acceptance_rate(),
            "slo-adaptive realized acceptance {:.2} must beat {name}'s {:.2}",
            ada_fleet.acceptance_rate(),
            rival.acceptance_rate()
        );
    }
    // Goodput never exceeds raw throughput, and the throughput sacrifice
    // against Off stays modest (the budget cap at work).
    let off = fixed[0].1.fleet.as_ref().unwrap();
    assert!(ada_fleet.goodput_tokens_per_sec <= ada_fleet.tokens_per_sec);
    assert!(
        ada_fleet.tokens_per_sec > 0.9 * off.tokens_per_sec,
        "the verify budget must bound the throughput cost: {:.0} vs {:.0}",
        ada_fleet.tokens_per_sec,
        off.tokens_per_sec
    );
}

/// `SpeculationPolicy::Off` reproduces the pre-speculation engine
/// bit-identically, whatever the other speculation knobs say, and SLO /
/// acceptance tags on requests change nothing while speculation is off.
#[test]
fn speculation_off_is_bit_identical_to_the_baseline_engine() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let base_cfg = SimConfig::new(6.0, 24).with_requests(80).with_seed(5);
    let requests = RequestGenerator::new(6.0, TraceProfile::ultrachat_like(), 5).take(80);

    let run = |cfg: SimConfig, requests: Vec<Request>| {
        ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_requests(requests)
            .unwrap()
    };

    // Exotic-but-off speculation config: bit-identical outcomes.
    let off_cfg = base_cfg.with_speculation(
        SpeculationConfig::off()
            .with_seed(99)
            .with_max_depth(7)
            .with_default_acceptance(0.99),
    );
    let (baseline_report, baseline_outcomes) = run(base_cfg, requests.clone());
    let (off_report, off_outcomes) = run(off_cfg, requests.clone());
    assert_eq!(baseline_report, off_report);
    assert_eq!(baseline_outcomes, off_outcomes);
    assert_eq!(off_report.drafted_tokens, 0);
    assert_eq!(off_report.rejected_tokens, 0);

    // Tagged requests under Off: identical timing for every request (the
    // embedded request differs by its tags, so compare the measurements).
    let tagged: Vec<Request> = requests
        .iter()
        .map(|r| r.with_slo(Slo::strict()).with_accept_rate(0.9))
        .collect();
    let (_, tagged_outcomes) = run(base_cfg, tagged);
    for (plain, tagged) in baseline_outcomes.iter().zip(&tagged_outcomes) {
        assert_eq!(plain.request.id, tagged.request.id);
        assert_eq!(plain.ttft, tagged.ttft);
        assert_eq!(plain.mean_tbt, tagged.mean_tbt);
        assert_eq!(plain.max_tbt, tagged.max_tbt);
        assert_eq!(plain.e2e, tagged.e2e);
    }
}

/// A request's acceptance rate is ignored unless the engine speculates,
/// so even an out-of-range rate must not panic a speculation-off engine:
/// a decoder that drafts nothing never consults it.
#[test]
fn speculation_off_ignores_an_out_of_range_accept_rate() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let mut engine = ServingSim::new(
        &arch,
        &model,
        Deployment::single_device(),
        SimConfig::new(1.0, 8).with_speculation(SpeculationConfig::off()),
    )
    .unwrap()
    .engine();
    engine
        .submit(Request {
            accept_rate: Some(1.5),
            ..Request::new(0, Seconds::ZERO, 128, 4)
        })
        .unwrap();
    while engine.step().unwrap() != StepEvent::Idle {}
    assert_eq!(engine.completed(), 1);
    assert_eq!(engine.counters().generated_tokens, 4);
    assert_eq!(engine.counters().drafted_tokens, 0);
}

/// Builds a single-device engine under `speculation`, submits `request`
/// and steps it until idle.
fn run_one(speculation: SpeculationConfig, request: Request) -> Result<(), SimError> {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = SimConfig::new(1.0, 8).with_speculation(speculation);
    let mut engine = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)?.engine();
    engine.submit(request)?;
    while engine.step()? != StepEvent::Idle {}
    Ok(())
}

/// A speculating engine turns away a request whose acceptance rate is
/// not a probability at submission, instead of panicking in its first
/// verify draw.
#[test]
fn speculating_engine_rejects_an_out_of_range_accept_rate() {
    for rate in [1.5, f64::NAN] {
        let request = Request {
            accept_rate: Some(rate),
            ..Request::new(0, Seconds::ZERO, 128, 4)
        };
        let err = run_one(SpeculationConfig::new(SpeculationPolicy::Fixed(2)), request);
        assert!(
            matches!(err, Err(SimError::InvalidAcceptRate { id: Some(0), .. })),
            "{rate}: {err:?}"
        );
    }
}

/// `SpeculationConfig`'s fields are public, so a literal can carry a
/// default acceptance its builder refuses; a speculating engine rejects
/// it at construction instead of panicking in a verify draw.
#[test]
fn speculating_engine_rejects_an_out_of_range_default_acceptance() {
    let speculation = SpeculationConfig {
        default_acceptance: 1.5,
        ..SpeculationConfig::new(SpeculationPolicy::Fixed(2))
    };
    let err = run_one(speculation, Request::new(0, Seconds::ZERO, 128, 4));
    assert!(
        matches!(err, Err(SimError::InvalidAcceptRate { id: None, .. })),
        "{err:?}"
    );
}

/// A NaN or negative draft cost ratio would price every drafting step
/// at a NaN or negative time (and report such a mean TBT); a speculating
/// engine rejects it at construction.
#[test]
fn speculating_engine_rejects_a_bad_draft_time_ratio() {
    for ratio in [f64::NAN, -5.0] {
        let speculation = SpeculationConfig {
            draft_time_ratio: ratio,
            ..SpeculationConfig::new(SpeculationPolicy::Fixed(2))
        };
        let err = run_one(speculation, Request::new(0, Seconds::ZERO, 128, 4));
        assert!(
            matches!(err, Err(SimError::InvalidDraftTimeRatio { .. })),
            "{ratio}: {err:?}"
        );
    }
}

/// The acceptance process is seeded and deterministic: the same
/// speculation seed reproduces the run exactly, a different seed moves
/// the accepted runs (and therefore the report) while conserving tokens.
#[test]
fn acceptance_process_is_seeded_and_deterministic() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let run = |spec_seed: u64| {
        let cfg = SimConfig::new(8.0, 16)
            .with_requests(60)
            .with_seed(3)
            .with_speculation(
                SpeculationConfig::new(SpeculationPolicy::Fixed(3))
                    .with_seed(spec_seed)
                    .with_default_acceptance(0.5),
            );
        ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(TraceProfile::short_chat())
            .unwrap()
    };
    let a = run(11);
    let b = run(11);
    let c = run(12);
    assert_eq!(a, b, "same speculation seed, same run");
    assert_ne!(a, c, "the speculation seed must reach the verify draws");
    for r in [&a, &c] {
        assert_eq!(r.drafted_tokens, r.accepted_tokens + r.rejected_tokens);
    }
}

/// Regression for the stop-boundary clamp: a request finishing mid-verify
/// never commits past its declared response length, even at full
/// acceptance and a depth far beyond the remaining tokens.
#[test]
fn verify_never_commits_past_max_new_tokens() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    for output_tokens in [1usize, 2, 3, 5, 8] {
        let cfg = SimConfig::new(1.0, 8).with_speculation(
            SpeculationConfig::new(SpeculationPolicy::Fixed(8))
                .with_max_depth(8)
                .with_default_acceptance(1.0),
        );
        let (report, outcomes) = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_requests(vec![Request::new(0, Seconds::ZERO, 64, output_tokens)])
            .unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(
            report.generated_tokens, output_tokens,
            "a {output_tokens}-token response must commit exactly \
             {output_tokens} tokens"
        );
        assert_eq!(
            report.drafted_tokens,
            report.accepted_tokens + report.rejected_tokens
        );
        // Full acceptance and depth clamping: every draft inside the stop
        // boundary is accepted, so commits are drafted + verify tokens.
        assert_eq!(report.rejected_tokens, 0);
        assert!(report.accepted_tokens < output_tokens);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Token conservation under speculation, across seeds, rates,
    /// policies and acceptance rates: every drafted token is either
    /// accepted or rejected, committed output matches the declared
    /// response lengths exactly, every request completes, and the engine
    /// drains clean.
    #[test]
    fn speculation_conserves_tokens(
        seed in 0u64..500,
        rate in 2.0f64..12.0,
        policy_pick in 0usize..6,
        acceptance in 0.3f64..0.95,
    ) {
        let arch = ador::baselines::ador_table3();
        let model = presets::llama3_8b();
        // 0..=4 → Fixed(k) (0 being the off-equivalent), 5 → SloAdaptive.
        let adaptive = policy_pick == 5;
        let policy = if adaptive {
            SpeculationPolicy::SloAdaptive
        } else {
            SpeculationPolicy::Fixed(policy_pick)
        };
        let cfg = SimConfig::new(rate, 16).with_speculation(
            SpeculationConfig::new(policy)
                .with_seed(seed)
                .with_default_acceptance(acceptance),
        );
        // Half the stream carries a strict SLO (so SloAdaptive has
        // latency tenants to target), half carries no contract.
        let requests: Vec<Request> = RequestGenerator::new(
            rate,
            TraceProfile::short_chat(),
            seed,
        )
        .take(40)
        .into_iter()
        .map(|r| {
            if r.id % 2 == 0 {
                r.with_slo(Slo::strict()).with_accept_rate(acceptance)
            } else {
                r
            }
        })
        .collect();
        let declared: usize = requests.iter().map(|r| r.output_tokens).sum();

        let (report, outcomes) =
            ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run_requests(requests)
                .unwrap();
        prop_assert_eq!(outcomes.len(), 40);
        prop_assert_eq!(report.generated_tokens, declared);
        prop_assert_eq!(
            report.drafted_tokens,
            report.accepted_tokens + report.rejected_tokens
        );
        prop_assert!(report.accepted_tokens <= report.drafted_tokens);
        if !adaptive && !matches!(policy, SpeculationPolicy::Fixed(0)) {
            // Every Fixed(k ≥ 1) run decodes multi-token responses, so
            // the sampler must actually be exercised. (SloAdaptive may
            // legitimately draft nothing when no request is urgent.)
            prop_assert!(report.drafted_tokens > 0);
        }
    }

    /// The speculation-off path stays bit-identical to the baseline
    /// engine across workloads — the guard that the whole subsystem is
    /// inert unless asked for.
    #[test]
    fn off_path_matches_baseline_across_seeds(
        seed in 0u64..1000,
        rate in 1.0f64..10.0,
    ) {
        let arch = ador::baselines::ador_table3();
        let model = presets::llama3_8b();
        let base = SimConfig::new(rate, 12).with_requests(30).with_seed(seed);
        let off = base.with_speculation(SpeculationConfig::off().with_seed(seed));
        let run = |cfg: SimConfig| {
            ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(TraceProfile::short_chat())
                .unwrap()
        };
        prop_assert_eq!(run(base), run(off));
    }
}
