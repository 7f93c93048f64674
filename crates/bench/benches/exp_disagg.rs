//! Disaggregation experiment (beyond the paper): heterogeneous
//! prefill/decode fleets co-explored with the hardware model.
//!
//! The paper's search proposes one chip; this experiment asks the
//! datacenter question: given the pinned interactive + bursty-ingest mix
//! (`scenarios::disagg_mix`) and an iso-count fleet budget, which chips
//! in what mix behind which router? `ador_core::search::co_explore`
//! evaluates every homogeneous fleet (unified / prefill-optimized /
//! decode-optimized × front-door policy) and every disaggregated split
//! over the pinned KV link, then picks the composition with the highest
//! goodput among those meeting the attainment target.
//!
//! Writes the machine-readable result to `BENCH_disagg.json` at the
//! workspace root (schema-checked by `ador_bench::schema::validate`
//! before the write, and again by `tests/bench_artifact.rs`) and mirrors
//! it as an `artifact:` line. Pass `--quick` for the CI smoke run (fewer
//! requests; the disagg-beats-homogeneous pin is only enforced on full
//! runs), which writes to `target/bench-quick/` instead and leaves the
//! committed file alone.

use ador_bench::{claim, f, json, table};
use ador_core::cluster::scenarios::{
    disagg_engine, disagg_link, disagg_mix, DISAGG_RATE, DISAGG_REPLICAS, DISAGG_REQUESTS,
    DISAGG_SEED,
};
use ador_core::model::presets;
use ador_core::search::{co_explore, FleetCandidate, FleetChips, FleetSearchInput};

/// The fleet SLO target candidates must meet before goodput breaks ties.
const TARGET_ATTAINMENT: f64 = 0.9;

fn candidate_json(c: &FleetCandidate) -> String {
    json::object(&[
        ("label", json::string(&c.label)),
        ("policy", json::string(&c.policy.to_string())),
        (
            "decode_policy",
            c.decode_policy
                .map_or("null".to_string(), |p| json::string(&p.to_string())),
        ),
        ("prefill_replicas", json::num(c.prefill_replicas as f64)),
        ("decode_replicas", json::num(c.decode_replicas as f64)),
        ("disaggregated", c.disaggregated.to_string()),
        ("attainment", json::num(c.attainment)),
        ("goodput_tokens_per_sec", json::num(c.goodput)),
        ("ttft_p95_ms", json::num(c.ttft_p95_ms)),
        ("tbt_p95_ms", json::num(c.tbt_p95_ms)),
        ("kv_transfers", json::num(c.kv_transfers as f64)),
        ("meets_target", c.meets_target.to_string()),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let requests = if quick { 80 } else { DISAGG_REQUESTS };

    let model = presets::llama3_8b();
    let mix = disagg_mix(DISAGG_RATE);
    let input = FleetSearchInput {
        model: &model,
        mix: &mix,
        chips: FleetChips::ador_defaults(),
        replicas: DISAGG_REPLICAS,
        engine: disagg_engine(),
        link: disagg_link(),
        requests,
        seed: DISAGG_SEED,
        target_attainment: TARGET_ATTAINMENT,
    };
    let outcome = co_explore(&input).expect("fleet search runs");

    let rows: Vec<Vec<String>> = outcome
        .candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let marker = if i == outcome.best {
                " <- winner"
            } else if i == outcome.best_homogeneous {
                " <- best homogeneous"
            } else {
                ""
            };
            vec![
                format!("{}{marker}", c.label),
                f(c.attainment, 3),
                f(c.goodput, 0),
                f(c.ttft_p95_ms, 0),
                f(c.tbt_p95_ms, 1),
                c.kv_transfers.to_string(),
                c.meets_target.to_string(),
            ]
        })
        .collect();
    table(
        &format!(
            "Disaggregation co-exploration: {DISAGG_REPLICAS}-replica fleets, \
             {DISAGG_RATE} req/s interactive+ingest mix, target attainment {TARGET_ATTAINMENT}"
        ),
        &[
            "composition",
            "attainment",
            "goodput (tok/s)",
            "TTFT p95 (ms)",
            "TBT p95 (ms)",
            "KV transfers",
            "meets target",
        ],
        &rows,
    );

    let winner = outcome.winner();
    let homog = outcome.homogeneous_baseline();
    let disagg_wins = winner.disaggregated
        && (winner.attainment > homog.attainment
            || (winner.meets_target && winner.goodput > homog.goodput));
    claim(
        "disaggregated heterogeneous mix beats best homogeneous fleet",
        "prefill/decode disaggregation wins at iso-count when decode SLOs bind (DistServe/Splitwise)",
        &format!(
            "winner `{}` attainment {:.3} goodput {:.0} vs homogeneous `{}` attainment {:.3} goodput {:.0}",
            winner.label, winner.attainment, winner.goodput, homog.label, homog.attainment, homog.goodput
        ),
    );
    if !quick {
        assert!(
            disagg_wins,
            "the pinned scenario must show a disaggregation win: winner {winner:?} vs {homog:?}"
        );
    }

    let doc = json::object(&[
        ("name", json::string("bench_disagg")),
        ("rate", json::num(DISAGG_RATE)),
        ("seed", json::num(DISAGG_SEED as f64)),
        ("replicas", json::num(DISAGG_REPLICAS as f64)),
        ("requests", json::num(requests as f64)),
        ("target_attainment", json::num(TARGET_ATTAINMENT)),
        ("quick", quick.to_string()),
        (
            "candidates",
            json::array(
                &outcome
                    .candidates
                    .iter()
                    .map(candidate_json)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("winner", candidate_json(winner)),
        ("best_homogeneous", candidate_json(homog)),
        ("disagg_wins", disagg_wins.to_string()),
    ]);
    ador_bench::write_artifact("disagg", &doc, quick).expect("write BENCH_disagg.json");
}
