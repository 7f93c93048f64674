//! The ADOR architecture search (paper §V, Fig. 9).
//!
//! Given **vendor constraints** (area, SRAM, memory bandwidth/capacity,
//! process, clock) and **end-user requirements** (TTFT, TBT, request rate)
//! for a target **workload** (model, batch, sequence length), the search:
//!
//! 1. sizes the MAC tree from the bandwidth-matching formula and a lane
//!    sweep over the model's attention variant (§V-A, Fig. 11b), then
//!    enumerates systolic-array configurations in multiples of 32 (§V-A,
//!    Fig. 11a) and sizes local/global SRAM from the activation simulator
//!    (§V-B, Fig. 12);
//! 2. solves the minimum NoC and P2P bandwidths that keep communication
//!    overlapped (§V-C, Fig. 13);
//! 3. evaluates every candidate with the performance model and picks the
//!    **smallest-area design that meets the requirements** — vendors pay
//!    for silicon, users for latency (Fig. 1);
//! 4. if nothing qualifies, runs the paper's feedback path: report the best
//!    effort along with which requirement failed and what it would take.
//!
//! Beyond the single chip, [`co_explore`] lifts the search to the
//! datacenter: hardware config × replica mix × router policy against a
//! fleet SLO target, judging prefill/decode-disaggregated heterogeneous
//! mixes against iso-count homogeneous fleets on real multi-tenant
//! traffic (see `crates/cluster`).
//!
//! # Examples
//!
//! ```
//! use ador_search::{SearchInput, UserRequirements, VendorConstraints, Workload};
//! use ador_model::presets;
//!
//! let input = SearchInput {
//!     vendor: VendorConstraints::a100_class(),
//!     user: UserRequirements::chatbot(),
//!     workload: Workload::new(presets::llama3_8b(), 128, 1024),
//! };
//! let outcome = ador_search::search(&input)?;
//! assert!(outcome.satisfied);
//! assert!(outcome.architecture.is_hda());
//! # Ok::<(), ador_search::SearchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraints;
mod fleet;
mod interconnect;
mod pareto;
mod report;
mod sizing;

pub use constraints::{SearchInput, UserRequirements, VendorConstraints, Workload};
pub use fleet::{co_explore, FleetCandidate, FleetChips, FleetSearchInput, FleetSearchOutcome};
pub use interconnect::{solve_noc_bandwidth, solve_p2p_bandwidth};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use report::{SearchError, SearchOutcome, SearchStep};
pub use sizing::{mt_candidates, sa_candidates, size_memories};

use ador_hw::{Architecture, AreaBreakdown, AreaModel, MacTree, SystolicArray};
use ador_model::Phase;
use ador_perf::{Deployment, Evaluator, StepPlan};

/// Runs the full Fig. 9 search loop.
///
/// # Errors
///
/// Returns [`SearchError::NoFeasibleCandidate`] when not a single candidate
/// fits the vendor's area/memory budget at all (distinct from "fits but
/// misses QoS", which yields `satisfied = false` plus the feedback notes),
/// and [`SearchError::DeploymentPlanning`] when the workload has a zero
/// batch or sequence length or cannot be placed on the device budget.
pub fn search(input: &SearchInput) -> Result<SearchOutcome, SearchError> {
    let vendor = &input.vendor;
    let user = &input.user;
    let workload = &input.workload;

    let deployment = workload.deployment(vendor)?;
    // The operating point's two steps depend only on the model, so they are
    // planned once here and priced on every candidate below.
    let plan = |phase| {
        StepPlan::new(&workload.model, phase)
            .map_err(|e| SearchError::DeploymentPlanning(e.to_string()))
    };
    let prefill = plan(Phase::Prefill {
        batch: 1,
        prompt_len: workload.seq_len,
    })?;
    let decode = plan(Phase::Decode {
        batch: workload.batch,
        context_len: workload.seq_len,
    })?;
    let mut steps: Vec<SearchStep> = Vec::new();
    let mut best: Option<(f64, SearchOutcome)> = None; // keyed by area
    let mut best_effort: Option<(f64, SearchOutcome)> = None; // keyed by QoS score

    for (candidate, breakdown) in candidates(vendor, workload, deployment) {
        let area = breakdown.total();

        // Step 3: evaluate QoS at the operating point.
        let Ok(eval) = Evaluator::new(&candidate, &workload.model, deployment) else {
            continue;
        };
        let Ok(ttft) = eval.price(&prefill).map(|step| step.total) else {
            continue;
        };
        let Ok(tbt) = eval.price(&decode).map(|step| step.total) else {
            continue;
        };

        let ttft_score = ttft.get() / user.ttft_max.get();
        let tbt_score = tbt.get() / user.tbt_max.get();
        let qos_score = ttft_score.max(tbt_score);
        let satisfied = qos_score <= 1.0;

        steps.push(SearchStep {
            candidate: candidate.name.clone(),
            area,
            ttft,
            tbt,
            satisfied,
        });

        let outcome = SearchOutcome {
            architecture: candidate,
            area: breakdown,
            deployment,
            ttft,
            tbt,
            satisfied,
            qos_margin: 1.0 - qos_score,
            steps: Vec::new(),
            notes: Vec::new(),
        };
        if satisfied {
            let key = area.as_mm2();
            if best.as_ref().is_none_or(|(a, _)| key < *a) {
                best = Some((key, outcome));
            }
        } else {
            let key = qos_score;
            if best_effort.as_ref().is_none_or(|(s, _)| key < *s) {
                best_effort = Some((key, outcome));
            }
        }
    }

    // Step 4: finalize, or run the feedback path.
    match (best, best_effort) {
        (Some((_, mut outcome)), _) => {
            outcome.steps = steps;
            Ok(outcome)
        }
        (None, Some((_, mut outcome))) => {
            outcome.notes = feedback_notes(&outcome, user);
            outcome.steps = steps;
            Ok(outcome)
        }
        (None, None) => Err(SearchError::NoFeasibleCandidate {
            area_budget: vendor.area_budget,
            model: workload.model.name.clone(),
        }),
    }
}

/// Steps 1 and 2: every candidate that still fits the area budget once its
/// interconnect is sized, with its itemized area, in sweep order.
fn candidates(
    vendor: &VendorConstraints,
    workload: &Workload,
    deployment: Deployment,
) -> Vec<(Architecture, AreaBreakdown)> {
    let area_model = AreaModel::default();
    let mut out = Vec::new();
    for mt in mt_candidates(vendor, workload) {
        for sa in sa_candidates() {
            for cores in [8usize, 16, 32, 64, 128] {
                let Some((local, global)) = size_memories(vendor, workload, cores) else {
                    continue;
                };
                let mut candidate = build_candidate(vendor, mt, sa, cores, local, global);
                if area_model.estimate(&candidate).total() > vendor.area_budget {
                    continue;
                }
                // Step 2: interconnect floors for this candidate.
                candidate.noc_bandwidth = solve_noc_bandwidth(&candidate, workload);
                candidate.p2p_bandwidth = solve_p2p_bandwidth(&candidate, workload, deployment);
                let breakdown = area_model.estimate(&candidate);
                if breakdown.total() > vendor.area_budget {
                    continue;
                }
                out.push((candidate, breakdown));
            }
        }
    }
    out
}

fn build_candidate(
    vendor: &VendorConstraints,
    mt: MacTree,
    sa: SystolicArray,
    cores: usize,
    local: ador_units::Bytes,
    global: ador_units::Bytes,
) -> Architecture {
    Architecture::builder(format!(
        "ADOR sa{}x{} mt{}x{} c{}",
        sa.rows(),
        sa.cols(),
        mt.size(),
        mt.lanes(),
        cores
    ))
    .cores(cores)
    .systolic_array(sa)
    .mac_tree(mt)
    .local_memory(local)
    .global_memory(global)
    .dram(ador_hw::memory::DramSpec::hbm2e(
        vendor.memory_capacity,
        vendor.memory_bandwidth,
    ))
    .frequency(vendor.frequency)
    .process(vendor.process)
    .build()
}

/// The paper's final-iteration behaviour: when requirements stay unmet,
/// "the final architecture is proposed along with the additional hardware
/// specifications needed".
fn feedback_notes(outcome: &SearchOutcome, user: &UserRequirements) -> Vec<String> {
    let mut notes = Vec::new();
    if outcome.ttft > user.ttft_max {
        let factor = outcome.ttft.get() / user.ttft_max.get();
        notes.push(format!(
            "TTFT misses the SLA by {factor:.2}x: allocate more systolic-array area \
             (or raise the area budget by ~{:.0}%)",
            (factor - 1.0) * 100.0
        ));
    }
    if outcome.tbt > user.tbt_max {
        let factor = outcome.tbt.get() / user.tbt_max.get();
        notes.push(format!(
            "TBT misses the SLA by {factor:.2}x: memory bandwidth is the binding \
             resource — provision ~{factor:.2}x the DRAM bandwidth or shard wider"
        ));
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_model::presets;
    use ador_perf::Evaluator;
    use ador_units::Seconds;

    fn a100_class_input() -> SearchInput {
        SearchInput {
            vendor: VendorConstraints::a100_class(),
            user: UserRequirements::chatbot(),
            workload: Workload::new(presets::llama3_8b(), 128, 1024),
        }
    }

    #[test]
    fn search_reproduces_table3_shape() {
        // Under A100-class constraints the paper's search lands on a
        // 64x64-SA HDA with tens of cores and a die around 516 mm².
        let outcome = search(&a100_class_input()).unwrap();
        assert!(outcome.satisfied, "{:?}", outcome.notes);
        let arch = &outcome.architecture;
        assert!(arch.is_hda());
        let sa = arch.sa.unwrap();
        assert!(
            (32..=128).contains(&sa.rows()),
            "SA size {} outside the paper's sweep",
            sa.rows()
        );
        let area = outcome.area.total().as_mm2();
        assert!((350.0..=826.0).contains(&area), "die {area:.0} mm2");
    }

    #[test]
    fn proposed_design_beats_a100_qos() {
        let input = a100_class_input();
        let outcome = search(&input).unwrap();
        let a100 = ador_baselines::a100();
        let model = &input.workload.model;
        let gpu = Evaluator::new(&a100, model, outcome.deployment).unwrap();
        let gpu_tbt = gpu
            .decode_interval(input.workload.batch, input.workload.seq_len)
            .unwrap();
        assert!(
            outcome.tbt < gpu_tbt,
            "search result {} should beat the A100's {}",
            outcome.tbt,
            gpu_tbt
        );
    }

    #[test]
    fn tighter_area_budget_shrinks_the_die() {
        let mut input = a100_class_input();
        let spacious = search(&input).unwrap();
        input.vendor.area_budget =
            ador_units::Area::from_mm2(spacious.area.total().as_mm2() * 0.85);
        // Relax QoS so a smaller design can still qualify.
        input.user.tbt_max = Seconds::from_millis(60.0);
        input.user.ttft_max = Seconds::from_millis(200.0);
        let tight = search(&input).unwrap();
        assert!(tight.area.total() <= spacious.area.total());
    }

    #[test]
    fn impossible_sla_returns_feedback() {
        let mut input = a100_class_input();
        input.user.tbt_max = Seconds::from_micros(1.0);
        let outcome = search(&input).unwrap();
        assert!(!outcome.satisfied);
        assert!(!outcome.notes.is_empty());
        assert!(
            outcome.notes.iter().any(|n| n.contains("TBT")),
            "{:?}",
            outcome.notes
        );
    }

    #[test]
    fn search_logs_candidate_steps() {
        let outcome = search(&a100_class_input()).unwrap();
        assert!(
            outcome.steps.len() > 10,
            "expected a real sweep, got {}",
            outcome.steps.len()
        );
    }

    #[test]
    fn logged_steps_match_fresh_evaluations() {
        let seventy_b = SearchInput {
            workload: Workload::new(presets::llama3_70b(), 64, 2048),
            ..a100_class_input()
        };
        for input in [a100_class_input(), seventy_b] {
            let outcome = search(&input).unwrap();
            let w = &input.workload;
            let mut logged = outcome.steps.iter();
            for (candidate, _) in candidates(&input.vendor, w, outcome.deployment) {
                let Ok(eval) = Evaluator::new(&candidate, &w.model, outcome.deployment) else {
                    continue;
                };
                let (Ok(ttft), Ok(tbt)) = (
                    eval.ttft(1, w.seq_len),
                    eval.decode_interval(w.batch, w.seq_len),
                ) else {
                    continue;
                };
                let step = logged.next().expect("every priced candidate is logged");
                assert_eq!(step.candidate, candidate.name);
                assert_eq!(
                    step.ttft.get().to_bits(),
                    ttft.get().to_bits(),
                    "{}",
                    step.candidate
                );
                assert_eq!(
                    step.tbt.get().to_bits(),
                    tbt.get().to_bits(),
                    "{}",
                    step.candidate
                );
            }
            assert!(logged.next().is_none(), "a logged step has no candidate");
        }
    }

    #[test]
    fn zero_sized_workloads_are_errors_not_panics() {
        for (batch, seq_len) in [(0, 1024), (128, 0)] {
            let mut input = a100_class_input();
            input.workload.batch = batch;
            input.workload.seq_len = seq_len;
            assert!(
                matches!(search(&input), Err(SearchError::DeploymentPlanning(_))),
                "batch {batch}, seq_len {seq_len}"
            );
        }
    }

    #[test]
    fn multi_device_workload_plans_deployment() {
        let input = SearchInput {
            vendor: VendorConstraints::a100_class(),
            user: UserRequirements::chatbot(),
            workload: Workload::new(presets::llama3_70b(), 128, 1024),
        };
        let outcome = search(&input).unwrap();
        assert!(
            outcome.deployment.devices >= 2,
            "{}",
            outcome.deployment.devices
        );
    }
}
