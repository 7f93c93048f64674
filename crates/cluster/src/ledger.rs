//! The fleet's per-request ledger: where each request sits in the
//! offered stream and, once the prefill half of a split request
//! completes, where that half's outcome sits.

use ador_units::conv;

use crate::ClusterRequest;

/// Per-request bookkeeping of one fleet run, indexed by *slot*: a
/// request's position in the stream's ids sorted ascending. Ids may be
/// any `u64`s; a lookup by id is O(1) when they are dense and a binary
/// search otherwise (the determinism contract rules out hash maps).
///
/// A slot holds the request's position in the offered stream, which
/// holds the request as offered and its tenant, and, once the prefill
/// half of a split request completes, that half's replica and index in
/// the replica's outcomes. So a split request in flight is kept once, in
/// the stream, and its prefill half where its engine left it.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Every request id of the stream, ascending.
    ids: Vec<u64>,
    /// Index-aligned with `ids`.
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The request's position in the offered stream.
    position: u32,
    /// The completed prefill half of a split request: its replica and its
    /// index in that replica's outcomes.
    prefill: Option<(u32, u32)>,
}

impl Ledger {
    /// The ledger of one stream, in the order the fleet offers it. Its
    /// one sort of the stream's ids also finds their duplicates.
    ///
    /// # Errors
    ///
    /// Returns the smallest request id the stream holds twice.
    pub(crate) fn new(stream: &[ClusterRequest]) -> Result<Self, u64> {
        let mut entries: Vec<(u64, u32)> = stream
            .iter()
            .enumerate()
            .map(|(position, cr)| (cr.request.id, conv::u32_from_usize(position)))
            .collect();
        entries.sort_unstable();
        for pair in entries.windows(2) {
            match pair {
                [(a, _), (b, _)] if a == b => return Err(*a),
                _ => {}
            }
        }
        Ok(Self {
            ids: entries.iter().map(|&(id, _)| id).collect(),
            slots: entries
                .iter()
                .map(|&(_, position)| Slot {
                    position,
                    prefill: None,
                })
                .collect(),
        })
    }

    /// Requests in the stream.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The slot of request `id`: O(1) when the stream's ids are dense
    /// (consecutive from the smallest, as [`TenantMix::generate`]'s are),
    /// a binary search otherwise.
    ///
    /// [`TenantMix::generate`]: crate::TenantMix::generate
    pub(crate) fn slot(&self, id: u64) -> usize {
        // In a dense stream the id's offset from the smallest id is its
        // slot.
        let guess = self.ids.first().and_then(|&first| {
            let offset = usize::try_from(id.wrapping_sub(first)).ok()?;
            (self.ids.get(offset) == Some(&id)).then_some(offset)
        });
        guess.unwrap_or_else(|| {
            self.ids
                .binary_search(&id)
                // ador-lint: allow(panic) — invariant: every id the fleet handles came from its stream
                .expect("request id is in the stream")
        })
    }

    /// The offered stream's position of the request in `slot`.
    pub(crate) fn position(&self, slot: usize) -> usize {
        conv::usize_from_u32(self.slots[slot].position)
    }

    /// The completed prefill half of `slot`'s request, as (replica, index
    /// in its outcomes); `None` until that half completes, and for a
    /// request never split.
    pub(crate) fn prefill(&self, slot: usize) -> Option<(usize, usize)> {
        let (replica, index) = self.slots[slot].prefill?;
        Some((conv::usize_from_u32(replica), conv::usize_from_u32(index)))
    }

    /// Records that the prefill half of `slot`'s request completed as
    /// outcome `index` of replica `replica`.
    pub(crate) fn record_prefill(&mut self, slot: usize, replica: usize, index: usize) {
        let narrow = conv::u32_from_usize;
        self.slots[slot].prefill = Some((narrow(replica), narrow(index)));
    }
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use std::collections::BTreeMap;

    use ador_model::presets;
    use ador_perf::Deployment;
    use ador_serving::{Request, SimConfig};
    use ador_telemetry::{Event, EventDetail, EventKind, TelemetryConfig};
    use ador_units::Seconds;

    use super::*;
    use crate::{
        scenarios, ClusterConfig, ClusterSim, FleetReport, FleetSpec, ReplicaSpec, RouterPolicy,
        TenantClass, TenantMix,
    };

    fn tagged(id: u64, tenant: usize) -> ClusterRequest {
        ClusterRequest {
            request: Request::new(id, Seconds::ZERO, 8, 4),
            tenant,
        }
    }

    #[test]
    fn slots_follow_sorted_ids_and_hold_stream_positions() {
        let stream = [tagged(u64::MAX, 1), tagged(7, 0), tagged(1 << 40, 2)];
        let mut ledger = Ledger::new(&stream).unwrap();
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.slot(7), 0);
        assert_eq!(ledger.slot(1 << 40), 1);
        assert_eq!(ledger.slot(u64::MAX), 2);
        for (position, cr) in stream.iter().enumerate() {
            assert_eq!(ledger.position(ledger.slot(cr.request.id)), position);
        }
        assert_eq!(ledger.prefill(2), None, "no half completed yet");
        ledger.record_prefill(2, 3, 41);
        assert_eq!(ledger.prefill(2), Some((3, 41)));
        assert_eq!(ledger.prefill(0), None, "other slots are untouched");
    }

    #[test]
    fn slots_of_dense_and_gapped_ids_match_their_sorted_positions() {
        // Dense from a base near `u64::MAX` (the offset path); the same
        // ids with one missing, so that every id past the gap has an
        // in-range offset that is not its slot; and with a far outlier
        // below them (the binary search behind the offset path).
        let base = u64::MAX - 40;
        let run = |skip: u64| {
            (0..=40)
                .filter(move |&k| k != skip)
                .map(|k| tagged(base + k, 0))
        };
        let dense: Vec<ClusterRequest> = run(41).rev().collect();
        let gapped: Vec<ClusterRequest> = run(17).collect();
        let outlier: Vec<ClusterRequest> = run(41).chain([tagged(3, 0)]).collect();
        for stream in [dense, gapped, outlier] {
            let ledger = Ledger::new(&stream).unwrap();
            let mut ids: Vec<u64> = stream.iter().map(|cr| cr.request.id).collect();
            ids.sort_unstable();
            for (slot, &id) in ids.iter().enumerate() {
                assert_eq!(ledger.slot(id), slot, "id {id}");
            }
        }
    }

    /// Sparse, non-monotone ids near `u64::MAX` (a bijection on any
    /// dense `0..2^20` id range; id 5 maps to `u64::MAX` itself).
    fn sparse(id: u64) -> u64 {
        u64::MAX - (id ^ 5) * 1_000_003
    }

    /// Runs `stream` as generated (dense ids `0..n`) and relabeled with
    /// [`sparse`] ids, maps every id in the relabeled report back, and
    /// returns both reports.
    fn dense_and_relabeled(
        run: impl Fn(Vec<ClusterRequest>) -> FleetReport,
        stream: Vec<ClusterRequest>,
    ) -> (FleetReport, FleetReport) {
        let back: BTreeMap<u64, u64> = stream
            .iter()
            .map(|cr| (sparse(cr.request.id), cr.request.id))
            .collect();
        let relabeled = stream
            .iter()
            .map(|cr| {
                let mut cr = *cr;
                cr.request.id = sparse(cr.request.id);
                cr
            })
            .collect();
        let dense = run(stream);
        let mut mapped = run(relabeled);
        for (id, _) in &mut mapped.assignments {
            *id = back[id];
        }
        let telemetry = mapped.telemetry.as_mut().expect("traced run");
        for e in telemetry.events.iter_mut().flatten() {
            e.request = back[&e.request];
        }
        for (_, e) in &mut telemetry.transfer_events {
            e.request = back[&e.request];
        }
        // The transfer lane breaks equal-time ties by request id (starts
        // before ends); restore the order the dense ids give.
        let is_end = |e: &Event| matches!(e.kind, EventKind::KvTransferEnd { .. });
        telemetry.transfer_events.sort_by(|(_, a), (_, b)| {
            a.time
                .partial_cmp(&b.time)
                .unwrap()
                .then(a.request.cmp(&b.request))
                .then(is_end(a).cmp(&is_end(b)))
        });
        (dense, mapped)
    }

    fn traced() -> TelemetryConfig {
        TelemetryConfig::trace()
            .with_series(Seconds::from_millis(250.0))
            .with_attribution()
    }

    #[test]
    fn disaggregated_reports_do_not_depend_on_request_ids() {
        let model = presets::llama3_8b();
        let engine =
            scenarios::disagg_engine().with_telemetry(traced().with_detail(EventDetail::Lifecycle));
        let fleet = FleetSpec::prefill_decode(
            &ReplicaSpec::new(ador_baselines::prefill_optimized(), engine),
            2,
            &ReplicaSpec::new(ador_baselines::decode_optimized(), engine),
            2,
        );
        let mix = scenarios::disagg_mix(16.0);
        let run = |stream| {
            ClusterSim::new_fleet(
                &fleet,
                &model,
                Deployment::single_device(),
                scenarios::disagg_cluster(true),
            )
            .unwrap()
            .run_stream(&mix, stream)
            .unwrap()
        };
        let (dense, relabeled) = dense_and_relabeled(run, mix.generate(150, 3));
        assert!(dense.kv_transfers > 0 && dense.attribution.is_some());
        assert_eq!(relabeled, dense);
    }

    #[test]
    fn aggregated_reports_do_not_depend_on_request_ids() {
        let arch = ador_baselines::ador_table3();
        let model = presets::llama3_8b();
        let mix = TenantMix::new(vec![
            TenantClass::chatbot(40.0),
            TenantClass::summarization(20.0),
        ]);
        // A tight queue cap makes the run shed, so shed stamps and the
        // per-tenant rejection counts go through the ledger too.
        let cfg = ClusterConfig::new(3, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 16))
            .with_queue_cap(4)
            .with_telemetry(traced());
        let run = |stream| {
            ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run_stream(&mix, stream)
                .unwrap()
        };
        let (dense, relabeled) = dense_and_relabeled(run, mix.generate(150, 9));
        assert!(dense.rejected > 0 && dense.attribution.is_some());
        assert_eq!(relabeled, dense);
    }

    fn one_class_fleet() -> (ador_hw::Architecture, ador_model::ModelConfig, TenantMix) {
        let mix = TenantMix::new(vec![TenantClass::chatbot(4.0)]);
        (ador_baselines::ador_table3(), presets::llama3_8b(), mix)
    }

    #[test]
    #[should_panic(expected = "duplicate request id 9")]
    fn submit_stream_panics_on_a_duplicate_id() {
        let (arch, model, mix) = one_class_fleet();
        let mut sim = ClusterSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            ClusterConfig::new(1, RouterPolicy::RoundRobin),
        )
        .unwrap();
        sim.submit_stream(&mix, vec![tagged(9, 0), tagged(u64::MAX, 0), tagged(9, 0)]);
    }

    #[test]
    #[should_panic(expected = "tenant tag 1 out of range for a 1-class mix")]
    fn submit_stream_panics_on_an_out_of_range_tenant() {
        let (arch, model, mix) = one_class_fleet();
        let mut sim = ClusterSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            ClusterConfig::new(1, RouterPolicy::RoundRobin),
        )
        .unwrap();
        sim.submit_stream(&mix, vec![tagged(3, 0), tagged(4, 1)]);
    }
}
