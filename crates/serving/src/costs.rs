//! Step-cost tables: the latency of every engine step, priced once per
//! (architecture, model, deployment) and shared by every engine bound to
//! the same three.

use std::cell::RefCell;
use std::rc::Rc;

use ador_model::Phase;
use ador_perf::{Evaluator, PerfError};
use ador_units::Seconds;

/// Engines price a step's length rounded up to a multiple of this many
/// tokens, so nearby contexts share one table entry.
const CTX_BUCKET: usize = 128;

/// Priced step totals of one phase kind: one row per batch size, indexed
/// by context bucket `ceil(len / CTX_BUCKET)`, `None` until first priced.
/// Rows grow on demand.
type Rows = Vec<Vec<Option<Seconds>>>;

/// A registry of step-cost tables, one per distinct (architecture,
/// model, deployment).
///
/// Engines built through one registry
/// ([`ServingSim::engine_in`](crate::ServingSim::engine_in)) share the
/// table of their triple, so a key priced by one engine is a lookup for
/// every other: a fleet of identical replicas, or every candidate fleet
/// of a design search, prices each step once. An entry is a pure
/// function of the triple, the phase kind, the batch and the context
/// bucket, so whichever engine prices it first, every engine reads the
/// same number; and tables are matched by value, so a perturbed chip
/// never reads another chip's prices. Dropping the registry leaves every
/// engine's table alive.
///
/// # Examples
///
/// ```
/// use ador_serving::{Request, ServingSim, SimConfig, StepCosts, StepEvent};
/// use ador_perf::Deployment;
/// use ador_units::Seconds;
///
/// let arch = ador_baselines::ador_table3();
/// let model = ador_model::presets::llama3_8b();
/// let cfg = SimConfig::new(1.0, 8);
/// let mut costs = StepCosts::new();
/// let mut first = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)?
///     .engine_in(&mut costs);
/// // Same triple, so the second engine reads the steps the first priced.
/// let mut second = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)?
///     .engine_in(&mut costs);
/// for engine in [&mut first, &mut second] {
///     engine.submit(Request::new(0, Seconds::ZERO, 128, 4))?;
///     while engine.step()? != StepEvent::Idle {}
/// }
/// assert_eq!(first.outcomes(), second.outcomes());
/// # Ok::<(), ador_serving::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct StepCosts<'a> {
    tables: Vec<Rc<StepCostTable<'a>>>,
}

impl<'a> StepCosts<'a> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table of `evaluator`'s triple: an existing one whose
    /// architecture, model and deployment all equal the evaluator's, or
    /// else a new, empty one.
    pub(crate) fn table(&mut self, evaluator: Evaluator<'a>) -> Rc<StepCostTable<'a>> {
        if let Some(table) = self.tables.iter().find(|t| t.prices(&evaluator)) {
            return Rc::clone(table);
        }
        let table = Rc::new(StepCostTable {
            evaluator,
            prefill: RefCell::default(),
            decode: RefCell::default(),
        });
        self.tables.push(Rc::clone(&table));
        table
    }
}

/// One (architecture, model, deployment)'s step prices, shared through
/// `Rc` by every engine bound to that triple.
#[derive(Debug)]
pub(crate) struct StepCostTable<'a> {
    evaluator: Evaluator<'a>,
    prefill: RefCell<Rows>,
    decode: RefCell<Rows>,
}

impl<'a> StepCostTable<'a> {
    /// The evaluator the table prices with.
    pub(crate) fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    /// Whether this table prices `evaluator`'s triple (by value).
    fn prices(&self, evaluator: &Evaluator<'_>) -> bool {
        self.evaluator.architecture() == evaluator.architecture()
            && self.evaluator.model() == evaluator.model()
            && self.evaluator.deployment() == evaluator.deployment()
    }

    /// The latency of one `phase` step, its length rounded up to a
    /// multiple of `CTX_BUCKET`: a lookup, or on the key's first use one
    /// evaluation stored for every engine sharing the table. A failed
    /// evaluation stores nothing.
    pub(crate) fn step_time(&self, phase: Phase) -> Result<Seconds, PerfError> {
        let (rows, batch, len) = match phase {
            Phase::Prefill { batch, prompt_len } => (&self.prefill, batch, prompt_len),
            Phase::Decode { batch, context_len } => (&self.decode, batch, context_len),
        };
        let bucket = len.div_ceil(CTX_BUCKET);
        let priced = rows
            .borrow()
            .get(batch)
            .and_then(|row| row.get(bucket).copied().flatten());
        if let Some(t) = priced {
            return Ok(t);
        }
        let bucketed = match phase {
            Phase::Prefill { .. } => Phase::Prefill {
                batch,
                prompt_len: bucket * CTX_BUCKET,
            },
            Phase::Decode { .. } => Phase::Decode {
                batch,
                context_len: bucket * CTX_BUCKET,
            },
        };
        let t = self.evaluator.step(bucketed)?.total;
        let mut rows = rows.borrow_mut();
        if rows.len() <= batch {
            rows.resize_with(batch + 1, Vec::new);
        }
        let row = &mut rows[batch];
        if row.len() <= bucket {
            row.resize(bucket + 1, None);
        }
        row[bucket] = Some(t);
        Ok(t)
    }
}
