//! The ADOR performance model: maps an operator graph onto an
//! [`Architecture`](ador_hw::Architecture) and predicts per-step latency
//! (paper §IV-E, §V-D, Figs. 8, 11, 12, 14).
//!
//! The model follows the paper's heterogeneous-dataflow scheduling (Fig. 8):
//!
//! * **decode weight GEMVs** stream weights straight from DRAM through the
//!   MAC trees (utilization per the Fig. 10 law), with the systolic array
//!   joining once the batch makes them compute-bound;
//! * **decode attention** is serviced by the MAC trees at full DRAM
//!   bandwidth — the per-request KV traffic is the dominant term at batch;
//! * **prefill GEMMs** run on the systolic arrays (weight-stationary,
//!   double-buffered) with the MAC trees assisting, split at compile time;
//! * **prefill attention** reads the running chunk's KV from on-chip global
//!   memory instead of DRAM;
//! * **vector work** (softmax, norms, activations) runs on the vector units;
//! * tensor-parallel devices synchronize per sub-block with exposed wire
//!   time and barriers from [`ador_parallel`].
//!
//! Entry point: [`Evaluator`]. A step is priced in two halves. A
//! [`StepPlan`] holds what depends only on the (model, phase) pair: the
//! operator lists, the step's FLOPs and DRAM bytes, and its KV footprint.
//! [`Evaluator::price`] adds what depends on the architecture and
//! deployment. [`Evaluator::step`] does both for one phase; a caller that
//! prices one phase on many architectures, like the design search, plans
//! it once and prices it per candidate. [`lower`] lowers the same plan
//! into an instruction [`Program`].
//!
//! # Examples
//!
//! ```
//! use ador_perf::{Deployment, Evaluator, StepPlan};
//! use ador_model::{presets, Phase};
//! use ador_baselines::ador_table3;
//!
//! let model = presets::llama3_8b();
//! let arch = ador_table3();
//! let eval = Evaluator::new(&arch, &model, Deployment::single_device()).unwrap();
//! let decode = eval.step(Phase::decode(16, 1024)).unwrap();
//! let prefill = eval.step(Phase::prefill(1, 1024)).unwrap();
//! assert!(decode.total < prefill.total); // one token vs a thousand
//!
//! // The same decode step, planned once and priced.
//! let plan = StepPlan::new(&model, Phase::decode(16, 1024)).unwrap();
//! assert_eq!(eval.price(&plan).unwrap(), decode);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deploy;
mod error;
mod isa;
pub mod local_mem;
mod lowering;
mod op_latency;
mod schedule;
mod step;

pub use deploy::Deployment;
pub use error::PerfError;
pub use isa::{Bundle, CycleExecutor, ExecutionReport, Instruction, Program};
pub use lowering::lower;
pub use op_latency::{BoundKind, OpLatency};
pub use schedule::{FabricRates, UnitChoice};
pub use step::{Evaluator, StepLatency, StepPlan};
