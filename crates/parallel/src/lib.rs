//! Model parallelism for multi-device LLM serving (paper §IV-D, Fig. 7,
//! Fig. 13).
//!
//! Large models exceed a single device's memory capacity and bandwidth, so
//! ADOR maps them across devices with **tensor parallelism** (TP — weight
//! matrices split across devices, activations synchronized between GEMMs)
//! or **pipeline parallelism** (PP — whole layers assigned per device).
//! The paper's conclusions, all reproduced by these models:
//!
//! * TP divides per-token latency by the device count (minus sync overhead);
//!   PP leaves latency untouched and only helps throughput;
//! * among TP sync strategies, Megatron wins at 2 devices, all-gather from
//!   4 up (Fig. 13a);
//! * ~32 GB/s of P2P bandwidth is enough to overlap communication for
//!   decode-heavy workloads (Fig. 13b).
//!
//! Serving therefore uses pure TP: [`TensorParallel::for_memory`] is the
//! mapper of Fig. 7a, picking the power-of-two TP width that holds the
//! model plus its KV budget and the recommended sync strategy for it.
//! [`PipelineParallel`] stays as the model behind the TP-vs-PP comparison.
//!
//! # Examples
//!
//! ```
//! use ador_parallel::{BlockWorkload, TensorParallel};
//! use ador_noc::{P2pLink, SyncStrategy};
//! use ador_units::{Bytes, Seconds};
//!
//! let block = BlockWorkload::new(Seconds::from_micros(120.0), Bytes::from_kib(256));
//! let tp8 = TensorParallel::new(8, SyncStrategy::AllGather);
//! let speedup = tp8.speedup(block, P2pLink::pcie5_x16());
//! assert!(speedup > 6.0); // near-linear once comm hides under compute
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mapper;
mod pp;
mod scaling;
mod tp;

pub use mapper::PlanError;
pub use pp::PipelineParallel;
pub use scaling::{p2p_sweep, tp_sweep, ScalingPoint, WorkloadMix};
pub use tp::{BlockWorkload, TensorParallel};
