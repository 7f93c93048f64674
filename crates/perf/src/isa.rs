//! A compact instruction IR and cycle-approximate executor — the "compiler
//! stack" of the ADOR simulator (paper Fig. 14a: model mapper → instruction
//! generator → instruction binary → simulator).
//!
//! [`crate::lower`] translates a model + phase into a [`Program`] of
//! per-operator [`Bundle`]s; [`CycleExecutor`] replays the program against
//! an architecture and reports where the time goes. The executor shares the
//! unit models with the analytical path, so its total cross-validates
//! [`crate::Evaluator::step`].

use core::fmt;

use ador_hw::Architecture;
use ador_model::Phase;
use ador_units::{Bytes, FlopCount, Seconds};
use serde::{Deserialize, Serialize};

use crate::op_latency::StreamRates;
use crate::schedule::UnitChoice;
use crate::Deployment;

/// One machine-level step of a bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instruction {
    /// Stream weight bytes from DRAM (shared across the batch).
    StreamWeights {
        /// Bytes to stream (per device).
        bytes: Bytes,
    },
    /// Read KV-cache bytes.
    ReadKv {
        /// Bytes to read (per device).
        bytes: Bytes,
        /// `true` if the data sits in on-chip global memory (prefill chunk).
        on_chip: bool,
    },
    /// Append KV-cache bytes.
    WriteKv {
        /// Bytes to append (per device).
        bytes: Bytes,
    },
    /// A matrix multiplication on the chosen unit.
    MatMul {
        /// Scheduled unit.
        unit: UnitChoice,
        /// Rows.
        m: usize,
        /// Contraction.
        k: usize,
        /// Columns (per device).
        n: usize,
        /// Independent products (per device).
        count: usize,
    },
    /// Vector-unit work.
    Vector {
        /// Number of element passes (1 = elementwise, 4 = norm, 5 = softmax).
        passes: u8,
        /// Elements per pass (per device).
        elements: u64,
    },
    /// Core-level all-gather on the ring NoC.
    SyncCores {
        /// Bytes gathered.
        bytes: Bytes,
    },
    /// Device-level synchronization over P2P.
    SyncDevices {
        /// Wire bytes per device.
        bytes: Bytes,
        /// Serialized barrier count.
        points: usize,
    },
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::StreamWeights { bytes } => write!(f, "stream.w {bytes}"),
            Instruction::ReadKv { bytes, on_chip } => {
                write!(
                    f,
                    "read.kv {bytes}{}",
                    if *on_chip { " (on-chip)" } else { "" }
                )
            }
            Instruction::WriteKv { bytes } => write!(f, "write.kv {bytes}"),
            Instruction::MatMul {
                unit,
                m,
                k,
                n,
                count,
            } => {
                write!(f, "matmul.{unit:?} {count}x[{m}x{k}]x[{k}x{n}]")
            }
            Instruction::Vector { passes, elements } => write!(f, "vec x{passes} {elements}"),
            Instruction::SyncCores { bytes } => write!(f, "sync.cores {bytes}"),
            Instruction::SyncDevices { bytes, points } => {
                write!(f, "sync.devices {bytes} ({points} barriers)")
            }
        }
    }
}

/// A labelled group of instructions that execute as one overlapped unit
/// (memory streams hide under compute within a bundle).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Bundle {
    /// Human-readable label (operator name).
    pub label: String,
    /// Breakdown bucket for reporting.
    pub bucket: &'static str,
    /// The instructions.
    pub instrs: Vec<Instruction>,
    /// Times this bundle repeats back-to-back (decoder layers).
    pub repeat: usize,
}

/// A lowered program: the "instruction binary" of Fig. 14a.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Program {
    bundles: Vec<Bundle>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a bundle.
    pub fn push(&mut self, bundle: Bundle) {
        self.bundles.push(bundle);
    }

    /// The bundles in execution order.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Total dynamic instruction count (bundles × repeats).
    pub fn dynamic_instruction_count(&self) -> usize {
        self.bundles.iter().map(|b| b.instrs.len() * b.repeat).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bundles {
            writeln!(f, "{} (x{}):", b.label, b.repeat)?;
            for i in &b.instrs {
                writeln!(f, "  {i}")?;
            }
        }
        Ok(())
    }
}

/// Result of replaying a [`Program`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Total wall-clock time.
    pub total: Seconds,
    /// Time spent memory-bound.
    pub memory_bound: Seconds,
    /// Time spent compute-bound.
    pub compute_bound: Seconds,
    /// Time spent in synchronization bundles.
    pub sync: Seconds,
    /// Dynamic instructions executed.
    pub instructions: usize,
}

/// Replays programs against an architecture with the same unit models the
/// analytical path uses.
#[derive(Debug, Clone)]
pub struct CycleExecutor<'a> {
    arch: &'a Architecture,
    deployment: Deployment,
    phase: Phase,
    rates: StreamRates,
}

impl<'a> CycleExecutor<'a> {
    /// Creates an executor for one step of `phase`. `step_flops` is the
    /// per-device work of the whole step (drives the Fig. 10 law).
    pub fn new(
        arch: &'a Architecture,
        deployment: Deployment,
        phase: Phase,
        step_flops: FlopCount,
    ) -> Self {
        Self {
            arch,
            deployment,
            phase,
            rates: StreamRates::new(arch, step_flops),
        }
    }

    /// Replays `program` and reports timing.
    pub fn run(&self, program: &Program) -> ExecutionReport {
        let mut report = ExecutionReport {
            total: Seconds::ZERO,
            memory_bound: Seconds::ZERO,
            compute_bound: Seconds::ZERO,
            sync: Seconds::ZERO,
            instructions: program.dynamic_instruction_count(),
        };
        for bundle in program.bundles() {
            let (mem, compute, sync) = self.bundle_times(bundle);
            let busy = mem.max(compute) + self.arch.profile.op_overhead;
            let t = (busy + sync) * bundle.repeat as f64;
            report.total += t;
            report.sync += sync * bundle.repeat as f64;
            if mem >= compute {
                report.memory_bound += (busy - compute.min(busy)) * bundle.repeat as f64;
                report.compute_bound += compute * bundle.repeat as f64;
            } else {
                report.compute_bound += (busy - mem.min(busy)) * bundle.repeat as f64;
                report.memory_bound += mem * bundle.repeat as f64;
            }
        }
        report
    }

    fn bundle_times(&self, bundle: &Bundle) -> (Seconds, Seconds, Seconds) {
        let profile = &self.arch.profile;
        let mut mem = Seconds::ZERO;
        let mut compute = Seconds::ZERO;
        let mut sync = Seconds::ZERO;
        for instr in &bundle.instrs {
            match instr {
                Instruction::StreamWeights { bytes } => mem += *bytes / self.rates.weight,
                Instruction::ReadKv { bytes, on_chip } => {
                    if !on_chip {
                        mem += *bytes / self.rates.attention;
                    }
                }
                Instruction::WriteKv { bytes } => mem += *bytes / self.rates.attention,
                Instruction::MatMul {
                    unit,
                    m,
                    k,
                    n,
                    count,
                } => {
                    let flops = FlopCount::from_macs((*m * *k * *n * *count) as u64);
                    let rate = match unit {
                        UnitChoice::Fabric | UnitChoice::VectorUnit => {
                            self.arch.peak_flops().derated(profile.gemm_efficiency)
                                * crate::schedule::simt_saturation(*m)
                        }
                        UnitChoice::MacTree => {
                            crate::schedule::mt_effective_rate(self.arch, *m, *k, *n, *count)
                                .derated(profile.gemm_efficiency)
                        }
                        UnitChoice::SystolicArray => {
                            crate::schedule::sa_effective_rate(self.arch, *m, *k, *n, *count)
                                .derated(profile.gemm_efficiency)
                        }
                        UnitChoice::Both => {
                            crate::schedule::fabric_rates(self.arch, *m, *k, *n, *count)
                                .combined()
                                .derated(profile.gemm_efficiency)
                        }
                    };
                    if !rate.is_zero() {
                        compute += flops / rate;
                    }
                }
                Instruction::Vector { passes, elements } => {
                    let cycles = self.arch.vu.elementwise_cycles(*elements * *passes as u64);
                    let spread = (cycles.get() as f64 / self.arch.cores as f64).ceil();
                    compute += Seconds::new(spread / self.arch.frequency.as_hz());
                }
                Instruction::SyncCores { bytes } => {
                    let ring = ador_noc::RingNoc::new(self.arch.cores, self.arch.noc_bandwidth);
                    sync += ring.all_gather_time(*bytes);
                }
                Instruction::SyncDevices { bytes, points } => {
                    sync += *bytes / self.deployment.link.bandwidth()
                        + self.deployment.link.latency() * *points as f64;
                }
            }
        }
        let _ = self.phase;
        (mem, compute, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_accumulates_bundles() {
        let mut p = Program::new();
        p.push(Bundle {
            label: "qkv".into(),
            bucket: "QKV Proj",
            instrs: vec![Instruction::StreamWeights {
                bytes: Bytes::from_mib(1),
            }],
            repeat: 32,
        });
        assert_eq!(p.bundles().len(), 1);
        assert_eq!(p.dynamic_instruction_count(), 32);
    }

    #[test]
    fn display_renders_assembly() {
        let mut p = Program::new();
        p.push(Bundle {
            label: "attn".into(),
            bucket: "MHA",
            instrs: vec![
                Instruction::ReadKv {
                    bytes: Bytes::from_mib(4),
                    on_chip: false,
                },
                Instruction::MatMul {
                    unit: UnitChoice::MacTree,
                    m: 1,
                    k: 128,
                    n: 1024,
                    count: 32,
                },
            ],
            repeat: 1,
        });
        let s = format!("{p}");
        assert!(s.contains("read.kv"), "{s}");
        assert!(s.contains("matmul.MacTree"), "{s}");
    }
}
