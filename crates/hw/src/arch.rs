//! The full device template: cores, compute units, memories, interconnect.

use core::fmt;

use ador_units::{Area, Bandwidth, Bytes, FlopRate, Frequency, Power};

use crate::memory::DramSpec;
use crate::{MacTree, PerfProfile, ProcessNode, SystolicArray, VectorUnit};

/// A complete accelerator description in the ADOR template (paper Fig. 6a):
/// `cores` identical cores on a ring NoC, each with an optional systolic
/// array (×`sa_per_core`), an optional MAC-tree bank and a vector unit,
/// per-core local SRAM, shared global SRAM, DRAM modules and P2P links.
///
/// Baselines that we do not decompose into SA/MT fabrics (the A100's SMT
/// cores, the TSP's streaming fabric) carry a `peak_flops_override` and a
/// `die_area_override` from their datasheets instead.
///
/// Construct via [`Architecture::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    /// Design name.
    pub name: String,
    /// Core count.
    pub cores: usize,
    /// Per-core systolic array, if present.
    pub sa: Option<SystolicArray>,
    /// Systolic-array instances per core (the Table III "Lane Count" row
    /// for the LLMCompass designs).
    pub sa_per_core: usize,
    /// Per-core MAC-tree bank, if present.
    pub mt: Option<MacTree>,
    /// Per-core vector unit.
    pub vu: VectorUnit,
    /// Local (per-core) activation SRAM.
    pub local_mem_per_core: Bytes,
    /// Shared global SRAM.
    pub global_mem: Bytes,
    /// DRAM subsystem.
    pub dram: DramSpec,
    /// Ring-NoC bisection bandwidth.
    pub noc_bandwidth: Bandwidth,
    /// Per-device P2P (inter-device) bandwidth.
    pub p2p_bandwidth: Bandwidth,
    /// Core clock.
    pub frequency: Frequency,
    /// Process node (for the area model).
    pub process: ProcessNode,
    /// Execution-efficiency profile.
    pub profile: PerfProfile,
    /// Datasheet peak FLOPS for fabrics we do not decompose.
    pub peak_flops_override: Option<FlopRate>,
    /// Datasheet die area for designs we do not run the cost model on.
    pub die_area_override: Option<Area>,
    /// Datasheet TDP, if known.
    pub tdp: Option<Power>,
}

impl Architecture {
    /// Starts building an architecture named `name`.
    pub fn builder(name: impl Into<String>) -> ArchitectureBuilder {
        ArchitectureBuilder::new(name)
    }

    /// Total systolic-array MAC cells on the device.
    pub fn sa_macs(&self) -> usize {
        self.sa
            .map_or(0, |sa| sa.macs() * self.sa_per_core * self.cores)
    }

    /// Total MAC-tree cells on the device.
    pub fn mt_macs(&self) -> usize {
        self.mt.map_or(0, |mt| mt.macs() * self.cores)
    }

    /// Peak FLOPS of the systolic arrays alone.
    pub fn sa_peak_flops(&self) -> FlopRate {
        FlopRate::new(self.sa_macs() as f64 * 2.0 * self.frequency.as_hz())
    }

    /// Peak FLOPS of the MAC trees alone.
    pub fn mt_peak_flops(&self) -> FlopRate {
        FlopRate::new(self.mt_macs() as f64 * 2.0 * self.frequency.as_hz())
    }

    /// Device peak FLOPS: the datasheet override if present, otherwise
    /// SA + MT.
    pub fn peak_flops(&self) -> FlopRate {
        self.peak_flops_override
            .unwrap_or_else(|| self.sa_peak_flops() + self.mt_peak_flops())
    }

    /// Total on-chip SRAM (local across cores + global).
    pub fn total_sram(&self) -> Bytes {
        self.local_mem_per_core * self.cores as u64 + self.global_mem
    }

    /// Whether `bytes` of weights + KV state fit in device memory.
    pub fn fits(&self, bytes: Bytes) -> bool {
        self.dram.fits(bytes)
    }

    /// `true` if the device has both a systolic array and a MAC tree — the
    /// heterogeneous-dataflow case the paper's scheduler (Fig. 8) exploits.
    pub fn is_hda(&self) -> bool {
        self.sa.is_some() && self.mt.is_some()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: no compute fabric
    /// at all, zero cores, more MAC cells than a `usize` counts, a
    /// zero-bandwidth DRAM, a zero GEMM efficiency, or a profile stream
    /// law that is malformed (a non-finite field, a floor above its
    /// ceiling) or can derate the DRAM so far that its full capacity no
    /// longer streams in finite time (zero bandwidth included).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err(format!("architecture '{}' has zero cores", self.name));
        }
        if self.sa.is_none() && self.mt.is_none() && self.peak_flops_override.is_none() {
            return Err(format!(
                "architecture '{}' has no compute fabric (no SA, no MT, no peak override)",
                self.name
            ));
        }
        if self.sa.is_some() && self.sa_per_core == 0 {
            return Err(format!(
                "architecture '{}' has an SA but sa_per_core = 0",
                self.name
            ));
        }
        // `sa_macs` and `mt_macs` multiply unchecked.
        let sa_macs = self.sa.map_or(Some(0), |sa| {
            sa.rows()
                .checked_mul(sa.cols())?
                .checked_mul(self.sa_per_core)?
                .checked_mul(self.cores)
        });
        let mt_macs = self.mt.map_or(Some(0), |mt| {
            mt.size().checked_mul(mt.lanes())?.checked_mul(self.cores)
        });
        if sa_macs.is_none() || mt_macs.is_none() {
            return Err(format!(
                "architecture '{}' has more MAC cells than a usize counts",
                self.name
            ));
        }
        if self.dram.bandwidth.is_zero() {
            return Err(format!(
                "architecture '{}' has zero DRAM bandwidth",
                self.name
            ));
        }
        if self.profile.gemm_efficiency.get() == 0.0 {
            return Err(format!(
                "architecture '{}' has zero GEMM efficiency",
                self.name
            ));
        }
        let laws = [
            ("weight", self.profile.weight_stream),
            ("attention", self.profile.attention_stream),
        ];
        // Every byte an operator streams comes from the DRAM, so a full
        // DRAM streamed at a law's least bandwidth bounds every stream
        // time the evaluator divides out.
        let capacity = self.dram.capacity.get() as f64;
        for (class, law) in laws {
            match law.least_utilization() {
                None => {
                    return Err(format!(
                        "architecture '{}' has a malformed {class} stream law",
                        self.name
                    ))
                }
                Some(util)
                    if !(capacity / self.dram.bandwidth.derated(util).as_bytes_per_sec())
                        .is_finite() =>
                {
                    return Err(format!(
                        "architecture '{}' has a {class} stream law too slow to stream its \
                         DRAM in finite time",
                        self.name
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} cores", self.name, self.cores)?;
        if let Some(sa) = self.sa {
            write!(f, ", {sa}")?;
            if self.sa_per_core > 1 {
                write!(f, " x{}", self.sa_per_core)?;
            }
        }
        if let Some(mt) = self.mt {
            write!(f, ", {mt}")?;
        }
        write!(
            f,
            ", {} @ {} ({})",
            self.dram,
            self.frequency,
            self.peak_flops()
        )
    }
}

/// Builder for [`Architecture`] (C-BUILDER). Defaults: one SA per core, a
/// 64-lane vector unit, 1.5 GHz, 7 nm, the ADOR-template perf profile,
/// 256 GB/s NoC, 64 GB/s P2P, and 2 TB/s / 80 GiB HBM2e.
#[derive(Debug, Clone)]
pub struct ArchitectureBuilder {
    inner: Architecture,
}

impl ArchitectureBuilder {
    /// Creates a builder with the defaults above.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            inner: Architecture {
                name: name.into(),
                cores: 1,
                sa: None,
                sa_per_core: 1,
                mt: None,
                vu: VectorUnit::default(),
                local_mem_per_core: Bytes::from_kib(512),
                global_mem: Bytes::from_mib(16),
                dram: DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_tbps(2.0)),
                noc_bandwidth: Bandwidth::from_gbps(256.0),
                p2p_bandwidth: Bandwidth::from_gbps(64.0),
                frequency: Frequency::from_ghz(1.5),
                process: ProcessNode::N7,
                profile: PerfProfile::ador_template(),
                peak_flops_override: None,
                die_area_override: None,
                tdp: None,
            },
        }
    }

    /// Sets the core count.
    pub fn cores(mut self, cores: usize) -> Self {
        self.inner.cores = cores;
        self
    }

    /// Adds a per-core systolic array.
    pub fn systolic_array(mut self, sa: SystolicArray) -> Self {
        self.inner.sa = Some(sa);
        self
    }

    /// Sets the number of SA instances per core.
    pub fn sa_per_core(mut self, n: usize) -> Self {
        self.inner.sa_per_core = n;
        self
    }

    /// Adds a per-core MAC-tree bank.
    pub fn mac_tree(mut self, mt: MacTree) -> Self {
        self.inner.mt = Some(mt);
        self
    }

    /// Sets the per-core local SRAM.
    pub fn local_memory(mut self, bytes: Bytes) -> Self {
        self.inner.local_mem_per_core = bytes;
        self
    }

    /// Sets the shared global SRAM.
    pub fn global_memory(mut self, bytes: Bytes) -> Self {
        self.inner.global_mem = bytes;
        self
    }

    /// Sets the DRAM subsystem.
    pub fn dram(mut self, dram: DramSpec) -> Self {
        self.inner.dram = dram;
        self
    }

    /// Sets the ring-NoC bandwidth.
    pub fn noc_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.inner.noc_bandwidth = bw;
        self
    }

    /// Sets the P2P bandwidth.
    pub fn p2p_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.inner.p2p_bandwidth = bw;
        self
    }

    /// Sets the core clock.
    pub fn frequency(mut self, freq: Frequency) -> Self {
        self.inner.frequency = freq;
        self
    }

    /// Sets the process node.
    pub fn process(mut self, node: ProcessNode) -> Self {
        self.inner.process = node;
        self
    }

    /// Sets the execution profile.
    pub fn profile(mut self, profile: PerfProfile) -> Self {
        self.inner.profile = profile;
        self
    }

    /// Sets a datasheet peak-FLOPS override.
    pub fn peak_flops_override(mut self, rate: FlopRate) -> Self {
        self.inner.peak_flops_override = Some(rate);
        self
    }

    /// Sets a datasheet die-area override.
    pub fn die_area_override(mut self, area: Area) -> Self {
        self.inner.die_area_override = Some(area);
        self
    }

    /// Sets the TDP.
    pub fn tdp(mut self, tdp: Power) -> Self {
        self.inner.tdp = Some(tdp);
        self
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`Architecture::validate`].
    pub fn build(self) -> Architecture {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid architecture: {e}"))
    }

    /// Finishes construction, or returns why the configuration fails
    /// [`Architecture::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`Architecture::validate`]'s description of the first
    /// inconsistency.
    pub fn try_build(self) -> Result<Architecture, String> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamLaw;

    /// The Table III "ADOR Design" column.
    pub(crate) fn ador_design() -> Architecture {
        Architecture::builder("ADOR Design")
            .cores(32)
            .systolic_array(SystolicArray::square(64))
            .mac_tree(MacTree::new(16, 16))
            .local_memory(Bytes::from_kib(2048))
            .global_memory(Bytes::from_mib(16))
            .dram(DramSpec::hbm2e(
                Bytes::from_gib(80),
                Bandwidth::from_tbps(2.0),
            ))
            .p2p_bandwidth(Bandwidth::from_gbps(64.0))
            .frequency(Frequency::from_mhz(1500.0))
            .build()
    }

    #[test]
    fn table3_ador_peak_flops() {
        let a = ador_design();
        // Table III reports 417 TFLOPS.
        assert!(
            (a.peak_flops().as_tflops() - 417.0).abs() < 2.0,
            "{}",
            a.peak_flops()
        );
        assert!(a.is_hda());
    }

    #[test]
    fn table3_ador_sram_totals() {
        let a = ador_design();
        // 32 cores × 2 MiB local + 16 MiB global = 80 MiB.
        assert_eq!(a.total_sram(), Bytes::from_mib(80));
    }

    #[test]
    fn override_takes_precedence() {
        let a = Architecture::builder("A100-like")
            .cores(108)
            .peak_flops_override(FlopRate::from_tflops(312.0))
            .build();
        assert_eq!(a.peak_flops().as_tflops(), 312.0);
        assert!(!a.is_hda());
    }

    #[test]
    #[should_panic(expected = "no compute fabric")]
    fn fabric_required() {
        let _ = Architecture::builder("empty").cores(4).build();
    }

    #[test]
    fn display_mentions_units() {
        let s = format!("{}", ador_design());
        assert!(s.contains("SA 64x64"), "{s}");
        assert!(s.contains("MT 16x16"), "{s}");
    }

    #[test]
    fn validate_catches_zero_cores() {
        let mut a = ador_design();
        a.cores = 0;
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_catches_uncountable_mac_cells() {
        let mut a = ador_design();
        a.mt = Some(MacTree::new(1 << 60, 16));
        assert!(a.validate().is_err());
        let mut a = ador_design();
        a.sa = Some(SystolicArray::new(1 << 32, 1 << 32));
        assert!(a.validate().is_err());
        // `try_build` reports what `build` would panic on.
        let zero_bw = DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_gbps(0.0));
        let err = Architecture::builder("x")
            .systolic_array(SystolicArray::square(64))
            .dram(zero_bw)
            .try_build();
        assert_eq!(err.unwrap_err(), "architecture 'x' has zero DRAM bandwidth");
    }

    #[test]
    fn validate_catches_stream_laws_too_slow_for_a_full_dram() {
        // Derates that stay positive but stream an A100-size DRAM in
        // infinite time: 80 GiB at 2 TB/s x 1e-310 takes ~4.3e308 s.
        for util in [1e-310, 1e-320] {
            let mut a = ador_design();
            a.dram = DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_tbps(2.0));
            a.profile.weight_stream = StreamLaw::fixed(util);
            let err = a.validate().unwrap_err();
            assert!(err.contains("weight stream law too slow"), "{err}");
            let mut a = ador_design();
            a.dram = DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_tbps(2.0));
            a.profile.attention_stream = StreamLaw::fixed(util);
            assert!(a.validate().is_err());
        }
        // A slow but finite floor passes: 80 GiB at 2e-296 B/s.
        let mut a = ador_design();
        a.dram = DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_tbps(2.0));
        a.profile.weight_stream = StreamLaw::fixed(1e-308);
        assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_stream_laws_that_stall_or_panic() {
        // `ador-perf`'s evaluator tests cover each malformed law on the
        // attention class; here, the weight class, and a positive
        // utilization that underflows the DRAM bandwidth to zero.
        let mut a = ador_design();
        a.profile.weight_stream = StreamLaw::fixed(0.0);
        assert!(a.validate().is_err());
        let mut a = ador_design();
        a.dram.bandwidth = Bandwidth::from_bytes_per_sec(1e-300);
        a.profile.weight_stream = StreamLaw::fixed(1e-300);
        assert!(a.validate().is_err());
        let mut a = ador_design();
        a.profile = PerfProfile::gpu();
        assert_eq!(a.validate(), Ok(()));
    }
}
