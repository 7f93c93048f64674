//! Multi-device deployment description.

use core::fmt;

use ador_noc::{P2pLink, SyncStrategy};
use ador_parallel::TensorParallel;

/// How a model is spread across devices for one evaluation: tensor-parallel
/// width, sync strategy and the P2P link joining the devices.
///
/// # Examples
///
/// ```
/// use ador_perf::Deployment;
///
/// let single = Deployment::single_device();
/// assert_eq!(single.devices, 1);
///
/// let eight = Deployment::tensor_parallel(8); // Fig. 15b's 70B setup
/// assert_eq!(eight.devices, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deployment {
    /// Tensor-parallel width.
    pub devices: usize,
    /// Synchronization strategy between dependent GEMMs.
    pub strategy: SyncStrategy,
    /// Inter-device link.
    pub link: P2pLink,
}

impl Deployment {
    /// One device, no synchronization.
    pub fn single_device() -> Self {
        Self {
            devices: 1,
            strategy: SyncStrategy::AllGather,
            link: P2pLink::pcie5_x16(),
        }
    }

    /// `devices`-way tensor parallelism with the paper's recommended
    /// strategy (Megatron ≤2, all-gather ≥4) over PCIe-5 ×16.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn tensor_parallel(devices: usize) -> Self {
        let tp = TensorParallel::recommended(devices);
        Self {
            devices,
            strategy: tp.strategy,
            link: P2pLink::pcie5_x16(),
        }
    }

    /// Replaces the P2P link.
    pub fn with_link(mut self, link: P2pLink) -> Self {
        self.link = link;
        self
    }

    /// The equivalent [`TensorParallel`] plan.
    pub fn tensor_parallel_plan(&self) -> TensorParallel {
        TensorParallel::new(self.devices, self.strategy)
    }
}

impl Default for Deployment {
    fn default() -> Self {
        Self::single_device()
    }
}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} device(s), {}, {}",
            self.devices, self.strategy, self.link
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_strategy_applied() {
        assert_eq!(
            Deployment::tensor_parallel(2).strategy,
            SyncStrategy::Megatron
        );
        assert_eq!(
            Deployment::tensor_parallel(8).strategy,
            SyncStrategy::AllGather
        );
    }

    #[test]
    fn default_is_single_device() {
        assert_eq!(Deployment::default().devices, 1);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = Deployment::tensor_parallel(0);
    }
}
