//! Device shape parameters and device identity.

use std::fmt;

use crate::layout::WARP_LANES;
use crate::timing::TimingModel;
use crate::{Result, SimError};

/// Identity of one simulated device in a fleet. Device 0 is the
/// conventional identity of a solo device, so single-device code that
/// never names a device still has a well-defined one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// The index as a plain integer (for report rows and event keys).
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// One simulated device as a *value*: identity, hardware shape, and
/// timing model bundled together so callers can hold N of them instead
/// of treating "the device" as an ambient singleton. Fleet code routes
/// jobs between `Device` values; solo code wraps its configuration in
/// [`Device::solo`].
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Fleet-unique identity.
    pub id: DeviceId,
    /// Hardware shape.
    pub config: DeviceConfig,
    /// Cycle/seconds conversion and overhead cost model.
    pub timing: TimingModel,
}

impl Device {
    /// A device value with an explicit fleet identity.
    #[must_use]
    pub fn new(id: DeviceId, config: DeviceConfig, timing: TimingModel) -> Device {
        Device { id, config, timing }
    }

    /// The conventional solo device (id 0) for single-device serving.
    #[must_use]
    pub fn solo(config: DeviceConfig, timing: TimingModel) -> Device {
        Device::new(DeviceId(0), config, timing)
    }

    /// Seconds for `cycles` under this device's clock.
    #[must_use]
    pub fn secs(&self, cycles: f64) -> f64 {
        self.timing.secs(cycles)
    }
}

/// The hardware shape of the simulated GPU.
///
/// Defaults ([`DeviceConfig::gts512`]) model the paper's GeForce 8800 GTS
/// 512: 16 streaming multiprocessors of 8 scalar units each, a 256-bit
/// memory bus, 8192 32-bit registers and 16 KB of shared memory per SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// Scalar units per SM (warp issue width divisor).
    pub scalar_units_per_sm: u32,
    /// Threads per warp (the hardware schedulable entity).
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads in one thread block.
    pub max_threads_per_block: u32,
    /// Maximum thread blocks resident on one SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM, partitioned among resident threads.
    pub registers_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Device memory size in 32-bit words.
    pub device_mem_words: u32,
    /// Size of one coalesced memory transaction in bytes.
    pub transaction_bytes: u32,
    /// The thread-group granularity of the optimized buffer layout: the
    /// gcd of the considered block sizes (the paper clusters threads in
    /// groups of 128).
    pub layout_group: u32,
}

impl DeviceConfig {
    /// The paper's GeForce 8800 GTS 512 (G92).
    #[must_use]
    pub fn gts512() -> DeviceConfig {
        DeviceConfig {
            num_sms: 16,
            scalar_units_per_sm: 8,
            warp_size: 32,
            max_threads_per_sm: 768,
            max_threads_per_block: 512,
            max_blocks_per_sm: 8,
            registers_per_sm: 8192,
            shared_mem_per_sm: 16 * 1024,
            device_mem_words: 128 * 1024 * 1024, // 512 MB
            transaction_bytes: 64,
            layout_group: 128,
        }
    }

    /// A reduced device for fast unit tests: 4 SMs, 1 MB of memory,
    /// otherwise GTS-512 proportions.
    #[must_use]
    pub fn small_test() -> DeviceConfig {
        DeviceConfig {
            num_sms: 4,
            device_mem_words: 2 * 1024 * 1024,
            ..DeviceConfig::gts512()
        }
    }

    /// Issue cycles for one warp-wide instruction
    /// (`warp_size / scalar_units`, 4 on the modeled hardware).
    #[must_use]
    pub fn warp_issue_cycles(&self) -> u32 {
        self.warp_size / self.scalar_units_per_sm
    }

    /// Tokens (32-bit words) per coalesced transaction.
    #[must_use]
    pub fn transaction_words(&self) -> u32 {
        self.transaction_bytes / 4
    }

    /// Checks the shape the half-warp and transaction arithmetic relies
    /// on ([`crate::half_warps`] groups lanes and aligns bases with shifts
    /// and masks): a warp of 2 to [`WARP_LANES`] lanes and a transaction
    /// of [`DeviceConfig::transaction_words`] words, both powers of two.
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] naming the offending dimension.
    pub fn check_shape(&self) -> Result<()> {
        let warp = self.warp_size;
        if warp as usize > WARP_LANES {
            return Err(SimError::LaunchConfig(format!(
                "warp size {warp} exceeds the {WARP_LANES} lanes the simulator models"
            )));
        }
        if warp < 2 || !warp.is_power_of_two() {
            return Err(SimError::LaunchConfig(format!(
                "warp size {warp} is not a power of two of at least 2"
            )));
        }
        if !self.transaction_words().is_power_of_two() {
            return Err(SimError::LaunchConfig(format!(
                "a transaction of {} B is not a power-of-two number of words",
                self.transaction_bytes
            )));
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::gts512()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gts512_matches_paper_numbers() {
        let c = DeviceConfig::gts512();
        assert_eq!(c.num_sms, 16);
        assert_eq!(c.scalar_units_per_sm, 8);
        assert_eq!(c.registers_per_sm, 8192);
        assert_eq!(c.shared_mem_per_sm, 16 * 1024);
        assert_eq!(c.max_threads_per_sm, 768);
        assert_eq!(c.max_threads_per_block, 512);
        assert_eq!(c.max_blocks_per_sm, 8);
        assert_eq!(c.warp_issue_cycles(), 4);
        assert_eq!(c.transaction_words(), 16);
        assert_eq!(c.check_shape(), Ok(()));
    }

    #[test]
    fn shapes_the_shift_arithmetic_cannot_bill_are_rejected() {
        let bad = |c: DeviceConfig| matches!(c.check_shape(), Err(SimError::LaunchConfig(_)));
        for warp_size in [0, 1, 24, 48, 64] {
            assert!(bad(DeviceConfig {
                warp_size,
                ..DeviceConfig::gts512()
            }));
        }
        for transaction_bytes in [0, 2, 48, 96] {
            assert!(bad(DeviceConfig {
                transaction_bytes,
                ..DeviceConfig::gts512()
            }));
        }
        for (warp_size, transaction_bytes) in [(2, 4), (16, 32), (32, 128)] {
            let c = DeviceConfig {
                warp_size,
                transaction_bytes,
                ..DeviceConfig::gts512()
            };
            assert_eq!(c.check_shape(), Ok(()));
        }
    }
}
