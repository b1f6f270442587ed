//! Seeded fleet-level chaos: rolling device kills, correlated rack
//! brownouts, and partition trains.
//!
//! Where [`crate::serve::ChaosStorm`] generates *launch-grain* fault
//! plans (hang trains, corruption clusters) for one device, a
//! [`FleetStorm`] generates the *device-grain*
//! [`gpusim::DeviceFaultPlan`] a fleet run consumes: which devices die
//! when, which rack browns out together, which links flap. Everything
//! is a pure function of the seed, so the same storm replays
//! bit-identically — the property the fleet determinism proptest and
//! the CI chaos matrix both lean on.

use gpusim::{DeviceFaultPlan, DeviceId};

use super::router::score;

/// A correlated rack brownout: the first `devices` fleet members brown
/// out at the same instant (sharing a rack's power budget), then heal
/// together.
#[derive(Debug, Clone, PartialEq)]
pub struct RackBrownout {
    /// When the rack browns out.
    pub at_secs: f64,
    /// How many devices (taken from the front of the fleet) share it.
    pub devices: u32,
    /// Usable SMs per browned device.
    pub total_sms: u32,
    /// Seconds until capacity restores.
    pub heal_secs: f64,
}

/// A seeded generator of device-grain fault schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStorm {
    /// Seed driving victim selection.
    pub seed: u64,
    /// Rolling device kills (victims drawn without replacement).
    pub kills: u32,
    /// When the first kill lands.
    pub kill_start_secs: f64,
    /// Spacing between kills (the "rolling" cadence).
    pub kill_every_secs: f64,
    /// Never kill below this many live devices — the storm is meant to
    /// be survivable, and the completion-or-rejection invariant needs
    /// somewhere for failovers to land.
    pub min_alive: u32,
    /// Link-partition train length (0 = none).
    pub partitions: u32,
    /// When the first partition lands.
    pub partition_start_secs: f64,
    /// Spacing between partitions.
    pub partition_every_secs: f64,
    /// How long each partition lasts before healing.
    pub partition_heal_secs: f64,
    /// Optional correlated rack brownout.
    pub rack: Option<RackBrownout>,
}

impl Default for FleetStorm {
    fn default() -> Self {
        FleetStorm {
            seed: 0xF1EE_7000,
            kills: 1,
            kill_start_secs: 0.6,
            kill_every_secs: 0.7,
            min_alive: 1,
            partitions: 1,
            partition_start_secs: 0.3,
            partition_every_secs: 0.5,
            partition_heal_secs: 0.4,
            rack: None,
        }
    }
}

impl FleetStorm {
    /// The device-grain fault schedule this storm injects into a fleet
    /// of `devices` members. Pure: same `(storm, devices)` → same plan.
    ///
    /// Kill victims are drawn without replacement from the live set
    /// (stopping at `min_alive`); partition victims are drawn from the
    /// devices that survive every kill, so a partition never races its
    /// own device's death.
    #[must_use]
    pub fn device_fault_plan(&self, devices: u32) -> DeviceFaultPlan {
        let mut plan = DeviceFaultPlan::new();
        let mut alive: Vec<u32> = (0..devices).collect();

        for i in 0..self.kills {
            if alive.len() as u32 <= self.min_alive.max(1) {
                break;
            }
            let pick = (score(self.seed ^ 0x4B11_u64, i) as usize) % alive.len();
            let victim = alive.remove(pick);
            let at = self.kill_start_secs + f64::from(i) * self.kill_every_secs;
            plan = plan.with_loss(DeviceId(victim), at);
        }

        for j in 0..self.partitions {
            if alive.is_empty() {
                break;
            }
            let pick = (score(self.seed ^ 0x9A27_u64, j) as usize) % alive.len();
            let victim = alive[pick];
            let at = self.partition_start_secs + f64::from(j) * self.partition_every_secs;
            plan = plan.with_partition(DeviceId(victim), at, self.partition_heal_secs);
        }

        if let Some(rack) = &self.rack {
            for d in 0..rack.devices.min(devices) {
                plan = plan.with_brownout(
                    DeviceId(d),
                    rack.at_secs,
                    rack.total_sms,
                    Some(rack.heal_secs),
                );
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceFaultKind;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let storm = FleetStorm {
            kills: 3,
            partitions: 2,
            ..FleetStorm::default()
        };
        assert_eq!(storm.device_fault_plan(8), storm.device_fault_plan(8));
        let other = FleetStorm {
            seed: storm.seed + 1,
            ..storm.clone()
        };
        assert_ne!(storm.device_fault_plan(8), other.device_fault_plan(8));
    }

    #[test]
    fn kills_respect_min_alive_and_never_repeat() {
        let storm = FleetStorm {
            kills: 10,
            min_alive: 2,
            partitions: 0,
            ..FleetStorm::default()
        };
        let plan = storm.device_fault_plan(4);
        let killed: Vec<u32> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, DeviceFaultKind::Loss))
            .map(|e| e.device.index())
            .collect();
        assert_eq!(killed.len(), 2, "4 devices, floor of 2 ⇒ at most 2 kills");
        let distinct: std::collections::BTreeSet<u32> = killed.iter().copied().collect();
        assert_eq!(distinct.len(), killed.len(), "victims never repeat");
    }

    #[test]
    fn partitions_avoid_killed_devices_and_rack_is_correlated() {
        let storm = FleetStorm {
            kills: 2,
            partitions: 3,
            rack: Some(RackBrownout {
                at_secs: 1.0,
                devices: 2,
                total_sms: 8,
                heal_secs: 0.5,
            }),
            ..FleetStorm::default()
        };
        let plan = storm.device_fault_plan(6);
        let killed: std::collections::BTreeSet<u32> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, DeviceFaultKind::Loss))
            .map(|e| e.device.index())
            .collect();
        for e in plan.events() {
            if matches!(e.kind, DeviceFaultKind::LinkPartition { .. }) {
                assert!(
                    !killed.contains(&e.device.index()),
                    "partition landed on a killed device"
                );
            }
        }
        let brownout_times: Vec<f64> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, DeviceFaultKind::Brownout { .. }))
            .map(|e| e.at_secs)
            .collect();
        assert_eq!(brownout_times.len(), 2);
        assert_eq!(
            brownout_times[0], brownout_times[1],
            "rack brownout strikes its devices at one instant"
        );
    }
}
