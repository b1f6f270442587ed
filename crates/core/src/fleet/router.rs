//! Deterministic tenant→device routing with a replayable decision log.
//!
//! The router is the fleet's only authority on *where* work goes. Its
//! two jobs:
//!
//! * **Placement** — rendezvous (highest-random-weight) hashing maps
//!   each tenant to a stable *home* device, and, when the home is dead,
//!   partitioned, or saturated, to the best *usable* alternate. HRW
//!   hashing gives the minimal-disruption property the fleet needs:
//!   losing a device remaps only the tenants homed on it, never
//!   shuffles survivors between healthy devices.
//! * **Health bookkeeping** — device loss is permanent, link partitions
//!   heal at a scheduled time, and both are visible to placement the
//!   instant they are applied, in event order.
//!
//! Every routing-relevant action appends a [`RouterDecision`] to an
//! append-only log. The log is the fleet's determinism witness: two
//! same-seed runs must produce byte-identical logs, and the chaos CI
//! job uploads it as an artifact.

use gpusim::DeviceId;
use serde::Serialize;

use crate::hash::fnv1a;

/// Health of one device, from the router's point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Health {
    /// Reachable and serving.
    Healthy,
    /// Alive but unreachable until the link heals.
    Partitioned {
        /// Virtual time the partition heals.
        heal_at_secs: f64,
    },
    /// Lost permanently.
    Dead,
}

/// One appended routing decision (or health transition). Serialized
/// into the chaos artifact so replays can be diffed byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RouterDecision {
    /// Virtual time of the decision.
    pub time_secs: f64,
    /// The tenant involved (empty for pure health transitions).
    pub tenant: String,
    /// Input job index (`u64::MAX` for non-job events).
    pub job: u64,
    /// What happened: `home`, `reroute`, `reject`, `failover`,
    /// `abandon`, `kill`, `brownout`, `brownout-heal`, `partition`,
    /// `partition-heal`.
    pub action: String,
    /// The device acted on (`u32::MAX` when none applies).
    pub device: u32,
    /// Human-readable detail (deterministic content only).
    pub detail: String,
}

/// The deterministic fleet router.
#[derive(Debug, Clone)]
pub struct Router {
    health: Vec<Health>,
    log: Vec<RouterDecision>,
}

impl Router {
    /// A router over `n` healthy devices.
    #[must_use]
    pub fn new(n: u32) -> Router {
        Router {
            health: vec![Health::Healthy; n as usize],
            log: Vec::new(),
        }
    }

    /// Number of devices (any health).
    #[must_use]
    pub fn len(&self) -> u32 {
        self.health.len() as u32
    }

    /// Whether the fleet has no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.health.is_empty()
    }

    /// Whether the device is reachable and serving.
    #[must_use]
    pub fn usable(&self, d: DeviceId) -> bool {
        matches!(self.health[d.0 as usize], Health::Healthy)
    }

    /// Whether the device still exists (healthy or partitioned).
    #[must_use]
    pub fn alive(&self, d: DeviceId) -> bool {
        !matches!(self.health[d.0 as usize], Health::Dead)
    }

    /// Devices currently usable, ascending.
    #[must_use]
    pub fn usable_devices(&self) -> Vec<u32> {
        (0..self.len())
            .filter(|&d| self.usable(DeviceId(d)))
            .collect()
    }

    /// The tenant's *static* home: rendezvous over every device slot,
    /// ignoring health, so the home is a pure function of
    /// `(tenant, fleet size)` and event keys derived from it replay
    /// identically no matter when faults strike.
    #[must_use]
    pub fn home(&self, tenant: &str) -> DeviceId {
        let th = fnv1a(tenant.as_bytes());
        DeviceId(
            (0..self.len())
                .max_by_key(|&d| (score(th, d), std::cmp::Reverse(d)))
                .expect("router has at least one device"),
        )
    }

    /// The best *usable* device for the tenant, excluding `exclude`
    /// when given: the highest-scoring reachable device. `None` when
    /// nothing is usable.
    #[must_use]
    pub fn route(&self, tenant: &str, exclude: Option<DeviceId>) -> Option<DeviceId> {
        let th = fnv1a(tenant.as_bytes());
        (0..self.len())
            .filter(|&d| self.usable(DeviceId(d)))
            .filter(|&d| Some(DeviceId(d)) != exclude)
            .max_by_key(|&d| (score(th, d), std::cmp::Reverse(d)))
            .map(DeviceId)
    }

    /// Earliest heal instant among partitioned devices after `now`
    /// (the retry hint when nothing is usable); 0 when none is healing.
    #[must_use]
    pub fn heal_hint_secs(&self, now: f64) -> f64 {
        let earliest = self
            .health
            .iter()
            .filter_map(|h| match h {
                Health::Partitioned { heal_at_secs } => Some((heal_at_secs - now).max(0.0)),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            earliest
        } else {
            0.0
        }
    }

    /// Marks the device permanently dead.
    pub fn mark_dead(&mut self, d: DeviceId) {
        self.health[d.0 as usize] = Health::Dead;
    }

    /// Marks the device's link partitioned until `heal_at_secs`. A dead
    /// device stays dead.
    pub fn mark_partitioned(&mut self, d: DeviceId, heal_at_secs: f64) {
        if self.alive(d) {
            self.health[d.0 as usize] = Health::Partitioned { heal_at_secs };
        }
    }

    /// Heals the device's link (no-op when dead).
    pub fn heal(&mut self, d: DeviceId) {
        if self.alive(d) {
            self.health[d.0 as usize] = Health::Healthy;
        }
    }

    /// Appends one decision to the log.
    pub fn log_decision(
        &mut self,
        time_secs: f64,
        tenant: &str,
        job: Option<usize>,
        action: &str,
        device: Option<DeviceId>,
        detail: String,
    ) {
        self.log.push(RouterDecision {
            time_secs,
            tenant: tenant.to_string(),
            job: job.map_or(u64::MAX, |j| j as u64),
            action: action.to_string(),
            device: device.map_or(u32::MAX, |d| d.0),
            detail,
        });
    }

    /// The append-only decision log.
    #[must_use]
    pub fn log(&self) -> &[RouterDecision] {
        &self.log
    }
}

/// Rendezvous score of `(key, device)` — one [`crate::hash::splitmix64`]
/// step over the pair, so each device draws an independent uniform
/// weight per key. The key itself is always an FNV-1a digest (tenant
/// name or cache key), so routing and content addressing share the one
/// hash module and its known-answer vectors.
#[must_use]
pub(crate) fn score(key: u64, device: u32) -> u64 {
    crate::hash::splitmix64(
        key.wrapping_mul(crate::hash::SPLITMIX_GOLDEN)
            .wrapping_add(u64::from(device)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homes_are_stable_and_spread() {
        let r = Router::new(4);
        let tenants = ["bitonic", "fft", "fm", "matmul", "filterbank", "des"];
        let homes: Vec<u32> = tenants.iter().map(|t| r.home(t).0).collect();
        // Stable across calls and across router instances.
        assert_eq!(
            homes,
            tenants
                .iter()
                .map(|t| Router::new(4).home(t).0)
                .collect::<Vec<_>>()
        );
        // Rendezvous spreads 6 tenants over more than one device.
        let distinct: std::collections::BTreeSet<u32> = homes.iter().copied().collect();
        assert!(distinct.len() > 1, "homes all collapsed onto one device");
    }

    #[test]
    fn losing_a_device_remaps_only_its_tenants() {
        let mut r = Router::new(4);
        let tenants: Vec<String> = (0..32).map(|i| format!("tenant-{i}")).collect();
        let before: Vec<u32> = tenants
            .iter()
            .map(|t| r.route(t, None).unwrap().0)
            .collect();
        r.mark_dead(DeviceId(2));
        for (t, &b) in tenants.iter().zip(&before) {
            let after = r.route(t, None).unwrap().0;
            if b != 2 {
                assert_eq!(after, b, "{t}: surviving placement must not move");
            } else {
                assert_ne!(after, 2, "{t}: dead device must not be routed to");
            }
        }
    }

    #[test]
    fn health_transitions_gate_usability() {
        let mut r = Router::new(3);
        assert!(r.usable(DeviceId(1)));
        r.mark_partitioned(DeviceId(1), 5.0);
        assert!(!r.usable(DeviceId(1)));
        assert!(r.alive(DeviceId(1)));
        assert!(r.heal_hint_secs(2.0) > 0.0);
        r.heal(DeviceId(1));
        assert!(r.usable(DeviceId(1)));
        r.mark_dead(DeviceId(1));
        r.heal(DeviceId(1));
        assert!(!r.usable(DeviceId(1)), "dead devices never heal");
        assert_eq!(r.usable_devices(), vec![0, 2]);
    }

    #[test]
    fn route_excludes_and_falls_back() {
        let mut r = Router::new(2);
        let t = "tenant";
        let primary = r.route(t, None).unwrap();
        let backup = r.route(t, Some(primary)).unwrap();
        assert_ne!(primary, backup);
        r.mark_dead(primary);
        assert_eq!(r.route(t, None), Some(backup));
        r.mark_dead(backup);
        assert_eq!(r.route(t, None), None);
    }
}
