//! Spatial SM partitioning across tenants.
//!
//! The physical device's SMs are divided into disjoint contiguous slices,
//! one per tenant; each tenant's programs are compiled by the decomposed
//! scheduler at its slice width and pinned onto the slice with
//! [`crate::exec::SmPlacement`]. Because simulated launch timing is
//! placement-invariant, a tenant on a `k`-SM slice behaves byte- and
//! cycle-identically to a solo run on a `k`-SM device — partitioning
//! changes *capacity*, never *semantics*.
//!
//! Slice widths track demand: an EWMA estimator per tenant turns
//! observed inter-arrival gaps into an arrival-rate estimate, and a
//! largest-remainder apportionment converts rate shares into SM quotas
//! (every admitted tenant keeps at least one SM). Rebalancing is
//! hysteretic — the partition is recut only when some tenant's ideal
//! quota has drifted more than one full SM from its current allocation —
//! so a noisy arrival process does not thrash the compilation cache with
//! new slice widths.
//!
//! The partitioner decides and keeps no history: the serving loop
//! records each recut once, as the `Rebalance` or brownout entry of its
//! timeline ([`crate::serve::TraceEvent`]), and the serve report counts
//! recuts there.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::{Error, Result};

/// A contiguous slice of the physical device's SMs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Slice {
    /// First SM of the slice.
    pub base_sm: u32,
    /// SMs in the slice (the width the tenant's programs compile at).
    pub num_sms: u32,
}

/// Every base SM the partitioner could hand a `width`-SM slice of a
/// `total_sms`-SM device: recuts pack slices contiguously from SM 0, so
/// the universe is exactly `0..=total_sms - width` (empty when the slice
/// cannot fit). The isolation prover ([`crate::verify::isolate`])
/// quantifies over this whole set at once — placement moves *compute*,
/// never *addresses* — so one certificate covers every recut and
/// failover placement the partitioner may ever choose.
#[must_use]
pub fn placement_universe(total_sms: u32, width: u32) -> Vec<u32> {
    if width == 0 || width > total_sms {
        return Vec::new();
    }
    (0..=total_sms - width).collect()
}

/// Every slice width the partitioner could ever cut for one tenant on a
/// `total_sms`-SM device shared by up to `max_tenants` tenants: each
/// *other* tenant is floored at one SM by the apportionment, so widths
/// run `1..=total_sms - (max_tenants - 1)`. Cache warming compiles the
/// suite over exactly this set — any width the rebalancer later picks is
/// already in the disk tier.
#[must_use]
pub fn plausible_widths(total_sms: u32, max_tenants: usize) -> Vec<u32> {
    let others = (max_tenants.max(1) - 1) as u32;
    if total_sms <= others {
        return Vec::new();
    }
    (1..=total_sms - others).collect()
}

/// EWMA estimator of a tenant's arrival rate from inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    alpha: f64,
    last_arrival: Option<f64>,
    ewma_gap: Option<f64>,
    arrivals: u64,
}

impl RateEstimator {
    /// A fresh estimator; `alpha` is the EWMA smoothing weight of the
    /// newest gap (clamped to `(0, 1]`).
    #[must_use]
    pub fn new(alpha: f64) -> RateEstimator {
        RateEstimator {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            last_arrival: None,
            ewma_gap: None,
            arrivals: 0,
        }
    }

    /// Records an arrival at `now` seconds (monotone per tenant).
    pub fn observe(&mut self, now: f64) {
        self.arrivals += 1;
        if let Some(last) = self.last_arrival {
            let gap = (now - last).max(1e-9);
            self.ewma_gap = Some(match self.ewma_gap {
                Some(g) => (1.0 - self.alpha) * g + self.alpha * gap,
                None => gap,
            });
        }
        self.last_arrival = Some(now);
    }

    /// Estimated arrivals per second. A tenant with fewer than two
    /// arrivals has no gap yet and reports a nominal rate of 1.0 so it
    /// participates in apportionment without dominating it.
    #[must_use]
    pub fn rate(&self) -> f64 {
        match self.ewma_gap {
            Some(g) => 1.0 / g,
            None => 1.0,
        }
    }

    /// Arrivals observed so far.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }
}

/// The current partition of the device plus the demand estimators that
/// drive it.
#[derive(Debug, Clone)]
pub struct Partitioner {
    total_sms: u32,
    alpha: f64,
    rates: BTreeMap<String, RateEstimator>,
    slices: BTreeMap<String, Slice>,
}

impl Partitioner {
    /// A partitioner over a `total_sms`-SM device.
    #[must_use]
    pub fn new(total_sms: u32, alpha: f64) -> Partitioner {
        Partitioner {
            total_sms,
            alpha,
            rates: BTreeMap::new(),
            slices: BTreeMap::new(),
        }
    }

    /// Records an arrival for `tenant` at virtual time `now`: feeds the
    /// tenant's EWMA estimator (admitting the tenant if new) and reports
    /// whether the partition needs a recut — either the tenant has no
    /// slice yet or some tenant's ideal quota has drifted more than one
    /// full SM from its allocation (the hysteresis band);
    /// [`Partitioner::recut`] performs it. The serving loop calls both
    /// at each arrival's dequeue, so demand is observed in true arrival
    /// order at true arrival times, and records the recut on its
    /// timeline.
    ///
    /// # Errors
    ///
    /// [`Error::Api`] when admitting the tenant would exceed one tenant
    /// per SM.
    pub fn record_arrival(&mut self, tenant: &str, now: f64) -> Result<bool> {
        let is_new = !self.rates.contains_key(tenant);
        if is_new && self.rates.len() as u32 >= self.total_sms {
            return Err(Error::Api(format!(
                "cannot admit tenant '{tenant}': {} tenants already hold all {} SMs",
                self.rates.len(),
                self.total_sms
            )));
        }
        self.rates
            .entry(tenant.to_string())
            .or_insert_with(|| RateEstimator::new(self.alpha))
            .observe(now);
        Ok(is_new || self.drifted())
    }

    /// The device capacity currently being partitioned.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.total_sms
    }

    /// Resizes the device capacity to `total_sms` — the brownout hook:
    /// a mid-trace loss (or recovery) of SMs changes what there is to
    /// apportion, so the partition is recut immediately once any tenant
    /// is admitted. Admitted tenants keep their floor of one SM each,
    /// which bounds how far a brownout can shrink the device.
    ///
    /// # Errors
    ///
    /// [`Error::Api`] when `total_sms` is zero or smaller than the
    /// number of admitted tenants.
    pub fn set_capacity(&mut self, total_sms: u32) -> Result<()> {
        if total_sms == 0 || (self.rates.len() as u32) > total_sms {
            return Err(Error::Api(format!(
                "cannot resize device to {total_sms} SM(s): {} tenant(s) admitted and every \
                 tenant keeps at least one SM",
                self.rates.len()
            )));
        }
        self.total_sms = total_sms;
        if !self.rates.is_empty() {
            self.recut();
        }
        Ok(())
    }

    /// The tenant's current slice.
    #[must_use]
    pub fn slice(&self, tenant: &str) -> Option<Slice> {
        self.slices.get(tenant).copied()
    }

    /// Every tenant's slice, in deterministic (name) order.
    #[must_use]
    pub fn slices(&self) -> Vec<(String, Slice)> {
        self.slices.iter().map(|(t, s)| (t.clone(), *s)).collect()
    }

    /// Ideal fractional SM quotas by rate share, with every tenant
    /// floored at 1.0 SM (floors are carved out first; the remaining SMs
    /// are split by rate share).
    fn ideal_quotas(&self) -> BTreeMap<String, f64> {
        let n = self.rates.len() as f64;
        let spare = f64::from(self.total_sms) - n;
        let total_rate: f64 = self.rates.values().map(RateEstimator::rate).sum();
        self.rates
            .iter()
            .map(|(t, r)| {
                let share = if total_rate > 0.0 {
                    r.rate() / total_rate
                } else {
                    1.0 / n
                };
                (t.clone(), 1.0 + spare * share)
            })
            .collect()
    }

    /// Whether any tenant's ideal quota is more than one full SM away
    /// from its current slice width.
    fn drifted(&self) -> bool {
        self.ideal_quotas().iter().any(|(t, &q)| {
            let have = self.slices.get(t).map_or(0.0, |s| f64::from(s.num_sms));
            (q - have).abs() > 1.0
        })
    }

    /// Recuts the partition from the current demand estimates:
    /// largest-remainder apportionment of the device, then contiguous
    /// base-SM assignment in tenant-name order.
    pub fn recut(&mut self) {
        let quotas = self.ideal_quotas();
        if quotas.is_empty() {
            self.slices.clear();
            return;
        }
        let mut widths: BTreeMap<&String, u32> = quotas
            .iter()
            .map(|(t, &q)| (t, (q.floor() as u32).max(1)))
            .collect();
        let assigned: u32 = widths.values().sum();
        let mut leftover = self.total_sms.saturating_sub(assigned);
        // Hand leftover SMs to the largest fractional remainders;
        // tenant-name order breaks ties deterministically.
        let mut by_remainder: Vec<(&String, f64)> =
            quotas.iter().map(|(t, &q)| (t, q - q.floor())).collect();
        by_remainder.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (t, _) in by_remainder {
            if leftover == 0 {
                break;
            }
            *widths.get_mut(t).expect("tenant in widths") += 1;
            leftover -= 1;
        }
        let mut base = 0;
        let mut slices = BTreeMap::new();
        for (t, w) in widths {
            slices.insert(
                t.clone(),
                Slice {
                    base_sm: base,
                    num_sms: w,
                },
            );
            base += w;
        }
        self.slices = slices;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One arrival as the serving loop handles it: demand observed, the
    /// partition recut when it drifted. Returns whether it recut.
    fn observe(p: &mut Partitioner, tenant: &str, now: f64) -> Result<bool> {
        let recut = p.record_arrival(tenant, now)?;
        if recut {
            p.recut();
        }
        Ok(recut)
    }

    /// Every tenant's width, in name order.
    fn widths(p: &Partitioner) -> Vec<(String, u32)> {
        (p.slices().into_iter())
            .map(|(t, s)| (t, s.num_sms))
            .collect()
    }

    /// Serves `arrivals` and returns each recut's time and widths, as
    /// the serving loop's timeline records them.
    fn cuts(p: &mut Partitioner, arrivals: &[(&str, f64)]) -> Vec<(f64, Vec<(String, u32)>)> {
        let mut cuts = Vec::new();
        for &(tenant, at) in arrivals {
            if observe(p, tenant, at).unwrap() {
                cuts.push((at, widths(p)));
            }
        }
        cuts
    }

    #[test]
    fn slices_are_disjoint_and_cover_at_most_the_device() {
        let mut p = Partitioner::new(16, 0.3);
        for (i, t) in ["a", "b", "c"].iter().enumerate() {
            observe(&mut p, t, i as f64).unwrap();
        }
        let slices = p.slices();
        assert_eq!(slices.len(), 3);
        let mut covered = 0;
        let mut last_end = 0;
        for (_, s) in &slices {
            assert!(s.base_sm >= last_end, "slices overlap: {slices:?}");
            assert!(s.num_sms >= 1);
            last_end = s.base_sm + s.num_sms;
            covered += s.num_sms;
        }
        assert!(covered <= 16);
        assert_eq!(covered, 16, "largest-remainder should use every SM");
    }

    #[test]
    fn brownout_recuts_into_the_shrunk_device_and_rejects_impossible_sizes() {
        let mut p = Partitioner::new(16, 0.3);
        for (i, t) in ["a", "b", "c"].iter().enumerate() {
            observe(&mut p, t, i as f64).unwrap();
        }
        p.set_capacity(6).unwrap();
        assert_eq!(p.capacity(), 6);
        let covered: u32 = p.slices().iter().map(|(_, s)| s.num_sms).sum();
        assert_eq!(covered, 6, "recut apportions exactly the shrunk device");
        for (_, s) in p.slices() {
            assert!(
                s.base_sm + s.num_sms <= 6,
                "slice escapes the brownout range"
            );
        }
        // Three tenants cannot fit two SMs, and zero is never valid.
        assert!(p.set_capacity(2).is_err());
        assert!(p.set_capacity(0).is_err());
        assert_eq!(p.capacity(), 6, "failed resizes must not change capacity");
    }

    #[test]
    fn hot_tenant_gains_sms() {
        let mut p = Partitioner::new(16, 0.5);
        // "hot" arrives every 0.1s, "cold" every 10s.
        let mut now = 0.0;
        for _ in 0..50 {
            observe(&mut p, "hot", now).unwrap();
            now += 0.1;
        }
        let mut cold_now = 0.0;
        for _ in 0..4 {
            observe(&mut p, "cold", cold_now).unwrap();
            cold_now += 10.0;
        }
        // Interleave more hot arrivals so the estimator sees both.
        for _ in 0..50 {
            observe(&mut p, "hot", now).unwrap();
            now += 0.1;
        }
        let hot = p.slice("hot").unwrap();
        let cold = p.slice("cold").unwrap();
        assert!(
            hot.num_sms > cold.num_sms,
            "hot {hot:?} should out-provision cold {cold:?}"
        );
        assert!(cold.num_sms >= 1);
    }

    #[test]
    fn recuts_lock_the_sequence_and_true_arrival_order_matters() {
        // Demand observed in true arrival order: "hot" floods, "cold"
        // trickles. The recuts pin the exact sequence of cuts.
        let trace: Vec<(&str, f64)> = {
            let mut t: Vec<(&str, f64)> = (0..40).map(|i| ("hot", 0.1 * f64::from(i))).collect();
            t.push(("cold", 0.05));
            t.push(("cold", 3.95));
            t.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(b.0)));
            t
        };
        let in_order = cuts(&mut Partitioner::new(16, 0.5), &trace);
        // The same arrivals replayed at *simulation* time, clamped to a
        // monotone clock: "cold"'s early arrival is recorded late, at
        // whatever the clock had advanced to (here: after the whole hot
        // burst). The estimators see a different demand history, so the
        // recut sequence differs — why the serving loop records at
        // arrival-event dequeue.
        let mut clock = 0.0f64;
        let by_tenant = |name: &'static str| trace.iter().filter(move |(t, _)| *t == name);
        let clamped: Vec<(&str, f64)> = (by_tenant("hot").chain(by_tenant("cold")))
            .map(|&(tenant, at)| {
                clock = clock.max(at);
                (tenant, clock)
            })
            .collect();
        let clamped = cuts(&mut Partitioner::new(16, 0.5), &clamped);

        // Replaying the true-order trace is bit-reproducible: the times
        // and the widths of every cut repeat.
        let replay = cuts(&mut Partitioner::new(16, 0.5), &trace);
        assert_eq!(in_order, replay);
        assert!(
            in_order.len() >= 2,
            "admitting two tenants must cut at least twice: {in_order:?}"
        );
        // First cut: hot alone owns the device.
        assert_eq!(in_order[0].1, vec![("hot".to_string(), 16)]);
        // Demand order changes the outcome: the clamped replay distorts
        // cold's inter-arrival gaps, so the final widths diverge.
        assert_ne!(
            in_order.last().unwrap().1,
            clamped.last().unwrap().1,
            "simulation-time recording must be observably wrong: {in_order:?} vs {clamped:?}"
        );
    }

    #[test]
    fn placement_universe_contains_every_cut_the_partitioner_makes() {
        assert_eq!(placement_universe(8, 3), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(placement_universe(4, 4), vec![0]);
        assert!(placement_universe(4, 5).is_empty());
        assert!(placement_universe(4, 0).is_empty());
        // Every slice the partitioner cuts has its base in the universe.
        let mut p = Partitioner::new(16, 0.5);
        for (i, t) in ["a", "b", "c"].iter().enumerate() {
            observe(&mut p, t, i as f64).unwrap();
        }
        for (_, s) in p.slices() {
            assert!(placement_universe(16, s.num_sms).contains(&s.base_sm));
        }
    }

    #[test]
    fn admission_is_bounded_by_sm_count() {
        let mut p = Partitioner::new(2, 0.3);
        observe(&mut p, "a", 0.0).unwrap();
        observe(&mut p, "b", 0.0).unwrap();
        assert!(observe(&mut p, "c", 0.0).is_err());
    }

    #[test]
    fn stable_demand_does_not_thrash() {
        let mut p = Partitioner::new(16, 0.3);
        let mut now = 0.0;
        for _ in 0..10 {
            observe(&mut p, "a", now).unwrap();
            observe(&mut p, "b", now + 0.01).unwrap();
            now += 1.0;
        }
        let mut recuts = 0;
        for _ in 0..100 {
            recuts += u32::from(observe(&mut p, "a", now).unwrap());
            recuts += u32::from(observe(&mut p, "b", now + 0.01).unwrap());
            now += 1.0;
        }
        assert_eq!(
            recuts, 0,
            "steady equal demand must not recut the partition"
        );
    }
}
