//! Admission control with bounded queues and compile-effort shedding.
//!
//! Each tenant's backlog (admitted jobs not yet finished at the arrival
//! instant) is bounded; a job arriving at a full queue is rejected with
//! a `retry_after` hint instead of growing the queue without bound, so
//! p99 latency stays finite under saturating arrivals.
//!
//! Below the hard bound, queue pressure degrades *compile effort* before
//! it degrades *admission*: an elevated queue compiles at the heuristic
//! rung (ILP budgets zeroed) and a near-saturated queue compiles at the
//! serial-SAS rung (all ladder budgets zeroed), trading schedule quality
//! for compile latency exactly the way
//! [`crate::pipeline::ResilientPipeline`]'s degradation ladder already
//! knows how to do.

use std::time::Duration;

use serde::Serialize;

use crate::pipeline::StageBudgets;

/// Queue pressure at the arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Pressure {
    /// Below half the bound: full ladder.
    Nominal,
    /// At or above half the bound: skip the ILP rungs.
    Elevated,
    /// At or above three quarters of the bound: serial-SAS only.
    Saturated,
}

/// The admission verdict for one arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Admit, compiling under the pressure's budget preset.
    Admit(Pressure),
    /// Queue full: come back after the backlog drains a slot.
    Reject {
        /// Seconds until a queue slot is expected to free.
        retry_after_secs: f64,
    },
}

/// The routing-aware admission verdict for one fleet arrival: where
/// [`Decision`] answers "does this job enter the queue", this answers
/// "does it enter *here*" — a job whose home device is down (or full)
/// is rerouted to a healthy alternate before admission bounces it back
/// to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteDecision {
    /// Admit on the home device, compiling under the pressure preset.
    Admit(Pressure),
    /// The home device is unusable (dead, partitioned, or saturated)
    /// but a healthy alternate exists: place the job there instead.
    /// Admission is re-decided against the alternate's own backlog.
    Reroute,
    /// No usable device: come back once one heals or drains.
    Reject {
        /// Seconds until a device is expected to become usable — the
        /// backlog drain hint when the home is up, the heal hint when
        /// it is not.
        retry_after_secs: f64,
    },
}

/// Bounded-queue admission controller (per-tenant bound).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    /// Maximum jobs a tenant may have in flight (queued + running).
    pub max_queue: usize,
}

impl AdmissionController {
    /// A controller bounding each tenant at `max_queue` in-flight jobs
    /// (floored at 1).
    #[must_use]
    pub fn new(max_queue: usize) -> AdmissionController {
        AdmissionController {
            max_queue: max_queue.max(1),
        }
    }

    /// Decides one arrival given the tenant's current `backlog` and, for
    /// the reject hint, the seconds until its earliest in-flight job
    /// finishes.
    #[must_use]
    pub fn decide(&self, backlog: usize, earliest_finish_in: f64) -> Decision {
        if backlog >= self.max_queue {
            return Decision::Reject {
                retry_after_secs: earliest_finish_in.max(0.0),
            };
        }
        Decision::Admit(self.pressure(backlog))
    }

    /// Decides one arrival event directly from the tenant's in-flight
    /// finish times: jobs still unfinished at `now` form the backlog,
    /// and the earliest of them supplies the reject hint, so an
    /// admission decision is a pure function of `(finish set, now)` —
    /// the event-sourced form of [`AdmissionController::decide`].
    #[must_use]
    pub fn decide_event(&self, inflight_finishes: &[f64], now: f64) -> Decision {
        let backlog = inflight_finishes.iter().filter(|&&f| f > now).count();
        let earliest = inflight_finishes
            .iter()
            .copied()
            .filter(|&f| f > now)
            .fold(f64::INFINITY, f64::min);
        self.decide(
            backlog,
            if earliest.is_finite() {
                earliest - now
            } else {
                0.0
            },
        )
    }

    /// Decides one fleet arrival: reject-vs-reroute when the tenant's
    /// home device is down, reroute-before-reject when it is merely
    /// full. `home_reachable` is the router's health view of the home
    /// device, `inflight_finishes` its backlog for this tenant,
    /// `alternates` the number of healthy reachable devices the router
    /// could place the job on instead, and `heal_hint_secs` the
    /// router's estimate of when the home heals (used as the retry
    /// hint when nothing is usable).
    #[must_use]
    pub fn decide_routed(
        &self,
        home_reachable: bool,
        inflight_finishes: &[f64],
        now: f64,
        alternates: usize,
        heal_hint_secs: f64,
    ) -> RouteDecision {
        if !home_reachable {
            return if alternates > 0 {
                RouteDecision::Reroute
            } else {
                RouteDecision::Reject {
                    retry_after_secs: heal_hint_secs.max(0.0),
                }
            };
        }
        match self.decide_event(inflight_finishes, now) {
            Decision::Admit(p) => RouteDecision::Admit(p),
            Decision::Reject { retry_after_secs } => {
                if alternates > 0 {
                    RouteDecision::Reroute
                } else {
                    RouteDecision::Reject { retry_after_secs }
                }
            }
        }
    }

    /// The pressure band for a backlog below the bound.
    #[must_use]
    pub fn pressure(&self, backlog: usize) -> Pressure {
        if backlog * 4 >= self.max_queue * 3 {
            Pressure::Saturated
        } else if backlog * 2 >= self.max_queue {
            Pressure::Elevated
        } else {
            Pressure::Nominal
        }
    }
}

/// The ladder budgets a pressure band compiles under. Zero budgets make
/// [`crate::pipeline::ResilientPipeline`] skip rungs: `Elevated` lands on
/// the heuristic rung, `Saturated` on serial SAS (which has no budget
/// gate and always runs).
#[must_use]
pub fn budgets_for(pressure: Pressure, base: &StageBudgets) -> StageBudgets {
    match pressure {
        Pressure::Nominal => base.clone(),
        // The beam rung keeps its budget under elevated pressure: when a
        // cost model is installed it is the *cheap* path, exactly what a
        // loaded server wants.
        Pressure::Elevated => StageBudgets {
            beam: base.beam,
            exact_ilp: Duration::ZERO,
            relaxed_ilp: Duration::ZERO,
            heuristic: base.heuristic,
        },
        Pressure::Saturated => StageBudgets {
            beam: Duration::ZERO,
            exact_ilp: Duration::ZERO,
            relaxed_ilp: Duration::ZERO,
            heuristic: Duration::ZERO,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_bands_partition_the_queue() {
        let a = AdmissionController::new(8);
        assert_eq!(a.pressure(0), Pressure::Nominal);
        assert_eq!(a.pressure(3), Pressure::Nominal);
        assert_eq!(a.pressure(4), Pressure::Elevated);
        assert_eq!(a.pressure(5), Pressure::Elevated);
        assert_eq!(a.pressure(6), Pressure::Saturated);
        assert_eq!(a.pressure(7), Pressure::Saturated);
        assert!(matches!(a.decide(8, 1.5), Decision::Reject { .. }));
    }

    #[test]
    fn reject_carries_the_drain_hint() {
        let a = AdmissionController::new(2);
        match a.decide(2, 3.25) {
            Decision::Reject { retry_after_secs } => {
                assert!((retry_after_secs - 3.25).abs() < 1e-12);
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn retry_after_hints_are_bounded_and_event_sourced() {
        let a = AdmissionController::new(2);
        // Negative drain estimates clamp to zero: a hint must never ask
        // the client to retry in the past.
        match a.decide(2, -1.0) {
            Decision::Reject { retry_after_secs } => assert_eq!(retry_after_secs, 0.0),
            other => panic!("expected reject, got {other:?}"),
        }
        // Event-sourced form: finishes at/before `now` are drained and
        // do not count; the earliest *future* finish supplies the hint.
        match a.decide_event(&[1.0, 5.0, 3.0], 2.0) {
            Decision::Reject { retry_after_secs } => {
                assert!((retry_after_secs - 1.0).abs() < 1e-12, "hint = 3.0 - now");
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // A fully drained queue admits at nominal pressure.
        assert_eq!(
            a.decide_event(&[1.0, 1.5], 2.0),
            Decision::Admit(Pressure::Nominal)
        );
        // The hint is exactly the drain estimate, never padded.
        match a.decide(2, 0.75) {
            Decision::Reject { retry_after_secs } => assert_eq!(retry_after_secs, 0.75),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn ladder_sheds_in_order_under_growing_pressure() {
        // As backlog grows, the controller sheds compile effort strictly
        // in ladder order — exact ILP and relaxed ILP first (Elevated),
        // then the heuristic rung (Saturated), then admission itself —
        // and never regains effort as pressure rises.
        let a = AdmissionController::new(8);
        let base = StageBudgets::default();
        let mut last_rungs = 3;
        for backlog in 0..=8 {
            let rungs = match a.decide(backlog, 1.0) {
                Decision::Admit(p) => {
                    let b = budgets_for(p, &base);
                    let mut n = 0;
                    if b.exact_ilp > Duration::ZERO {
                        n += 1;
                    }
                    if b.relaxed_ilp > Duration::ZERO {
                        n += 1;
                    }
                    if b.heuristic > Duration::ZERO {
                        n += 1;
                    }
                    // ILP rungs shed before the heuristic rung.
                    if b.heuristic == Duration::ZERO {
                        assert_eq!(b.exact_ilp, Duration::ZERO);
                        assert_eq!(b.relaxed_ilp, Duration::ZERO);
                    }
                    n
                }
                Decision::Reject { .. } => {
                    assert_eq!(backlog, a.max_queue, "jobs shed only at the hard bound");
                    0
                }
            };
            assert!(rungs <= last_rungs, "effort must not grow with pressure");
            last_rungs = rungs;
        }
        assert_eq!(last_rungs, 0, "saturation ends in rejection");
    }

    #[test]
    fn home_device_down_reroutes_before_rejecting() {
        let a = AdmissionController::new(4);
        // Home down, healthy alternates exist: reroute, never reject.
        assert_eq!(
            a.decide_routed(false, &[], 0.0, 3, 2.5),
            RouteDecision::Reroute
        );
        // Home down and nothing else usable: reject with the heal hint.
        assert_eq!(
            a.decide_routed(false, &[], 0.0, 0, 2.5),
            RouteDecision::Reject {
                retry_after_secs: 2.5
            }
        );
        // Heal hints clamp to zero like drain hints.
        assert_eq!(
            a.decide_routed(false, &[], 0.0, 0, -1.0),
            RouteDecision::Reject {
                retry_after_secs: 0.0
            }
        );
        // Home up and below the bound: plain admission, alternates moot.
        assert_eq!(
            a.decide_routed(true, &[9.0], 0.0, 3, 2.5),
            RouteDecision::Admit(Pressure::Nominal)
        );
        // Home up but saturated past the bound: reroute when possible...
        let full = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            a.decide_routed(true, &full, 0.0, 1, 2.5),
            RouteDecision::Reroute
        );
        // ...and reject with the *drain* hint (not the heal hint) when not.
        assert_eq!(
            a.decide_routed(true, &full, 0.0, 0, 2.5),
            RouteDecision::Reject {
                retry_after_secs: 1.0
            }
        );
    }

    #[test]
    fn budget_presets_zero_the_right_rungs() {
        let base = StageBudgets::default();
        let nominal = budgets_for(Pressure::Nominal, &base);
        assert_eq!(nominal, base);
        let elevated = budgets_for(Pressure::Elevated, &base);
        assert_eq!(elevated.exact_ilp, Duration::ZERO);
        assert_eq!(elevated.relaxed_ilp, Duration::ZERO);
        assert_eq!(elevated.heuristic, base.heuristic);
        let saturated = budgets_for(Pressure::Saturated, &base);
        assert_eq!(saturated.heuristic, Duration::ZERO);
    }
}
