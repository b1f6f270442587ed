//! The serving-event type.
//!
//! The serving loop ([`crate::fleet::FleetEngine`]) queues [`Event`]s in
//! a [`std::collections::BinaryHeap`] and pops them in ascending
//! `(virtual_time, device, tenant, seq)` order, so two runs over the
//! same trace process events identically and the whole run is
//! bit-reproducible. A single-device engine is device 0 throughout,
//! which degenerates the key to `(time, tenant, seq)`.

use std::cmp::Ordering;
use std::sync::Arc;

/// One queued event. `kind` is the loop's payload; it takes no part in
/// ordering *or* equality — two events are equal exactly when
/// their keys are, so `Eq` and `Ord` cannot disagree.
#[derive(Debug, Clone)]
pub(crate) struct Event<K> {
    pub(crate) time: f64,
    pub(crate) device: u32,
    /// Shared with the loop's ledger: queueing an event copies no name.
    pub(crate) tenant: Arc<str>,
    pub(crate) seq: u64,
    pub(crate) kind: K,
}

impl<K> Event<K> {
    /// The natural (ascending) key order. `total_cmp` keeps NaN-free
    /// floats totally ordered without panics.
    pub(crate) fn key_cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.device.cmp(&other.device))
            .then_with(|| self.tenant.cmp(&other.tenant))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}
impl<K> Eq for Event<K> {}
impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Event<K> {
    // Reversed: BinaryHeap is a max-heap and the loop pops the smallest key.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key_cmp(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn event_key_orders_time_then_tenant_then_seq() {
        let ev = |time, device, tenant: &str, seq, kind: &'static str| Event {
            time,
            device,
            tenant: tenant.into(),
            seq,
            kind,
        };
        let a = ev(1.0, 0, "a", 5, "x");
        let b = ev(1.0, 0, "b", 0, "x");
        let c = ev(0.5, 3, "z", 9, "x");
        let d = ev(1.0, 0, "a", 6, "x");
        // The device outranks the tenant name and the sequence number,
        // and is outranked only by time.
        let e = ev(1.0, 1, "a", 0, "x");
        // key_cmp is the natural order; Ord is reversed for the heap.
        assert_eq!(c.key_cmp(&a), Ordering::Less);
        assert_eq!(a.key_cmp(&b), Ordering::Less);
        assert_eq!(a.key_cmp(&d), Ordering::Less);
        assert_eq!(b.key_cmp(&e), Ordering::Less);
        assert_eq!(c.key_cmp(&e), Ordering::Less);
        // Same key, different payload: equal under both Eq and Ord.
        let a_other_kind = ev(1.0, 0, "a", 5, "y");
        assert_eq!(a.cmp(&a_other_kind), Ordering::Equal);
        assert!(a == a_other_kind);
        assert!(a != d);

        let mut heap = BinaryHeap::from(vec![e, a.clone(), b, c, d]);
        let first = heap.pop().unwrap();
        assert_eq!(first.time, 0.5, "heap must pop the smallest key");
        assert_eq!(heap.pop().unwrap().key_cmp(&a), Ordering::Equal);
        let devices: Vec<u32> = std::iter::from_fn(|| heap.pop())
            .map(|e| e.device)
            .collect();
        assert_eq!(
            devices,
            [0, 0, 1],
            "device 0's events drain before device 1's"
        );
    }
}
