//! Ordered fan-out of independent work over the host's cores.
//!
//! [`map`] runs one closure per item on scoped worker threads and returns
//! the results in input order. Each item must own whatever it mutates (a
//! simulation owns its `Gpu`) and only read what it shares, so a result
//! never depends on which worker ran it or when: callers that collect the
//! results into a `Result` get the first error in input order, whatever
//! the worker count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on `min(available cores, items)` workers and
/// returns the results in input order. The worker count is measured
/// ([`std::thread::available_parallelism`], which honours the process's
/// CPU affinity mask), never configured. The caller's thread is one of
/// the workers, so with one worker the items run inline and no thread is
/// spawned.
///
/// # Panics
///
/// Re-raises the panic of any item that panics, with its payload.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_on(cores(), items, f)
}

/// The host cores this process may run on.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// [`map`] on at most `workers` workers.
pub(crate) fn map_on<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices; results travel back through
    // `join`, which orders every worker's writes before the caller's reads.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(item)));
            }
        };
        // The caller is one of the workers; a panic in its own share
        // unwinds out of the scope once the helpers are joined.
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let mut done = vec![worker()];
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.push(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        for (i, r) in done.into_iter().flatten() {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};

    /// [`map_on`] over `0..n` with results finishing out of order. Item 0
    /// waits for item 2, and item 2 for item 3, so with two workers the
    /// one running item 0 also runs item 3 and the other runs items 1 and
    /// 2: neither share is a prefix of the input.
    fn map_out_of_order<R: Send>(
        workers: usize,
        n: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let items: Vec<usize> = (0..n).collect();
        let forced = workers > 1 && n > 3;
        let (two_done, after_two) = mpsc::channel();
        let (three_done, after_three) = mpsc::channel();
        let (two_done, after_two) = (Mutex::new(two_done), Mutex::new(after_two));
        let (three_done, after_three) = (Mutex::new(three_done), Mutex::new(after_three));
        map_on(workers, &items, |&i| {
            let r = f(i);
            match i {
                0 if forced => after_two.lock().unwrap().recv().unwrap(),
                2 if forced => {
                    two_done.lock().unwrap().send(()).unwrap();
                    after_three.lock().unwrap().recv().unwrap();
                }
                3 if forced => three_done.lock().unwrap().send(()).unwrap(),
                _ => {}
            }
            r
        })
    }

    /// Items fail where `i % 4 == 3`; the error names the item.
    fn checked(i: usize) -> Result<usize, String> {
        if i % 4 == 3 {
            Err(format!("item {i}"))
        } else {
            Ok(i * i)
        }
    }

    #[test]
    fn results_keep_input_order_and_the_first_error_wins() {
        for workers in [1, 2, 7] {
            for n in [0usize, 1, 10] {
                let squares = map_out_of_order(workers, n, |i| i * i);
                assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
                let first: Result<Vec<usize>, String> =
                    map_out_of_order(workers, n, checked).into_iter().collect();
                let expected = if n > 3 {
                    Err("item 3".to_owned())
                } else {
                    (0..n).map(checked).collect()
                };
                assert_eq!(first, expected, "{workers} workers, {n} items");
            }
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller_with_its_payload() {
        for workers in [1, 2, 7] {
            let items: Vec<usize> = (0..10).collect();
            let caught = std::panic::catch_unwind(|| {
                map_on(workers, &items, |&i| {
                    assert!(i != 6, "item six");
                    i
                })
            })
            .expect_err("the panic reaches the caller");
            let message = caught
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| caught.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("item six"), "{workers} workers");
        }
    }
}
