//! Scoped-thread fan-out for embarrassingly parallel experiment cells.
//!
//! The figure sweeps are grids of independent `(figure, sparsity, config)`
//! cells and the serving layer (`hht-serve`) dispatches job waves — both
//! are fan-outs of deterministic simulations. [`parallel_map`] runs one
//! such fan-out inside [`std::thread::scope`]: the caller plus
//! `min(jobs, items) - 1` helper threads claim cells from one shared
//! cursor until none are left, and the scope joins every helper before
//! the call returns.
//!
//! Results stay **deterministic and in input order**: every cell writes
//! into the slot of its input index, so the collected `Vec` is independent
//! of scheduling. With `jobs == 1` the cells run in the calling thread, in
//! order, reproducing serial behaviour exactly (including the order of any
//! side effects such as progress prints).
//!
//! A panicking cell (e.g. a deadlocked configuration hitting the system
//! watchdog) fails only its own slot: every other cell still runs, and the
//! call then panics once, naming every failed cell.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's available parallelism (the `--jobs` default), at least 1.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f(index, item)` over every item on up to `jobs` threads, returning
/// results in input order.
///
/// Contract:
///
/// - **Every cell runs.** A panic in one cell never prevents other cells
///   from being claimed and executed (no short-circuit).
/// - **Slots are in input order.** `out[i]` is always the result of
///   `items[i]`, independent of thread scheduling.
/// - **`jobs == 1` is exactly serial**: cells run on the calling thread
///   in input order, so side-effect order is reproducible.
/// - **Failures are reported together**: after every cell has finished,
///   one panic names **every** failed cell's input index and its panic
///   payload (`&str` and `String` payloads verbatim).
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let helpers = jobs.max(1).min(n).saturating_sub(1);
    let outcomes: Vec<Result<R, String>> = if helpers == 0 {
        items.into_iter().enumerate().map(|(i, item)| run_cell(&f, i, item)).collect()
    } else {
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<Result<R, String>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // The cursor only hands out indices; cell data travels through the
        // mutexes and the scope's joins, so `Relaxed` suffices.
        let cursor = AtomicUsize::new(0);
        let drain = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = work[i].lock().expect("cells catch their own panics").take();
            let outcome = run_cell(&f, i, item.expect("each cell is claimed once"));
            *slots[i].lock().expect("cells catch their own panics") = Some(outcome);
        };
        std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(drain);
            }
            drain();
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("cells catch their own panics").expect("every cell ran"))
            .collect()
    };
    let failures: Vec<String> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|msg| format!("cell {i} failed: {msg}")))
        .collect();
    if !failures.is_empty() {
        panic!("{} of {} cells failed: {}", failures.len(), n, failures.join("; "));
    }
    outcomes.into_iter().map(|r| r.expect("failures handled above")).collect()
}

fn run_cell<T, R>(f: &(impl Fn(usize, T) -> R + Sync), i: usize, item: T) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|e| panic_message(e.as_ref()))
}

fn panic_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        for jobs in [1, 2, 8] {
            let out = parallel_map(jobs, (0..100).collect(), |i, x: usize| {
                assert_eq!(i, x);
                // Stagger so completion order differs from input order.
                if x.is_multiple_of(7) {
                    std::thread::yield_now();
                }
                x * x
            });
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_jobs_run_on_the_calling_thread() {
        let id = std::thread::current().id();
        parallel_map(1, vec![(); 4], |_, ()| assert_eq!(std::thread::current().id(), id));
    }

    #[test]
    #[should_panic(expected = "cell 2 failed")]
    fn parallel_map_propagates_cell_panics() {
        parallel_map(4, (0..8).collect(), |_, x: usize| assert_ne!(x, 2));
    }

    #[test]
    fn parallel_map_panic_names_every_failed_cell() {
        for jobs in [1, 4] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(|| {
                parallel_map(jobs, (0..8).collect(), |_, x: usize| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if x == 2 || x == 5 {
                        panic!("cell payload {x}");
                    }
                    x
                });
            })
            .unwrap_err();
            // A failed cell never stops the others from running.
            assert_eq!(ran.load(Ordering::Relaxed), 8, "jobs {jobs}");
            let msg = caught.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("2 of 8 cells failed"), "{msg}");
            assert!(msg.contains("cell 2 failed: cell payload 2"), "{msg}");
            assert!(msg.contains("cell 5 failed: cell payload 5"), "{msg}");
        }
    }

    #[test]
    fn empty_and_oversubscribed_inputs() {
        assert!(parallel_map(8, Vec::<u32>::new(), |_, x| x).is_empty());
        let out = parallel_map(64, vec![1u32, 2], |_, x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn helpers_genuinely_run_concurrently() {
        // A 2-party barrier can only be satisfied by two *concurrent*
        // threads: if no helper ran beside the caller, the caller would
        // wedge on the first cell. Completion therefore proves it.
        let barrier = std::sync::Barrier::new(2);
        let out = parallel_map(2, vec![10, 20], |_, x: usize| {
            barrier.wait();
            x + 1
        });
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn jobs_caps_the_threads_but_not_completion() {
        // jobs=2: at most the caller and one helper run cells, and every
        // cell still completes in order.
        let threads = Mutex::new(std::collections::HashSet::new());
        let out = parallel_map(2, (0..50).collect(), |_, x: usize| {
            threads.lock().unwrap().insert(std::thread::current().id());
            x + 7
        });
        assert_eq!(out, (0..50).map(|x| x + 7).collect::<Vec<_>>());
        assert!(threads.into_inner().unwrap().len() <= 2);
    }
}
