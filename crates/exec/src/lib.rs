//! A persistent work-stealing worker pool for embarrassingly parallel
//! experiment cells.
//!
//! The figure sweeps are grids of independent `(figure, sparsity, config)`
//! cells and the serving layer (`hht-serve`) dispatches job waves — both
//! are fan-outs of deterministic simulations. Earlier versions spawned a
//! fresh set of scoped threads per call; this version keeps one global
//! [`WorkerPool`] of parked threads alive for the whole process and hands
//! each [`parallel_map`] / [`try_parallel_map`] call to it as a *batch*:
//! indices are dealt round-robin into per-participant deques, each
//! participant pops its own deque from the front and steals from the back
//! of others when dry. The calling thread is always participant 0 and
//! works too, so a pool with zero workers (or a fully busy pool) still
//! completes every batch — workers accelerate, they are never load-bearing
//! for progress.
//!
//! Results stay **deterministic and in input order**: every cell writes
//! into the slot of its input index, so the collected `Vec` is independent
//! of scheduling. With `jobs == 1` the cells run in the calling thread, in
//! order, reproducing serial behaviour exactly (including the order of any
//! side effects such as progress prints).
//!
//! A panicking cell (e.g. a deadlocked configuration hitting the system
//! watchdog) fails only its own slot: [`try_parallel_map`] surfaces it as a
//! [`CellError`] so the rest of a sweep still completes.
//!
//! # Safety of the borrowed-closure hand-off
//!
//! A batch's task is a `&(dyn Fn(usize) + Sync)` borrowed from the
//! caller's stack, type-erased to a raw pointer so the long-lived workers
//! can hold it (the classic scoped-pool lifetime erasure). The erasure is
//! sound because of three invariants, each enforced in exactly one place:
//!
//! 1. **Deref only between a successful deque pop and the matching
//!    `pending` decrement** (`Batch::work`). An empty pop touches only
//!    the heap-owned `Batch` state, never the erased pointer.
//! 2. **The caller returns only after `pending == 0`** ([`WorkerPool::run`]
//!    waits on the batch's condvar). Indices are enqueued once, before
//!    publication, so `pending == 0` means every index was popped *and*
//!    its task invocation finished — no future pop can succeed, hence no
//!    future deref.
//! 3. **Capture thread-safety is compiler-checked at the coercion site**:
//!    the closure built in [`try_parallel_map`] is only `Sync` because its
//!    captures are (`Mutex<Option<T>>` demands `T: Send`, etc.), so the
//!    bounds the scoped-thread version needed are still enforced
//!    structurally.
//!
//! A worker that wakes late and fetches an already-drained batch sees only
//! empty deques (kept alive by its `Arc`) and goes back to sleep.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The host's available parallelism (the `--jobs` default), at least 1.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One failed cell: its input index and the panic payload rendered to text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Index of the failed item in the input order.
    pub index: usize,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} failed: {}", self.index, self.message)
    }
}

impl std::error::Error for CellError {}

/// The erased borrow of a batch's task closure. Raw pointers are neither
/// `Send` nor `Sync`; these impls are what moves the borrow across threads
/// and they are sound only under the protocol in the module docs.
struct ErasedTask(*const (dyn Fn(usize) + Sync));

unsafe impl Send for ErasedTask {}
unsafe impl Sync for ErasedTask {}

/// One fan-out: the erased task, the per-participant index deques, and the
/// completion accounting. Heap-owned via `Arc` so late-waking workers can
/// inspect it safely after the caller has moved on.
struct Batch {
    task: ErasedTask,
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Indices not yet *completed* (popped and run). The caller's return
    /// gate: see safety invariant 2.
    pending: AtomicUsize,
    /// Deque count: caller (slot 0) plus the eligible workers.
    participants: usize,
    /// Set when a task invocation unwound past the task itself (the pool
    /// still completes the batch; [`WorkerPool::run`] re-panics on the
    /// caller so the escape stays visible).
    tripped: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    /// Pop the participant's own deque front, else steal from the back of
    /// the others.
    fn pop(&self, slot: usize) -> Option<usize> {
        if let Some(i) = self.deques[slot].lock().unwrap().pop_front() {
            return Some(i);
        }
        for k in 1..self.participants {
            let victim = (slot + k) % self.participants;
            if let Some(i) = self.deques[victim].lock().unwrap().pop_back() {
                return Some(i);
            }
        }
        None
    }

    /// Drain work as participant `slot` until every deque is dry.
    fn work(&self, slot: usize) {
        while let Some(i) = self.pop(slot) {
            {
                // SAFETY: `i` was just popped, so the caller of
                // `WorkerPool::run` is still parked inside it (invariant 2)
                // and the closure it borrows is alive. The pointer is only
                // dereferenced here, between the pop and the decrement
                // below (invariant 1).
                let task = unsafe { &*self.task.0 };
                if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                    self.tripped.store(true, Ordering::Relaxed);
                }
            }
            if self.pending.fetch_sub(1, Ordering::Release) == 1 {
                *self.done.lock().unwrap() = true;
                self.done_cv.notify_all();
            }
        }
    }
}

struct PoolState {
    /// Bumped on every published batch; workers use it to tell "new batch"
    /// from a spurious wakeup.
    epoch: u64,
    batch: Option<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

/// A persistent pool of parked worker threads that cooperatively drain
/// batches of indexed tasks with per-participant work-stealing deques.
///
/// The calling thread always participates, so correctness never depends on
/// worker availability; `jobs` caps how many workers may join a given
/// batch. Construction parks the threads on a condvar — an idle pool costs
/// nothing but stack reservations.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn a pool with `workers` threads (0 is valid: every batch then
    /// runs entirely on its caller).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { epoch: 0, batch: None, shutdown: false }),
            work_cv: Condvar::new(),
        });
        for w in 0..workers {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("hht-exec-worker-{w}"))
                .spawn(move || worker_loop(sh, w))
                .expect("spawn pool worker");
        }
        WorkerPool { shared, workers }
    }

    /// The process-wide pool used by [`parallel_map`] /
    /// [`try_parallel_map`]. Sized to at least 3 workers even on small
    /// hosts so the stealing paths are genuinely exercised; parked workers
    /// beyond the core count cost nothing.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_jobs().max(4) - 1))
    }

    /// Worker threads owned by this pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `task(i)` for every `i in 0..n` across the caller plus at most
    /// `jobs - 1` pool workers, returning when all `n` invocations have
    /// completed.
    ///
    /// The task must be safe to call concurrently from multiple threads
    /// (it is `Sync`) and should catch its own panics; one that unwinds is
    /// contained per-invocation, the batch still completes, and this call
    /// then panics on the caller to keep the escape visible.
    pub fn run(&self, jobs: usize, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        let participants = 1 + jobs.saturating_sub(1).min(self.workers);
        let mut deques: Vec<VecDeque<usize>> = (0..participants).map(|_| VecDeque::new()).collect();
        for i in 0..n {
            deques[i % participants].push_back(i);
        }
        // SAFETY: the transmute only erases the borrow's lifetime from the
        // fat pointer's type; invariants 1 and 2 (module docs) ensure no
        // dereference happens after this call returns, i.e. while the
        // borrow could be dead.
        let task: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let batch = Arc::new(Batch {
            task: ErasedTask(task),
            deques: deques.into_iter().map(Mutex::new).collect(),
            pending: AtomicUsize::new(n),
            participants,
            tripped: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        if participants > 1 {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.batch = Some(Arc::clone(&batch));
            drop(st);
            self.shared.work_cv.notify_all();
        }
        batch.work(0);
        let mut done = batch.done.lock().unwrap();
        while !*done {
            done = batch.done_cv.wait(done).unwrap();
        }
        drop(done);
        // Acquire pairs with the workers' Release decrements: all task
        // effects (result-slot writes) are visible to the caller here.
        assert_eq!(batch.pending.load(Ordering::Acquire), 0);
        if participants > 1 {
            let mut st = self.shared.state.lock().unwrap();
            if st.batch.as_ref().is_some_and(|b| Arc::ptr_eq(b, &batch)) {
                st.batch = None;
            }
        }
        if batch.tripped.load(Ordering::Relaxed) {
            panic!("a worker-pool task panicked past its own handler");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.shutdown = true;
        drop(st);
        self.shared.work_cv.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    let mut seen = 0u64;
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.batch.clone();
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        if let Some(b) = batch {
            // Caller is slot 0; this worker owns slot me + 1 when the
            // batch's `jobs` cap admits it.
            let slot = me + 1;
            if slot < b.participants {
                b.work(slot);
            }
        }
    }
}

/// Run `f(index, item)` over every item on up to `jobs` threads, returning
/// results in input order. Panics (after every cell has finished) if any
/// cell panicked, with a message naming **every** failed cell's input
/// index and original panic payload — use [`try_parallel_map`] to keep
/// partial results instead.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let results = try_parallel_map(jobs, items, f);
    let failures: Vec<&CellError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    if !failures.is_empty() {
        let detail: Vec<String> = failures.iter().map(|e| e.to_string()).collect();
        panic!("{} of {} cells failed: {}", failures.len(), results.len(), detail.join("; "));
    }
    results.into_iter().map(|r| r.expect("failures handled above")).collect()
}

/// Like [`parallel_map`], but a panicking cell yields `Err(CellError)` in
/// its slot instead of poisoning the whole sweep.
///
/// Contract:
///
/// - **Every cell runs.** A panic in one cell never prevents other cells
///   from being claimed and executed (no short-circuit), so a sweep with
///   one deadlocked configuration still produces every other result.
/// - **Slots are in input order.** `out[i]` is always the outcome of
///   `items[i]`, independent of thread scheduling.
/// - **`Err(CellError)` localizes the failure**: `index` is the input
///   index and `message` is the panic payload rendered to text (`&str`
///   and `String` payloads verbatim; anything else as a placeholder).
///   The panic does not cross the sweep boundary — the calling thread
///   never unwinds.
/// - **`jobs == 1` is exactly serial**: cells run on the calling thread
///   in input order, so side-effect order is reproducible.
pub fn try_parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<Result<R, CellError>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = jobs.max(1);
    if jobs == 1 || items.len() <= 1 {
        // Serial fast path: calling thread, input order.
        return items.into_iter().enumerate().map(|(i, item)| run_cell(&f, i, item)).collect();
    }
    let n = items.len();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<Result<R, CellError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let item = work[i].lock().unwrap().take().expect("each cell claimed once");
        let r = run_cell(&f, i, item);
        *slots[i].lock().unwrap() = Some(r);
    };
    WorkerPool::global().run(jobs, n, &task);
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("every cell ran")).collect()
}

fn run_cell<T, R>(f: &(impl Fn(usize, T) -> R + Sync), i: usize, item: T) -> Result<R, CellError> {
    catch_unwind(AssertUnwindSafe(|| f(i, item)))
        .map_err(|e| CellError { index: i, message: panic_message(e.as_ref()) })
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
    fn a_panicking_cell_fails_alone() {
        for jobs in [1, 4] {
            let out = try_parallel_map(jobs, (0..10).collect(), |_, x: usize| {
                if x == 3 {
                    panic!("boom {x}");
                }
                x
            });
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 3);
                    assert!(e.message.contains("boom 3"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cell 2 failed")]
    fn parallel_map_propagates_cell_panics() {
        parallel_map(4, (0..8).collect(), |_, x: usize| assert_ne!(x, 2));
    }

    #[test]
    fn parallel_map_panic_names_every_failed_cell() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, (0..8).collect(), |_, x: usize| {
                if x == 2 || x == 5 {
                    panic!("cell payload {x}");
                }
                x
            });
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("2 of 8 cells failed"), "{msg}");
        assert!(msg.contains("cell 2 failed: cell payload 2"), "{msg}");
        assert!(msg.contains("cell 5 failed: cell payload 5"), "{msg}");
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
    fn pool_workers_genuinely_participate() {
        // A 2-party barrier can only be satisfied by two *concurrent*
        // threads: if the pool never lent a worker, the caller would wedge
        // on the first cell. Completion therefore proves participation.
        // The pool is private: the global pool keeps one batch slot, so a
        // batch posted by a concurrent test could take its worker away and
        // leave the caller alone at the barrier.
        let pool = WorkerPool::new(1);
        let barrier = std::sync::Barrier::new(2);
        let out: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        pool.run(2, 2, &|i| {
            barrier.wait();
            out[i].store([10, 20][i] + 1, Ordering::Relaxed);
        });
        let out: Vec<usize> = out.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn pool_is_reused_across_batches() {
        let global = WorkerPool::global() as *const WorkerPool;
        for _ in 0..3 {
            let again = WorkerPool::global() as *const WorkerPool;
            assert_eq!(global, again);
            let out = parallel_map(8, (0..32).collect(), |_, x: usize| x * 2);
            assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
        }
        assert!(WorkerPool::global().workers() >= 3);
    }

    #[test]
    fn workerless_pool_completes_on_the_caller() {
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        pool.run(8, 17, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn dropping_a_private_pool_does_not_hang() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run(3, 9, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 9);
        drop(pool);
    }

    #[test]
    fn jobs_cap_limits_participants_but_not_completion() {
        // jobs=2 on a >=3-worker global pool: at most one worker joins,
        // every cell still completes in order.
        let out = parallel_map(2, (0..50).collect(), |_, x: usize| x + 7);
        assert_eq!(out, (0..50).map(|x| x + 7).collect::<Vec<_>>());
    }
}
