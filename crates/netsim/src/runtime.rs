//! The shard-worker runtime: one window loop for every thread count.
//!
//! The calling thread is worker 0 of `min(threads, shards)`; the other
//! workers persist until the thread or shard count changes. Each runs
//! `run_block` over its own contiguous block of shards, so one thread
//! and eight run the same windows and merge the same mail in the same
//! order: results are bit-identical by construction. The inboxes, next
//! times and arrival count outlive windows and runs, so a warm window
//! allocates nothing. Between runs the workers sleep at a `Barrier`; a
//! run wakes them with their blocks and a `Job`, and takes the blocks
//! back when it ends.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::shard::{Env, Remote, Shard};
use crate::time::SimTime;

/// Counters describing the runtime's resource behavior, for tests and
/// diagnostics. Obtain a snapshot with [`crate::Network::runtime_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Worker threads spawned over the network's lifetime. Grows only
    /// when the thread or shard count changes, never in `run_until`.
    pub workers_spawned: u64,
    /// Synchronization windows executed.
    pub windows: u64,
}

/// One run's parameters, read by every worker after the start barrier.
#[derive(Clone)]
struct Job {
    env: Env,
    limit: SimTime,
    lookahead: SimTime,
}

/// What the calling thread and the workers share across windows and
/// runs.
struct Shared {
    /// Where the workers sleep between runs: passed at the start of a
    /// run and at shutdown.
    barrier: Barrier,
    /// The run the workers execute next; `None` tells them to exit.
    job: Mutex<Option<Job>>,
    /// Each worker's block of shards during a run (worker 0's stays
    /// empty: the calling thread runs its block in place).
    blocks: Vec<Mutex<Vec<Shard>>>,
    /// Cross-shard events bound for each shard, posted during a window
    /// and merged after the window's first `sync`.
    inboxes: Vec<Mutex<Vec<Remote>>>,
    /// Earliest pending event of each worker's block, in nanoseconds.
    /// Written before a `sync` and read after it, which orders them.
    next: Vec<AtomicU64>,
    /// Arrivals at `sync` over the runtime's life; one wait's `n` end at
    /// a multiple of `n`. Its release and acquire order each thread's
    /// writes before arriving before the others' reads after.
    arrived: AtomicUsize,
}

impl Shared {
    fn new(threads: usize, shards: usize) -> Shared {
        Shared {
            barrier: Barrier::new(threads),
            job: Mutex::new(None),
            blocks: (0..threads).map(|_| Mutex::default()).collect(),
            inboxes: (0..shards).map(|_| Mutex::default()).collect(),
            next: (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect(),
            arrived: AtomicUsize::new(0),
        }
    }

    /// Wait for the other threads of the run. A window is often shorter
    /// than a sleeping thread takes to wake (with a `Barrier` here, the
    /// `netloop` bench's fabric ran 2.4 times slower on two threads of a
    /// two-vCPU box), so a waiter yields its CPU until the last arrives.
    fn sync(&self) {
        let n = self.next.len();
        let all = (self.arrived.fetch_add(1, AcqRel) / n + 1) * n;
        while self.arrived.load(Acquire) < all {
            std::thread::yield_now();
        }
    }
}

/// Lock a mutex of the runtime.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a thread panicking under a runtime lock aborts")
}

/// Run `f`, ending the process (after the message) if it panics: a thread
/// unwinding out of a run would leave the others at the barrier for good.
fn or_abort<R>(f: impl FnOnce() -> R) -> R {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| std::process::abort())
}

/// Move every event of `outbox` into its destination shard's inbox.
fn post(inboxes: &[Mutex<Vec<Remote>>], env: &Env, outbox: &mut Vec<Remote>) {
    for r in outbox.drain(..) {
        lock(&inboxes[env.loc[r.dest().0].shard as usize]).push(r);
    }
}

/// Insert `shard`'s inbox into its queue in `Remote::key` order — the
/// same order whichever threads posted it. Keys are unique, so an
/// unstable sort is exact.
fn deliver(inboxes: &[Mutex<Vec<Remote>>], shard: &mut Shard, env: &Env) {
    let mut inbox = lock(&inboxes[shard.id as usize]);
    inbox.sort_unstable_by_key(Remote::key);
    for r in inbox.drain(..) {
        shard.insert_remote(r, env);
    }
}

/// The window loop of worker `w` over its block of shards. Every worker
/// reads the same global next time after the same `sync`, so all leave
/// in the same window. Returns the windows run.
fn run_block(shared: &Shared, w: usize, shards: &mut [Shard], job: &Job) -> u64 {
    let mut windows = 0;
    loop {
        let next = shards.iter().map(Shard::next_time).min();
        shared.next[w].store(next.unwrap_or(SimTime::MAX).as_nanos(), Relaxed);
        shared.sync();
        let next = shared.next.iter().map(|n| n.load(Relaxed)).min();
        let next = SimTime::from_nanos(next.unwrap_or(u64::MAX));
        if next > job.limit || next == SimTime::MAX {
            return windows;
        }
        let horizon = next + job.lookahead;
        if horizon == SimTime::MAX {
            return windows;
        }
        windows += 1;
        for s in shards.iter_mut() {
            s.burn(horizon, job.limit, &job.env);
            post(&shared.inboxes, &job.env, &mut s.outbox);
        }
        shared.sync();
        for s in shards.iter_mut() {
            deliver(&shared.inboxes, s, &job.env);
        }
    }
}

/// Body of worker `w`: parks at the start barrier between runs, runs
/// its block through [`run_block`], exits when the job is `None`.
fn worker(shared: &Shared, w: usize) {
    loop {
        shared.barrier.wait();
        let Some(job) = lock(&shared.job).clone() else {
            return;
        };
        // Held until the run ends: the caller takes the block back by
        // locking it, which waits for this worker to leave the loop.
        let mut block = lock(&shared.blocks[w]);
        run_block(shared, w, &mut block, &job);
    }
}

/// The execution backend of a sharded [`crate::Network`]: the workers
/// and what they share with the calling thread.
pub(crate) struct Runtime {
    /// Configured thread count (resolved; always ≥ 1).
    threads: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    workers_spawned: u64,
    windows: u64,
}

impl Runtime {
    pub fn new() -> Runtime {
        Runtime {
            threads: 1,
            shared: Arc::new(Shared::new(1, 1)),
            workers: Vec::new(),
            workers_spawned: 0,
            windows: 0,
        }
    }

    /// Resolved thread count, as configured.
    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            workers_spawned: self.workers_spawned,
            windows: self.windows,
        }
    }

    /// Merge every shard's outbox into the destination queues, in
    /// `Remote::key` order; only when all shards share one clock.
    pub fn exchange(&self, shards: &mut [Shard], env: &Env) {
        for s in shards.iter_mut() {
            post(&self.shared.inboxes, env, &mut s.outbox);
        }
        for s in shards {
            deliver(&self.shared.inboxes, s, env);
        }
    }

    /// Configure `threads` threads over `shards` shards: the calling
    /// thread and `min(threads, shards) - 1` workers, so none lacks a
    /// shard. Unless either count changes, the workers stay; this and
    /// `drop` are the only places threads are created or joined.
    pub fn configure(&mut self, threads: usize, shards: usize) {
        self.threads = threads.max(1);
        let n = self.threads.min(shards);
        if n == self.workers.len() + 1 && shards == self.shared.inboxes.len() {
            return;
        }
        self.shutdown();
        self.shared = Arc::new(Shared::new(n, shards));
        for w in 1..n {
            let shared = Arc::clone(&self.shared);
            self.workers
                .push(std::thread::spawn(move || or_abort(|| worker(&shared, w))));
            self.workers_spawned += 1;
        }
    }

    /// Tell the workers to exit and join them.
    fn shutdown(&mut self) {
        *lock(&self.shared.job) = None;
        self.shared.barrier.wait();
        for join in self.workers.drain(..) {
            // Cannot fail: a worker ends the process rather than unwind.
            let _ = join.join();
        }
    }

    /// Run the windows of one `run_until` call: worker `w` of `n` takes
    /// the shards from `w * len / n` on, and every block comes back in
    /// order at the end.
    pub fn run_windows(
        &mut self,
        shards: &mut Vec<Shard>,
        limit: SimTime,
        lookahead: SimTime,
        env: &Env,
    ) {
        let shared = &*self.shared;
        let n = self.workers.len() + 1;
        let len = shards.len();
        for w in (1..n).rev() {
            lock(&shared.blocks[w]).extend(shards.drain(w * len / n..));
        }
        let job = Job {
            env: env.clone(),
            limit,
            lookahead,
        };
        self.windows += if n == 1 {
            run_block(shared, 0, shards, &job)
        } else {
            *lock(&shared.job) = Some(job.clone());
            shared.barrier.wait();
            or_abort(|| run_block(shared, 0, shards, &job))
        };
        for block in &shared.blocks[1..] {
            shards.append(&mut lock(block));
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}
