//! Query-aware parallelization (paper §4.4/§5.2): static LPT work
//! assignment plus the persistent low-latency worker pool.
//!
//! For example-at-a-time queries Willump runs each data input's
//! feature generators concurrently; "to guarantee low latency and
//! avoid scheduling overhead, Willump statically assigns feature
//! generators to threads using the feature generators' computational
//! costs, evenly distributing work between threads." That static
//! assignment is the classic LPT (longest processing time first)
//! heuristic implemented here. The [`WorkerPool`] provides the
//! low-latency threading substrate (the paper's Weld runtime threads):
//! workers are spawned once and fed through a channel, so dispatching
//! a generator costs a channel send rather than an OS thread spawn.

use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};

/// A boxed unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads for per-input parallelism.
///
/// Spawning an OS thread costs tens of microseconds — more than most
/// feature generators — so per-query spawning inverts the gains of
/// parallelization. The pool spawns its workers (`willump-pool-{i}`)
/// once; each dispatch is one channel send. Idle workers take turns
/// waiting on the one receiver.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    n_threads: usize,
}

impl WorkerPool {
    /// Start a pool with `n_threads` workers.
    ///
    /// # Panics
    /// Panics if `n_threads == 0` or a worker thread cannot be spawned.
    pub fn new(n_threads: usize) -> Arc<WorkerPool> {
        assert!(n_threads > 0, "need at least one thread");
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..n_threads {
            let rx = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("willump-pool-{i}"))
                .spawn(move || {
                    while let Some(job) = next_job(&rx) {
                        job();
                    }
                })
                .expect("spawn a pool worker");
        }
        Arc::new(WorkerPool {
            sender: Some(sender),
            n_threads,
        })
    }

    /// Number of workers.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Submit a job; it runs on some worker as soon as one is free.
    pub fn execute(&self, job: Job) {
        if let Some(s) = &self.sender {
            // Workers only stop when the pool is dropped, so send can
            // only fail during teardown, when losing the job is fine.
            let _ = s.send(job);
        }
    }
}

/// The next job for a worker, or `None` once the pool is dropped. The
/// lock is held only while waiting, never while a job runs, so a
/// panicking job cannot poison it; a poisoned lock still hands out
/// the receiver.
fn next_job(rx: &Mutex<Receiver<Job>>) -> Option<Job> {
    rx.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .recv()
        .ok()
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("n_threads", &self.n_threads)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain and exit.
        self.sender.take();
    }
}

/// Assign items with the given costs to `n_threads` groups using LPT:
/// sort by descending cost, always placing the next item on the
/// least-loaded thread. Returns per-thread item-index lists; threads
/// may be empty when there are fewer items than threads.
///
/// # Panics
/// Panics if `n_threads == 0`.
pub fn lpt_assign(costs: &[f64], n_threads: usize) -> Vec<Vec<usize>> {
    assert!(n_threads > 0, "need at least one thread");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .expect("finite costs")
            .then(a.cmp(&b))
    });
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_threads];
    let mut loads = vec![0.0f64; n_threads];
    for item in order {
        let (t, _) = loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite loads"))
            .expect("at least one thread");
        groups[t].push(item);
        loads[t] += costs[item];
    }
    groups
}

/// The makespan (maximum per-thread load) of an assignment.
pub fn makespan(costs: &[f64], groups: &[Vec<usize>]) -> f64 {
    groups
        .iter()
        .map(|g| g.iter().map(|&i| costs[i]).sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_jobs_and_shuts_down() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(3);
        assert_eq!(pool.n_threads(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::sync_channel(16);
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            }));
        }
        for _ in 0..16 {
            rx.recv_timeout(std::time::Duration::from_secs(5))
                .expect("job completes");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        drop(pool); // must not hang
    }

    #[test]
    fn pool_dispatch_is_cheap() {
        // One dispatch round trip should cost microseconds, not the
        // tens of microseconds an OS thread spawn costs.
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        // Warm up.
        let t0 = {
            let tx = tx.clone();
            pool.execute(Box::new(move || {
                let _ = tx.send(());
            }));
            rx.recv().expect("warmup");
            std::time::Instant::now()
        };
        let rounds = 200;
        for _ in 0..rounds {
            let tx = tx.clone();
            pool.execute(Box::new(move || {
                let _ = tx.send(());
            }));
            rx.recv().expect("round trip");
        }
        let per_round = t0.elapsed().as_secs_f64() / f64::from(rounds);
        assert!(per_round < 500e-6, "dispatch {per_round}s");
    }

    #[test]
    fn lpt_covers_all_items_once() {
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0];
        let groups = lpt_assign(&costs, 2);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lpt_balances_equal_items() {
        let costs = [1.0; 8];
        let groups = lpt_assign(&costs, 4);
        for g in &groups {
            assert_eq!(g.len(), 2);
        }
        assert!((makespan(&costs, &groups) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_is_near_optimal_on_classic_case() {
        // LPT guarantees makespan <= 4/3 OPT; here OPT = 6.
        let costs = [4.0, 3.0, 3.0, 2.0, 2.0, 2.0];
        let groups = lpt_assign(&costs, 2);
        let ms = makespan(&costs, &groups);
        assert!(ms <= 8.0 + 1e-12, "makespan {ms}");
    }

    #[test]
    fn lpt_more_threads_than_items() {
        let costs = [2.0, 1.0];
        let groups = lpt_assign(&costs, 4);
        assert_eq!(groups.iter().filter(|g| !g.is_empty()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn lpt_zero_threads_panics() {
        let _ = lpt_assign(&[1.0], 0);
    }
}
