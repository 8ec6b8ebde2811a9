//! Query-aware parallelization (paper §4.4/§5.2): static LPT work
//! assignment, and the helper pool every parallel path runs on.
//!
//! For example-at-a-time queries Willump runs each data input's
//! feature generators concurrently; "to guarantee low latency and
//! avoid scheduling overhead, Willump statically assigns feature
//! generators to threads using the feature generators' computational
//! costs, evenly distributing work between threads." That static
//! assignment is the classic LPT (longest processing time first)
//! heuristic implemented here.
//!
//! A thread spawn costs more than most generators or row chunks, so the
//! process starts `max(1, cores − 1)` helpers (`willump-helper-{i}`)
//! once, with its first job, and they keep their thread-local scratch.
//! One input's LPT groups and a batch's or a model stage's row chunks
//! all run through one claim loop, [`claim`]; the plan executor splits
//! a batch or a model stage when its measured cost says so.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Cores this process may run on (read once).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

type Job = Box<dyn FnOnce() + Send>;

/// The jobs queued for the helpers, oldest first, and their wake-up.
static JOBS: (Mutex<VecDeque<Job>>, Condvar) = (Mutex::new(VecDeque::new()), Condvar::new());

/// Lock `m`, ignoring poison: no lock here is held while an item runs,
/// and items run under `catch_unwind`; waits ignore it the same way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Start the helpers: `max(1, cores − 1)` threads. One the OS refuses
/// leaves its jobs to the others and to the callers. None is joined:
/// they live as long as the process, and no item's panic ends one.
fn start_helpers() {
    for i in 0..cores().saturating_sub(1).max(1) {
        let helper = std::thread::Builder::new().name(format!("willump-helper-{i}"));
        let _ = helper.spawn(serve);
    }
}

/// A helper's life: run the queued jobs, oldest first, and sleep while
/// there are none.
fn serve() {
    loop {
        let jobs = JOBS.1.wait_while(lock(&JOBS.0), |jobs| jobs.is_empty());
        let job = jobs.unwrap_or_else(PoisonError::into_inner).pop_front();
        job.into_iter().for_each(|job| job());
    }
}

type Work<T, E> = Arc<dyn Fn(usize) -> Result<T, E> + Send + Sync>;

/// The items of one [`claim`], claimed in turn by its caller and jobs.
struct Claims<T, E> {
    state: Mutex<ClaimState<T, E>>,
    /// Signalled when the last running item finishes.
    settled: Condvar,
}

struct ClaimState<T, E> {
    /// Dropped once the claim is settled: a late job holds no data.
    work: Option<Work<T, E>>,
    next: usize,
    running: usize,
    /// Set by a failing or panicking item: no more claims.
    stop: bool,
    results: Vec<Option<Result<T, E>>>,
    panicked: Option<Box<dyn Any + Send>>,
}

impl<T, E> Claims<T, E> {
    /// Claim and run items until none is left, one has failed, or the
    /// claim is settled.
    fn run(&self) {
        loop {
            let mut st = lock(&self.state);
            let (item, work) = match &st.work {
                Some(work) if !st.stop && st.next < st.results.len() => (st.next, Arc::clone(work)),
                _ => return,
            };
            st.next += 1;
            st.running += 1;
            drop(st);
            let out = panic::catch_unwind(AssertUnwindSafe(|| work(item)));
            drop(work);
            let mut st = lock(&self.state);
            st.running -= 1;
            st.stop |= out.as_ref().map_or(true, Result::is_err);
            match out {
                Ok(result) => st.results[item] = Some(result),
                Err(payload) => st.panicked = Some(payload),
            }
            if st.running == 0 {
                self.settled.notify_one();
            }
        }
    }
}

/// Run `work` on the items `0..items`, claimed in turn by the calling
/// thread and `min(helpers, items − 1)` jobs queued on the helper pool
/// (the first job starts it) until none is left or one has failed.
/// Returns the results in item order and the number of jobs queued.
///
/// The caller waits only for items a helper has claimed, never for a
/// queued job to start: when every helper is busy, or is itself a
/// caller waiting here, the caller runs every item alone. A panic in an
/// item resumes on the caller once the claimed items are done; the
/// helper that caught it serves on.
///
/// # Errors
/// The error of the lowest-index failing item.
pub fn claim<T: Send + 'static, E: Send + 'static>(
    items: usize,
    helpers: usize,
    work: impl Fn(usize) -> Result<T, E> + Send + Sync + 'static,
) -> Result<(Vec<T>, usize), E> {
    static STARTED: Once = Once::new();
    let claims = Arc::new(Claims {
        state: Mutex::new(ClaimState {
            work: Some(Arc::new(work)),
            next: 0,
            running: 0,
            stop: false,
            results: (0..items).map(|_| None).collect(),
            panicked: None,
        }),
        settled: Condvar::new(),
    });
    let jobs = helpers.min(items.saturating_sub(1));
    for _ in 0..jobs {
        STARTED.call_once(start_helpers);
        let claims = Arc::clone(&claims);
        lock(&JOBS.0).push_back(Box::new(move || claims.run()));
        JOBS.1.notify_one();
    }
    claims.run();
    let (results, panicked) = {
        let st = claims
            .settled
            .wait_while(lock(&claims.state), |st| st.running > 0);
        let mut st = st.unwrap_or_else(PoisonError::into_inner);
        st.work = None;
        (std::mem::take(&mut st.results), st.panicked.take())
    };
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    // Unclaimed items are `None`; the first error in item order wins.
    let results = results.into_iter().flatten().collect::<Result<_, _>>()?;
    Ok((results, jobs))
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    fn on_helper() -> bool {
        thread::current()
            .name()
            .is_some_and(|n| n.starts_with("willump-helper-"))
    }

    /// Yield until `done` holds, for at most 10 s.
    fn wait_for(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    /// Claim two items: a helper that takes one records itself in the
    /// returned slot, and the caller waits for a helper to take one.
    fn served_by_a_helper() -> Option<ThreadId> {
        let served: Arc<Mutex<Option<ThreadId>>> = Arc::default();
        let seen = Arc::clone(&served);
        claim(2, 1, move |_| {
            if on_helper() {
                *lock(&seen) = Some(thread::current().id());
            } else {
                wait_for(|| lock(&seen).is_some());
            }
            Ok::<_, ()>(())
        })
        .unwrap();
        let helper = *lock(&served);
        helper
    }

    #[test]
    fn claims_run_every_item_once() {
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let (out, jobs) = claim(16, 3, move |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok::<_, ()>(i * 2)
        })
        .unwrap();
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!((jobs, ran.load(Ordering::SeqCst)), (3, 16));
        // No job for a lone item or when none is asked for.
        assert_eq!(claim(1, 3, Ok::<_, ()>).unwrap(), (vec![0], 0));
        assert_eq!(claim(3, 0, Ok::<_, ()>).unwrap(), (vec![0, 1, 2], 0));
        assert_eq!(claim(0, 3, Ok::<_, ()>).unwrap(), (vec![], 0));
    }

    #[test]
    fn pool_dispatch_is_cheap() {
        // A claim that queues a job costs microseconds, not the tens
        // of microseconds an OS thread spawn costs. The first one
        // starts the pool.
        claim(2, 1, Ok::<_, ()>).unwrap();
        let rounds = 200;
        let t0 = Instant::now();
        for _ in 0..rounds {
            claim(2, 1, Ok::<_, ()>).unwrap();
        }
        let per_round = t0.elapsed().as_secs_f64() / f64::from(rounds);
        assert!(per_round < 500e-6, "dispatch {per_round}s");
    }

    #[test]
    fn a_panicking_item_resumes_on_the_caller_and_its_helper_serves_on() {
        let panicked_on: Arc<Mutex<Option<ThreadId>>> = Arc::default();
        let seen = Arc::clone(&panicked_on);
        let caught = panic::catch_unwind(move || {
            claim(2, 1, move |_| {
                if on_helper() {
                    *lock(&seen) = Some(thread::current().id());
                    panic!("a helper's item");
                }
                // The caller's item waits for the helper to take the
                // other one, so the panic is the helper's alone.
                wait_for(|| lock(&seen).is_some());
                Ok::<_, ()>(())
            })
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a helper's item"));
        let helper = lock(&panicked_on).expect("a helper took an item");
        // The helper caught the panic and lives on: it takes items of
        // later claims (any idle helper may take a job, so try a few).
        let deadline = Instant::now() + Duration::from_secs(10);
        while served_by_a_helper() != Some(helper) {
            assert!(
                Instant::now() < deadline,
                "the helper that caught the panic never served again"
            );
        }
    }

    #[test]
    fn a_failing_item_stops_the_claims_and_returns_its_error() {
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let err = claim(10, 0, move |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            Err::<(), _>(i)
        })
        .unwrap_err();
        assert_eq!((err, ran.load(Ordering::SeqCst)), (0, 1));

        // Items from 3 on fail. Item 3 is claimed before any later
        // one, so its error comes back whichever thread ran it, and
        // each claimer takes at most one item after it.
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let err = claim(100, 1, move |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            if i >= 3 {
                Err(i)
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, 3);
        assert!(ran.load(Ordering::SeqCst) <= 5, "{ran:?} items ran");
    }

    #[test]
    fn a_caller_whose_helpers_are_blocked_runs_every_item_itself() {
        // Every helper takes a job that waits for the release; the
        // claim's own jobs queue behind them.
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let mut queue = lock(&JOBS.0);
            for _ in 0..cores().saturating_sub(1).max(1) {
                let release = Arc::clone(&release);
                queue.push_back(Box::new(move || {
                    let (released, cv) = &*release;
                    let mut released = lock(released);
                    while !*released {
                        released = cv.wait(released).unwrap_or_else(PoisonError::into_inner);
                    }
                }));
            }
        }
        JOBS.1.notify_all();
        let caller = thread::current().id();
        let out = claim(8, 3, |_| Ok::<_, ()>(thread::current().id()));
        let (released, cv) = &*release;
        *lock(released) = true;
        cv.notify_all();
        let (ran_on, jobs) = out.unwrap();
        assert_eq!(jobs, 3);
        assert!(ran_on.iter().all(|&t| t == caller), "{ran_on:?}");
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
