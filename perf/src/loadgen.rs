//! The benchmark's own load generator: an open loop on a seeded
//! Poisson schedule and a closed loop of waiting clients.
//!
//! Independent users make an open loop: requests are due at scheduled
//! instants whatever the system is doing, and each request's latency
//! is charged from the instant it was *due* — so a stall is paid for by
//! every request that queued behind it, not hidden by a generator that
//! politely waited (coordinated omission). How late the generator
//! itself ran (`lag`) is recorded per request; a run whose median lag
//! is a large share of its median latency measured the generator, not
//! the system, and is reported invalid.
//!
//! Both loops measure one *slice* of a phase at a time (see
//! `stats.rs` for why phases run as alternating slices).
//!
//! This follows `crates/bench/src/loadgen.rs` in spirit but shares no
//! code with it, so later changes are free to rework that crate.

use std::time::{Duration, Instant};

use crate::stats::WindowedSamples;

/// Sender threads sleep until this long before a request is due and
/// spin for the rest: a bare `sleep` overshoots by 50–100 us here
/// (timer slack plus wake-up), which at a few thousand requests per
/// second would be most of the latency being measured.
const SPIN: Duration = Duration::from_micros(150);

/// SplitMix64: the seeded stream behind the arrival schedule.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at `rate_per_s` over `seconds`: nanosecond offsets
/// from the start of the phase, ascending. Equal seeds give equal
/// schedules.
pub fn poisson_schedule(rate_per_s: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64(seed);
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize);
    loop {
        // 1 - u is in (0, 1]: never ln(0).
        at += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if at >= seconds {
            return out;
        }
        out.push((at * 1e9) as u64);
    }
}

/// What one slice of a phase measured; [`Phase::append`] strings a
/// phase's slices together.
#[derive(Debug)]
pub struct Phase {
    /// Per-call time window by window. Closed loop: time from send to
    /// response, windowed by completion, with the rows served credited
    /// as work. Open loop: time from *scheduled* arrival to response,
    /// windowed by the scheduled arrival.
    pub calls: WindowedSamples,
    /// Open loop only: how long after it was due each request was sent.
    pub lag: WindowedSamples,
    pub attempted: u64,
    /// Errors and wrong answers among `attempted`.
    pub failed: u64,
}

impl Phase {
    pub fn empty() -> Phase {
        Phase {
            calls: WindowedSamples::empty(),
            lag: WindowedSamples::empty(),
            attempted: 0,
            failed: 0,
        }
    }

    fn slice(start: Instant, seconds: f64) -> Phase {
        Phase {
            calls: WindowedSamples::new(start, seconds),
            lag: WindowedSamples::new(start, seconds),
            attempted: 0,
            failed: 0,
        }
    }

    /// Fold in another thread's share of the same slice.
    fn merge(&mut self, other: Phase) {
        self.calls.merge(other.calls);
        self.lag.merge(other.lag);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Add the phase's next slice.
    pub fn append(&mut self, next: Phase) {
        self.calls.append(next.calls);
        self.lag.append(next.lag);
        self.attempted += next.attempted;
        self.failed += next.failed;
    }
}

/// How many slices a phase of `seconds` runs as (about a second
/// each), and how long each is.
fn slicing(seconds: f64) -> (usize, f64) {
    let slices = (seconds.round() as usize).max(1);
    (slices, seconds / slices as f64)
}

/// Run one phase of `seconds` as back-to-back slices. `slice(seconds,
/// n)` measures the `n`-th slice.
pub fn sliced(seconds: f64, mut slice: impl FnMut(f64, usize) -> Phase) -> Phase {
    let (slices, each) = slicing(seconds);
    let mut phase = Phase::empty();
    for n in 0..slices {
        phase.append(slice(each, n));
    }
    phase
}

/// Run two phases of `seconds` each as alternating slices, `a` first,
/// so both see the same stretch of the host's moods.
pub fn interleaved(
    seconds: f64,
    mut a: impl FnMut(f64, usize) -> Phase,
    mut b: impl FnMut(f64, usize) -> Phase,
) -> (Phase, Phase) {
    let (slices, each) = slicing(seconds);
    let (mut phase_a, mut phase_b) = (Phase::empty(), Phase::empty());
    for n in 0..slices {
        phase_a.append(a(each, n));
        phase_b.append(b(each, n));
    }
    (phase_a, phase_b)
}

/// Run `thread(t)` on `threads` threads and merge what each measured.
fn on_threads(
    start: Instant,
    seconds: f64,
    threads: usize,
    thread: impl Fn(usize) -> Phase + Sync,
) -> Phase {
    let thread = &thread;
    let mut slice = Phase::slice(start, seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || thread(t))).collect();
        for h in handles {
            slice.merge(h.join().expect("load-generator thread panicked"));
        }
    });
    slice
}

/// Open loop: offer `schedule` (offsets within a slice of `seconds`)
/// from `threads` sender threads, which take the arrivals round-robin.
/// `call(i)` issues request `i` and says whether it was served
/// correctly.
pub fn open_loop(
    schedule: &[u64],
    seconds: f64,
    threads: usize,
    call: impl Fn(usize) -> bool + Sync,
) -> Phase {
    let start = Instant::now();
    on_threads(start, seconds, threads, |tid| {
        let mut mine = Phase::slice(start, seconds);
        for i in (tid..schedule.len()).step_by(threads) {
            let due = start + Duration::from_nanos(schedule[i]);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                if wait > SPIN {
                    std::thread::sleep(wait - SPIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            }
            let sent = Instant::now();
            let ok = call(i);
            let done = Instant::now();
            mine.lag
                .record(due, sent.duration_since(due).as_nanos() as u64);
            mine.attempted += 1;
            if ok {
                mine.calls
                    .record(due, done.duration_since(due).as_nanos() as u64);
            } else {
                mine.failed += 1;
            }
        }
        mine
    })
}

/// Closed loop: `clients` callers that each issue their next request
/// as soon as the previous one returns, for `seconds`. `call(client,
/// n)` issues that client's `n`-th request of the slice and returns
/// the rows it got served correctly, or `None` on a failure or a wrong
/// answer.
pub fn closed_loop(
    seconds: f64,
    clients: usize,
    call: impl Fn(usize, usize) -> Option<usize> + Sync,
) -> Phase {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    on_threads(start, seconds, clients, |client| {
        let mut mine = Phase::slice(start, seconds);
        let mut began = Instant::now();
        while began < end {
            let rows = call(client, mine.attempted as usize);
            let done = Instant::now();
            mine.attempted += 1;
            match rows {
                Some(rows) => {
                    mine.calls
                        .record(done, done.duration_since(began).as_nanos() as u64);
                    mine.calls.work(began, done, rows as f64);
                }
                None => mine.failed += 1,
            }
            began = done;
        }
        mine
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(1_000.0, 2.0, 7);
        assert_eq!(a, poisson_schedule(1_000.0, 2.0, 7));
        assert_ne!(a, poisson_schedule(1_000.0, 2.0, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // About rate x seconds arrivals (Poisson: sd ~ 45).
        assert!((1_700..2_300).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn open_loop_charges_latency_from_the_scheduled_arrival() {
        // Both requests are due at once on one sender; the first takes
        // 30 ms, so the second is *sent* 30 ms late and its latency
        // includes that wait.
        let report = open_loop(&[0, 0], 1.0, 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            true
        });
        assert_eq!((report.attempted, report.failed), (2, 0));
        assert_eq!(report.calls.count(), 2);
        assert!(report.calls.quantile_us(0.0).value >= 30_000.0);
        assert!(report.lag.quantile_us(1.0).value >= 30_000.0);
    }

    #[test]
    fn open_loop_counts_unserved_requests() {
        let schedule: Vec<u64> = (0..40).map(|i| i * 100_000).collect();
        let calls = AtomicUsize::new(0);
        let report = open_loop(&schedule, 1.0, 2, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i % 4 != 0
        });
        assert_eq!(calls.load(Ordering::Relaxed), 40);
        assert_eq!((report.attempted, report.failed), (40, 10));
        assert_eq!(report.calls.count(), 30);
        assert_eq!(report.lag.count(), 40);
    }

    #[test]
    fn closed_loop_counts_rows_and_failures() {
        let report = closed_loop(0.2, 2, |client, n| {
            std::thread::sleep(Duration::from_millis(1));
            (client == 0 || n % 2 == 0).then_some(8)
        });
        assert!(report.attempted > 20, "{}", report.attempted);
        assert!(report.failed > 0 && report.failed < report.attempted);
        // Completions past the end of the slice are not windowed.
        let windowed = report.calls.count() as u64;
        assert!(windowed <= report.attempted - report.failed);
        assert!(report.calls.rate().value > 0.0);
    }

    #[test]
    fn phases_run_as_alternating_slices() {
        let order = std::sync::Mutex::new(Vec::new());
        let slice = |tag: char| {
            let order = &order;
            move |seconds: f64, n: usize| {
                order.lock().unwrap().push((tag, n));
                assert!((seconds - 0.02).abs() < 1e-9);
                closed_loop(seconds, 1, |_, _| Some(1))
            }
        };
        // slicing() rounds to whole seconds; 0.02 s is one slice.
        let (a, b) = interleaved(0.02, slice('a'), slice('b'));
        assert_eq!(*order.lock().unwrap(), vec![('a', 0), ('b', 0)]);
        assert!(a.attempted > 0 && b.attempted > 0);
        assert_eq!(slicing(12.0), (12, 1.0));
        assert_eq!(slicing(3.6), (4, 0.9));
        let whole = sliced(0.02, slice('c'));
        // The call in flight when the slice ends is attempted, not windowed.
        assert!(whole.calls.count() as u64 <= whole.attempted);
    }
}
