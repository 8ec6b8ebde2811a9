//! Order statistics and the windowed summaries every reported number
//! goes through.
//!
//! A timed phase runs as about one-second *slices* that alternate with
//! the other phase's, each cut into [`WINDOWS_PER_SLICE`] windows. The
//! reported figure comes from the phase's [`BEST`] best windows: the
//! mean of the highest window rates, or a percentile over the pooled
//! samples of the windows where that percentile was lowest. The
//! windows' inter-quartile distance, as a share of their median, is
//! printed beside it as `<metric>.spread`.
//!
//! Why the best windows and not the median window: the reference host
//! switches between three speed levels (a fixed spin kernel takes 7.4,
//! 8.4 or 9.4 ms) and dwells on one for 0.5 to 8 s, whatever the
//! benchmark does. A 10 s phase can sit wholly on one level, so the
//! median window of ten same-seed runs spread by 0.10 to 0.20 of its
//! median. Interference only ever slows a window down; the fastest
//! windows are the ones it spared. Over 180 s of recorded `run_batch`
//! calls, resampled as ten runs, the best windows of a contiguous 10 s
//! phase spread by 0.03 and those of ten 1 s slices spaced over 20 s
//! by 0.015 (median window: 0.10). On a quiet host all three agree.

use std::time::Instant;

/// Windows per slice: 100 ms each at the default run length.
pub const WINDOWS_PER_SLICE: usize = 10;
/// Windows a reported figure rests on.
pub const BEST: usize = 10;
/// Samples kept per window: the first this many calls of the window
/// (all of them count towards its rate). Row-at-a-time calls take a
/// few microseconds, so an uncapped run would hold millions of
/// samples — more on a fast host than a slow one — and `peak_rss_mb`
/// would measure the harness.
const MAX_WINDOW_SAMPLES: usize = 8_192;

/// A reported value and, beside it, the inter-quartile distance of the
/// values it was chosen from (windows, or repeats) as a share of their
/// median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub spread: f64,
}

impl Stat {
    /// A value measured once (exact per seed: quality, counts).
    pub fn exact(value: f64) -> Stat {
        Stat { value, spread: 0.0 }
    }

    /// Median and inter-quartile share of `values` (empty → zeros).
    pub fn of(values: &[f64]) -> Stat {
        let mut v = values.to_vec();
        sort(&mut v);
        let value = median_sorted(&v);
        Stat {
            value,
            spread: iqr_share_sorted(&v, value),
        }
    }
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Median of an ascending slice: mean of the two middle values for an
/// even count (0 when empty).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile of an ascending slice, computed as
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method) — the benchmark contract measures run-to-run spread with
/// exactly that function, so `diff` and the README tables agree with
/// it. Fewer than two values have no spread: both quartiles are the
/// value itself.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `(q3 - q1) / |median|` of an ascending slice (0 for a zero median).
pub fn iqr_share_sorted(sorted: &[f64], median: f64) -> f64 {
    if median == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles_sorted(sorted);
    (q3 - q1) / median.abs()
}

/// Collects the per-call samples of one phase into its windows.
///
/// One recorder per thread and slice: [`WindowedSamples::merge`] folds
/// the threads of a slice together window by window, and
/// [`WindowedSamples::append`] adds the next slice's windows.
#[derive(Debug, Clone)]
pub struct WindowedSamples {
    start: Instant,
    window_ns: u64,
    values: Vec<Vec<u32>>,
    amounts: Vec<f64>,
}

impl WindowedSamples {
    /// A recorder for one slice of `slice_s` seconds starting at `start`.
    pub fn new(start: Instant, slice_s: f64) -> WindowedSamples {
        WindowedSamples {
            start,
            window_ns: ((slice_s * 1e9) as u64 / WINDOWS_PER_SLICE as u64).max(1),
            values: vec![Vec::new(); WINDOWS_PER_SLICE],
            amounts: vec![0.0; WINDOWS_PER_SLICE],
        }
    }

    /// A recorder with no windows yet, to [`append`](Self::append)
    /// slices to.
    pub fn empty() -> WindowedSamples {
        WindowedSamples {
            start: Instant::now(),
            window_ns: 1,
            values: Vec::new(),
            amounts: Vec::new(),
        }
    }

    fn nanos_in(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_nanos() as u64
    }

    /// Record a call that took `nanos`, attributed to instant `at`:
    /// its completion for a closed loop, its *scheduled* arrival for
    /// an open loop. Calls attributed past the end of the slice are
    /// not recorded.
    pub fn record(&mut self, at: Instant, nanos: u64) {
        let w = (self.nanos_in(at) / self.window_ns) as usize;
        if w < self.values.len() && self.values[w].len() < MAX_WINDOW_SAMPLES {
            self.values[w].push(u32::try_from(nanos).unwrap_or(u32::MAX));
        }
    }

    /// Credit `amount` units of work (rows) done between `began` and
    /// `done` to the windows that interval overlaps, in proportion to
    /// the overlap: a call that straddles a window boundary counts
    /// partly on each side, so a window's rate does not jump by a
    /// whole call. Work done past the end of the slice is dropped.
    pub fn work(&mut self, began: Instant, done: Instant, amount: f64) {
        let (b, d) = (
            self.nanos_in(began),
            self.nanos_in(done).max(self.nanos_in(began) + 1),
        );
        let per_ns = amount / (d - b) as f64;
        let first = (b / self.window_ns) as usize;
        let last = (((d - 1) / self.window_ns) as usize).min(self.amounts.len().saturating_sub(1));
        for w in first..=last {
            let lo = b.max(w as u64 * self.window_ns);
            let hi = d.min((w as u64 + 1) * self.window_ns);
            self.amounts[w] += per_ns * hi.saturating_sub(lo) as f64;
        }
    }

    /// Fold another thread's recorder for the same slice into this one.
    pub fn merge(&mut self, other: WindowedSamples) {
        for (w, (values, amount)) in other.values.into_iter().zip(other.amounts).enumerate() {
            self.values[w].extend(values);
            self.amounts[w] += amount;
        }
    }

    /// Add the windows of the phase's next slice (of equal length).
    pub fn append(&mut self, next: WindowedSamples) {
        self.window_ns = next.window_ns;
        self.values.extend(next.values);
        self.amounts.extend(next.amounts);
    }

    /// Samples kept over all windows.
    pub fn count(&self) -> usize {
        self.values.iter().map(Vec::len).sum()
    }

    /// Work per second: the mean `amount / window length` of the
    /// [`BEST`] windows that got the most done.
    pub fn rate(&self) -> Stat {
        let secs = self.window_ns as f64 / 1e9;
        let mut rates: Vec<f64> = self.amounts.iter().map(|a| a / secs).collect();
        sort(&mut rates);
        let best = &rates[rates.len() - BEST.min(rates.len())..];
        Stat {
            value: best.iter().sum::<f64>() / best.len().max(1) as f64,
            spread: iqr_share_sorted(&rates, median_sorted(&rates)),
        }
    }

    /// The samples, pooled and sorted, of the [`BEST`] non-empty
    /// windows whose own `q`-quantile is lowest, in microseconds; and
    /// every non-empty window's `q`-quantile, sorted.
    fn best_windows_us(&self, q: f64) -> (Vec<f64>, Vec<f64>) {
        let mut windows: Vec<(f64, Vec<f64>)> = self
            .values
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| {
                let mut s: Vec<f64> = v.iter().map(|&n| f64::from(n) / 1e3).collect();
                sort(&mut s);
                (percentile_sorted(&s, q), s)
            })
            .collect();
        windows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite samples"));
        let quantiles = windows.iter().map(|w| w.0).collect();
        let mut pooled: Vec<f64> = windows.into_iter().take(BEST).flat_map(|w| w.1).collect();
        sort(&mut pooled);
        (pooled, quantiles)
    }

    /// The `q`-quantile of call time in microseconds, over the pooled
    /// samples of the windows where it was lowest.
    pub fn quantile_us(&self, q: f64) -> Stat {
        let (pooled, quantiles) = self.best_windows_us(q);
        Stat {
            value: percentile_sorted(&pooled, q),
            spread: iqr_share_sorted(&quantiles, median_sorted(&quantiles)),
        }
    }

    /// How many pooled samples lie strictly above the reported
    /// `q`-quantile: what a tail percentile rests on.
    pub fn samples_beyond(&self, q: f64) -> usize {
        let (pooled, _) = self.best_windows_us(q);
        let cut = percentile_sorted(&pooled, q);
        pooled.iter().filter(|&&v| v > cut).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 51.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(median_sorted(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median_sorted(&[1.0, 2.0, 4.0, 10.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles_sorted(&[3.0, 5.0]), (2.5, 5.5));
        assert_eq!(quartiles_sorted(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn stat_is_median_and_iqr_share() {
        let s = Stat::of(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!(s.value, 4.0);
        assert!((s.spread - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(Stat::of(&[]), Stat::exact(0.0));
    }

    /// Ten slices of 1 s, ten windows each; `fill(i, w)` records
    /// window `w` of slice `i`.
    fn phase(mut fill: impl FnMut(usize, Instant, &mut WindowedSamples)) -> WindowedSamples {
        let mut phase = WindowedSamples::empty();
        for slice in 0..10 {
            let start = Instant::now();
            let mut s = WindowedSamples::new(start, 1.0);
            for w in 0..WINDOWS_PER_SLICE {
                let at = start + Duration::from_millis(100 * w as u64 + 1);
                fill(slice * WINDOWS_PER_SLICE + w, at, &mut s);
            }
            // Past the end of the slice: dropped.
            s.record(start + Duration::from_secs(2), 1);
            s.work(
                start + Duration::from_secs(2),
                start + Duration::from_secs(3),
                1.0,
            );
            phase.append(s);
        }
        phase
    }

    #[test]
    fn best_windows_ignore_slow_stretches() {
        // 100 windows of 100 ms with ten calls each. Every window but
        // 40..50 is on a slow level: calls take 50x longer and half
        // the work gets done.
        let w = phase(|i, at, s| {
            let (nanos, rows) = if (40..50).contains(&i) {
                (1_000, 1.0)
            } else {
                (50_000, 0.5)
            };
            for _ in 0..10 {
                s.record(at, nanos);
                s.work(at - Duration::from_nanos(nanos), at, rows);
            }
        });
        assert_eq!(w.count(), 1_000);
        assert_eq!(w.rate().value, 100.0);
        assert_eq!(w.quantile_us(0.5).value, 1.0);
        assert_eq!(w.quantile_us(0.99).value, 1.0);
        assert_eq!(w.samples_beyond(0.99), 0);
        // The spread beside the value is the windows', slow ones included.
        assert_eq!(w.quantile_us(0.5).spread, 0.0);
        assert!((w.rate().spread - 0.0).abs() < 1e-12);
    }

    #[test]
    fn a_percentile_is_pooled_over_the_windows_where_it_was_lowest() {
        // Window i holds 20 calls of (100 - i) us; the first five
        // (slowest) windows also hold one call of 1 ms each.
        let w = phase(|i, at, s| {
            for _ in 0..20 {
                s.record(at, (100 - i as u64) * 1_000);
            }
            if i < 5 {
                s.record(at, 1_000_000);
            }
        });
        // By median the last BEST windows (1..=BEST us) are best.
        let p50 = w.quantile_us(0.5).value;
        assert!((1.0..=BEST as f64).contains(&p50), "{p50}");
        assert_eq!(w.samples_beyond(0.0), 20 * (BEST - 1));
        // So they are by their maximum: the 1 ms calls stay out of the pool.
        assert_eq!(w.quantile_us(1.0).value, BEST as f64);
        assert_eq!(w.samples_beyond(1.0), 0);
    }

    #[test]
    fn work_is_credited_in_proportion_to_overlap() {
        let start = Instant::now();
        let mut w = WindowedSamples::new(start, 1.0);
        // 100 rows between 50 ms and 250 ms: a quarter in window 0,
        // half in window 1, a quarter in window 2.
        w.work(
            start + Duration::from_millis(50),
            start + Duration::from_millis(250),
            100.0,
        );
        // 40 rows from 950 ms to 1050 ms: the half past the end is dropped.
        w.work(
            start + Duration::from_millis(950),
            start + Duration::from_millis(1050),
            40.0,
        );
        let mut got = w.amounts.clone();
        for a in &mut got {
            *a = (*a * 1e6).round() / 1e6;
        }
        assert_eq!(
            got,
            vec![25.0, 50.0, 25.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20.0]
        );
    }

    #[test]
    fn merge_adds_threads_window_by_window() {
        let start = Instant::now();
        let mut a = WindowedSamples::new(start, 1.0);
        let mut b = WindowedSamples::new(start, 1.0);
        a.record(start + Duration::from_millis(10), 2_000);
        a.work(start, start + Duration::from_millis(10), 1.0);
        b.record(start + Duration::from_millis(20), 4_000);
        b.work(
            start + Duration::from_millis(10),
            start + Duration::from_millis(20),
            3.0,
        );
        a.merge(b);
        assert_eq!(a.count(), 2);
        // One window of 0.1 s holding 4 rows, empty ones beside it.
        assert!((a.rate().value - 40.0 / BEST as f64).abs() < 1e-9);
        assert_eq!(a.quantile_us(1.0).value, 4.0);
        assert_eq!(WindowedSamples::empty().rate().value, 0.0);
    }
}
