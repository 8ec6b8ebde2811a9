//! The four workloads and their end-to-end (untraced) runs.
//!
//! Every run has the same shape: set up (several times over, for a
//! steady `setup_s`), check the outputs, then a closed-loop throughput
//! phase and a latency phase of `seconds / 2` each, run as alternating
//! slices of about a second.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use willump_graph::InputRow;
use willump_models::metrics;
use willump_serve::RuntimeClient;

use crate::loadgen::{self, Phase, SplitMix64};
use crate::setup::{self, err, Built, Pipeline, Requests, Res, Rig, N_TEST, TOP_K};
use crate::stats::Stat;

/// Open-loop arrival rate of the serve workloads, requests per second.
/// Calibrated on the 2-core reference host (see the README): a sixth
/// of `serve-remote`'s closed-loop single-row capacity, and low enough
/// that two senders are rarely still waiting for an answer when their
/// next request falls due.
pub const OPEN_LOOP_RATE: f64 = 2_000.0;
/// Load-generator threads (= processors of the reference host).
pub const SENDERS: usize = 2;
/// Rows per request in the serve workloads' throughput phase.
pub const BATCH_ROWS: usize = 32;
/// Row-at-a-time scores may differ from batch scores by summation
/// order only.
const ROW_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineToxic,
    TopkMusic,
    ServeLocal,
    ServeRemote,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineToxic,
        Workload::TopkMusic,
        Workload::ServeLocal,
        Workload::ServeRemote,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineToxic => "offline-toxic",
            Workload::TopkMusic => "topk-music",
            Workload::ServeLocal => "serve-local",
            Workload::ServeRemote => "serve-remote",
        }
    }

    pub fn parse(name: &str) -> Res<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// How long to measure and how often to set up.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Measured seconds, split evenly between the two phases.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Params {
    pub fn phase_s(&self) -> f64 {
        self.seconds / 2.0
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Stat>,
    /// Operations issued, over the checks and both phases.
    pub attempted: u64,
    /// Errors plus wrong answers among them.
    pub failed: u64,
    /// Sample counts and validity figures printed beside the metrics.
    pub notes: BTreeMap<String, f64>,
}

impl Outcome {
    /// An outcome that so far holds the set-up's output checks.
    pub fn checked(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    pub fn put(&mut self, name: &str, stat: Stat) {
        self.metrics.insert(name.to_string(), stat);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }

    /// Fold both phases and the run-wide figures in.
    fn finish(&mut self, throughput: &Phase, latency: &Phase, setup: Stat, quality: f64) {
        for phase in [throughput, latency] {
            self.attempted += phase.attempted;
            self.failed += phase.failed;
        }
        self.put("rows_per_s", throughput.calls.rate());
        self.note("throughput_calls", throughput.calls.count() as f64);
        self.put("latency_p50_us", latency.calls.quantile_us(0.50));
        self.put("latency_p95_us", latency.calls.quantile_us(0.95));
        self.note("latency_samples", latency.calls.count() as f64);
        self.note(
            "latency_samples_beyond_p95",
            latency.calls.samples_beyond(0.95) as f64,
        );
        // Printed for the reader, not bounded: on `offline-toxic` it
        // sits on a cliff (see the README).
        self.note("latency_p99_us", latency.calls.quantile_us(0.99).value);
        self.put("setup_s", setup);
        self.put("quality", Stat::exact(quality));
        self.put(
            "ok_share",
            Stat::exact(1.0 - self.failed as f64 / self.attempted.max(1) as f64),
        );
        self.put("peak_rss_mb", Stat::exact(peak_rss_mb()));
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time a run's set-ups should span, per set-up asked for. The
/// music set-up takes 0.1 s; five of them back to back sit on one of
/// the host's speed levels, and their median moved by 20 % between
/// sets of ten runs. Spread over 3 s it sees several.
const SETUP_SPAN_S: f64 = 0.6;

/// Set up at least `params.setups` times and until the set-ups span
/// [`SETUP_SPAN_S`] each (at most five times as often); keep the last
/// set-up and report the median time. A set-up returns its state and
/// an outcome holding the counts of the output checks it ran.
fn set_up<T>(
    params: &Params,
    mut one: impl FnMut() -> Res<(T, Outcome)>,
) -> Res<(T, Outcome, Stat)> {
    let (least, most) = (params.setups.max(1), 5 * params.setups.max(1));
    let span = Duration::from_secs_f64(SETUP_SPAN_S * least as f64);
    let began = Instant::now();
    let mut times = Vec::with_capacity(most);
    let mut last = None;
    while times.len() < least || (times.len() < most && began.elapsed() < span) {
        // Tear the previous set-up down first: a rig holds threads
        // and a socket, and two at once would inflate `peak_rss_mb`.
        drop(last.take());
        let started = Instant::now();
        last = Some(one()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let (state, checks) = last.expect("at least one set-up");
    Ok((state, checks, Stat::of(&times)))
}

// ---- offline-toxic --------------------------------------------------

/// The toxic cascade called in-process, ready to time.
pub struct OfflineToxic {
    pub built: Built,
    pub inputs: Vec<InputRow>,
    /// `run_batch` scores of the test table.
    pub reference: Vec<f64>,
}

impl OfflineToxic {
    pub fn set_up(seed: u64) -> Res<(OfflineToxic, Outcome)> {
        let (built, reference, mut failed) = setup::build_toxic(seed)?;
        let test = &built.workload.test;
        let inputs = (0..test.n_rows())
            .map(|r| InputRow::from_table(test, r).map_err(err))
            .collect::<Res<Vec<_>>>()?;
        // Warms the row path and checks it against the batch path.
        for (input, want) in inputs.iter().zip(&reference) {
            let got = built.plan.run_one(input).map_err(err)?.score;
            failed += u64::from((got - want).abs() > ROW_TOLERANCE);
        }
        let attempted = (reference.len() + inputs.len()) as u64;
        Ok((
            OfflineToxic {
                built,
                inputs,
                reference,
            },
            Outcome::checked(attempted, failed),
        ))
    }

    /// Closed loop, one caller: `run_batch` over the test table.
    pub fn throughput_slice(&self, seconds: f64) -> Phase {
        loadgen::closed_loop(seconds, 1, |_, _| self.batch_call())
    }

    /// Closed loop, one caller: `run_one` per input, walking the table.
    pub fn latency_slice(&self, seconds: f64) -> Phase {
        loadgen::closed_loop(seconds, 1, |_, n| self.row_call(n))
    }

    /// `run_batch` over the test table: the rows scored, or `None` on
    /// a wrong or failed answer.
    pub fn batch_call(&self) -> Option<usize> {
        self.built
            .plan
            .run_batch(&self.built.workload.test)
            .is_ok_and(|out| out.scores == self.reference)
            .then_some(N_TEST)
    }

    pub fn row_call(&self, i: usize) -> Option<usize> {
        let r = i % self.inputs.len();
        self.built
            .plan
            .run_one(&self.inputs[r])
            .is_ok_and(|out| (out.score - self.reference[r]).abs() <= ROW_TOLERANCE)
            .then_some(1)
    }

    pub fn quality(&self) -> f64 {
        metrics::accuracy(&self.reference, &self.built.workload.test_y)
    }
}

fn run_offline_toxic(params: &Params) -> Res<Outcome> {
    let (w, mut out, setup) = set_up(params, || OfflineToxic::set_up(params.seed))?;
    let (throughput, latency) = loadgen::interleaved(
        params.phase_s(),
        |seconds, _| w.throughput_slice(seconds),
        |seconds, _| w.latency_slice(seconds),
    );
    out.finish(&throughput, &latency, setup, w.quality());
    Ok(out)
}

// ---- topk-music -----------------------------------------------------

/// The music top-K filter called in-process, ready to time.
pub struct TopkMusic {
    pub built: Built,
    /// `top_k` ranking of the test table.
    pub reference: Vec<usize>,
    /// Full-model scores of every candidate (the exact ranking's basis).
    pub full_scores: Vec<f64>,
}

impl TopkMusic {
    pub fn set_up(seed: u64) -> Res<(TopkMusic, Outcome)> {
        let built = setup::build(Pipeline::MusicTopK, seed)?;
        let test = &built.workload.test;
        let (reference, _) = built.plan.top_k(test, TOP_K).map_err(err)?;
        let expected = setup::replay_top_k(&built.plan, test, TOP_K)?;
        let failed = u64::from(reference != expected);
        let feats = built
            .plan
            .executor()
            .features_batch(test, None)
            .map_err(err)?;
        let full_scores = built.plan.full_model().predict_scores(&feats);
        let w = TopkMusic {
            built,
            reference,
            full_scores,
        };
        let warm = (0..3).filter(|_| w.call().is_none()).count() as u64;
        Ok((w, Outcome::checked(4, failed + warm)))
    }

    /// Closed loop, one caller: `top_k` over the candidate table. Both
    /// phases time this same call.
    pub fn slice(&self, seconds: f64) -> Phase {
        loadgen::closed_loop(seconds, 1, |_, _| self.call())
    }

    /// `top_k` over the candidate table: the candidates ranked, or
    /// `None` on a wrong or failed answer.
    pub fn call(&self) -> Option<usize> {
        self.built
            .plan
            .top_k(&self.built.workload.test, TOP_K)
            .is_ok_and(|(ranked, _)| ranked == self.reference)
            .then_some(N_TEST)
    }

    fn exact(&self) -> Vec<usize> {
        metrics::top_k_indices(&self.full_scores, TOP_K)
    }

    /// Mean full-model score of the returned top K over that of the
    /// exact top K (paper Table 4's "average value", as a ratio).
    /// Precision@K moves in steps of 1/K and by tenths between seeds,
    /// so it is reported as a per-layer count instead.
    pub fn quality(&self) -> f64 {
        metrics::average_value(&self.reference, &self.full_scores)
            / metrics::average_value(&self.exact(), &self.full_scores)
    }

    pub fn precision(&self) -> f64 {
        metrics::precision_at_k(&self.reference, &self.exact())
    }
}

fn run_topk_music(params: &Params) -> Res<Outcome> {
    let (w, mut out, setup) = set_up(params, || TopkMusic::set_up(params.seed))?;
    let (throughput, latency) = loadgen::interleaved(
        params.phase_s(),
        |seconds, _| w.slice(seconds),
        |seconds, _| w.slice(seconds),
    );
    out.note("precision_at_k", w.precision());
    out.finish(&throughput, &latency, setup, w.quality());
    Ok(out)
}

// ---- serve-local / serve-remote ---------------------------------------

/// The toxic cascade behind a `ServingRuntime`, ready to time.
pub struct Serve {
    // Clients and rig before the plan they serve: drop order.
    pub clients: Vec<RuntimeClient>,
    pub rig: Rig,
    pub requests: Requests,
    pub built: Built,
}

impl Serve {
    pub fn set_up(seed: u64, remote: bool) -> Res<(Serve, Outcome)> {
        let (built, reference, mut failed) = setup::build_toxic(seed)?;
        let requests = Requests::new(&built.workload.test, reference)?;
        let rig = if remote {
            Rig::remote(&built.plan)?
        } else {
            Rig::local(&built.plan)?
        };
        let clients: Vec<_> = (0..SENDERS).map(|_| rig.runtime.client()).collect();
        // Warm both request shapes on both clients; every answer is
        // checked against `run_batch`.
        let (singles, batches) = (200, 20);
        for i in 0..singles {
            failed += u64::from(!requests.call(&clients[i % SENDERS], i, 1));
        }
        for i in 0..batches {
            failed += u64::from(!requests.call(&clients[i % SENDERS], i * BATCH_ROWS, BATCH_ROWS));
        }
        let attempted = (requests.len() + singles + batches) as u64;
        Ok((
            Serve {
                clients,
                rig,
                requests,
                built,
            },
            Outcome::checked(attempted, failed),
        ))
    }

    /// Closed loop: every sender keeps one `BATCH_ROWS`-row request in
    /// flight; consecutive requests walk the test table.
    pub fn throughput_slice(&self, seconds: f64) -> Phase {
        loadgen::closed_loop(seconds, SENDERS, |client, n| {
            let first = (n * SENDERS + client) * BATCH_ROWS;
            self.requests
                .call(&self.clients[client], first, BATCH_ROWS)
                .then_some(BATCH_ROWS)
        })
    }

    /// Open loop: single-row requests on a Poisson schedule at
    /// [`OPEN_LOOP_RATE`]; schedule and rows are drawn from `seed`
    /// (the run's seed and the slice number). `call(sender, row)`
    /// issues the request for test row `row` from sender `sender`.
    pub fn open_slice(
        &self,
        seconds: f64,
        seed: u64,
        call: impl Fn(usize, usize) -> bool + Sync,
    ) -> Phase {
        let schedule = loadgen::poisson_schedule(OPEN_LOOP_RATE, seconds, seed);
        let mut rng = SplitMix64(seed ^ 0x524F_5753); // "ROWS"
        let rows: Vec<usize> = schedule
            .iter()
            .map(|_| (rng.next_u64() % self.requests.len() as u64) as usize)
            .collect();
        // Senders take arrivals round-robin: arrival `i` is always
        // sent by sender `i % SENDERS`.
        loadgen::open_loop(&schedule, seconds, SENDERS, |i| call(i % SENDERS, rows[i]))
    }

    /// The latency phase: [`open_slice`](Self::open_slice) through
    /// the runtime clients talk to, one client per sender.
    pub fn latency_slice(&self, seconds: f64, seed: u64) -> Phase {
        self.open_slice(seconds, seed, |sender, row| {
            self.requests.call(&self.clients[sender], row, 1)
        })
    }

    pub fn quality(&self) -> f64 {
        metrics::accuracy(&self.requests.reference, &self.built.workload.test_y)
    }
}

/// Median generator lag over median latency: above 0.2 the run
/// measured the load generator and is flagged invalid.
pub const MAX_LAG_SHARE: f64 = 0.2;

/// The seed of slice `slice`'s arrivals in a run seeded `seed`.
pub fn slice_seed(seed: u64, slice: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(slice as u64)
}

/// Median generator lag as a share of median latency.
pub fn lag_share(latency: &Phase) -> f64 {
    latency.lag.quantile_us(0.5).value / latency.calls.quantile_us(0.5).value
}

fn run_serve(params: &Params, remote: bool) -> Res<Outcome> {
    let (w, mut out, setup) = set_up(params, || Serve::set_up(params.seed, remote))?;
    let (throughput, latency) = loadgen::interleaved(
        params.phase_s(),
        |seconds, _| w.throughput_slice(seconds),
        |seconds, slice| w.latency_slice(seconds, slice_seed(params.seed, slice)),
    );
    let lag = lag_share(&latency);
    out.note("loadgen_lag_share", lag);
    out.note("valid", f64::from(u8::from(lag <= MAX_LAG_SHARE)));
    out.finish(&throughput, &latency, setup, w.quality());
    Ok(out)
}

/// Run one workload end to end with tracing off.
pub fn run(workload: Workload, params: &Params) -> Res<Outcome> {
    match workload {
        Workload::OfflineToxic => run_offline_toxic(params),
        Workload::TopkMusic => run_topk_music(params),
        Workload::ServeLocal => run_serve(params, false),
        Workload::ServeRemote => run_serve(params, true),
    }
}
