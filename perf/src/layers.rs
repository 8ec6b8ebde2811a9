//! The traced run: per-layer numbers, all taken from outside.
//!
//! Each section below times calls into one layer's public functions
//! from this file, inside a span named `layer.function`. Counts come
//! from the public snapshots (`PlanCounters`, `ServerStats`,
//! `TransportStats`, `StoreStats`) as deltas around a phase, and
//! allocation counts from the counting allocator. A layer a workload
//! does not execute keeps its metrics at 0 for that workload.
//!
//! The measured `seconds` are divided among the sections as the
//! fractions written at each call site; they sum to about 0.9.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use willump::{PlanCountersSnapshot, ServingPlan};
use willump_data::Table;
use willump_featurize::{Analyzer, StoreJoin, TfIdfVectorizer, VectorizerConfig};
use willump_models::metrics;
use willump_serve::{
    wire2, RemoteRuntimeNode, RemoteWorker, Request, Response, RuntimeClient, TransportStats,
    WorkerTransport,
};
use willump_store::Key;

use crate::alloc;
use crate::loadgen;
use crate::setup::{err, score_mismatches, Built, Res, ENDPOINT, N_TEST, TOP_K};
use crate::stats::{self, Stat};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    slice_seed, OfflineToxic, Outcome, Params, Serve, TopkMusic, Workload, BATCH_ROWS, SENDERS,
};

/// Spans one section records at most: bounds the trace file, not the
/// measurement (2 000 calls pin a median well).
const MAX_SECTION_CALLS: usize = 2_000;
/// Residual share above which a closure check is flagged.
pub const CLOSURE_TOLERANCE: f64 = 0.15;

const CHECKED: &str = "this call succeeded on these inputs during the set-up checks";

/// What a traced run reports: per-layer metrics and the spans behind them.
pub struct Traced {
    pub outcome: Outcome,
    pub spans: Vec<Span>,
}

/// Call `f(n)` back to back, each inside a span called `name`, for
/// `seconds` (at least 3 and at most [`MAX_SECTION_CALLS`] calls).
/// Returns the median call time in microseconds.
fn section<T>(
    tracer: &mut Tracer,
    name: &'static str,
    seconds: f64,
    mut f: impl FnMut(usize) -> T,
) -> f64 {
    let first = tracer.spans().len();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0;
    while n < MAX_SECTION_CALLS && (n < 3 || Instant::now() < end) {
        tracer.span(name, n as u64, |_| black_box(f(n)));
        n += 1;
    }
    trace::p50_us(&tracer.spans()[first..], name)
}

/// Median nanoseconds per call of a sub-microsecond `f`, timed in
/// chunks of 64 calls (a clock read per call would be most of it).
fn nanos_per_call<T>(seconds: f64, mut f: impl FnMut() -> T) -> f64 {
    const CHUNK: u32 = 64;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut chunks = Vec::new();
    while chunks.len() < 3 || Instant::now() < end {
        let started = Instant::now();
        for _ in 0..CHUNK {
            black_box(f());
        }
        chunks.push(started.elapsed().as_nanos() as f64 / f64::from(CHUNK));
    }
    stats::sort(&mut chunks);
    stats::median_sorted(&chunks)
}

fn put(out: &mut Outcome, name: &str, value: f64) {
    out.put(name, Stat::exact(value));
}

fn puts(out: &mut Outcome, metrics: &[(&str, f64)]) {
    for &(name, value) in metrics {
        put(out, name, value);
    }
}

/// `optimize.*`: what set-up cost, and the full-model training inside
/// it replayed through the public functions `optimize` itself calls.
fn optimize_metrics(out: &mut Outcome, tracer: &mut Tracer, built: &Built, seed: u64) -> Res<()> {
    let w = &built.workload;
    let started = Instant::now();
    tracer
        .span("optimize.train", 0, |_| {
            let feats = built
                .plan
                .executor()
                .features_batch(&w.train, None)
                .map_err(err)?;
            w.pipeline.spec().fit(&feats, &w.train_y, seed).map_err(err)
        })
        .map(black_box)?;
    put(out, "optimize.train_s", started.elapsed().as_secs_f64());
    put(out, "optimize.generate_s", built.generate_s);
    put(out, "optimize.optimize_s", built.optimize_s);
    Ok(())
}

fn counter_shares(
    out: &mut Outcome,
    before: PlanCountersSnapshot,
    after: PlanCountersSnapshot,
    has_filter: bool,
) {
    let rows = (after.rows - before.rows).max(1) as f64;
    put(
        out,
        "plan.escalation_rate",
        (after.escalated - before.escalated) as f64 / rows,
    );
    put(
        out,
        "plan.gate_resolved_share",
        (after.gate_resolved - before.gate_resolved) as f64 / rows,
    );
    if has_filter {
        let dropped = (after.filter_dropped - before.filter_dropped) as f64;
        put(out, "plan.filter_kept_share", 1.0 - dropped / rows);
    }
}

/// How a plan call's median time splits over its hand replay.
///
/// Returns `(self_share, residual_share)`. `self_share` is what the
/// plan spends on itself — gating, narrowing rows, merging feature
/// blocks, copying: the share of the `whole` span's median that the
/// replayed `layers` calls do not account for. The harness's own
/// gating and narrowing (`harness` spans) stands in for the plan's;
/// `residual_share` is what is still unexplained after that, as an
/// absolute share of the whole.
fn closure_shares(spans: &[Span], whole: &str, layers: &[&str], harness: &[&str]) -> (f64, f64) {
    let sum = |names: &[&str]| names.iter().map(|n| trace::p50_us(spans, n)).sum::<f64>();
    let whole_us = trace::p50_us(spans, whole);
    let layers_us = sum(layers);
    (
        1.0 - layers_us / whole_us,
        (whole_us - layers_us - sum(harness)).abs() / whole_us,
    )
}

/// The replayed layer calls of one request, in both offline workloads.
const REPLAYED_LAYERS: [&str; 4] = [
    "graph.features_batch.efficient",
    "models.predict_scores.small",
    "graph.features_batch.escalated",
    "models.predict_scores.escalated",
];

/// The in-process layer sections both offline workloads share:
/// `graph.*`, `models.*`, `plan.*` timings, allocations, closure.
struct InProcess<'a> {
    plan: &'a ServingPlan,
    test: &'a Table,
    /// Span of the plan call being explained.
    plan_span: &'static str,
    /// Spans of the harness's stand-in for the plan's own work.
    harness_spans: &'a [&'static str],
}

impl InProcess<'_> {
    fn measure(
        &self,
        out: &mut Outcome,
        tracer: &mut Tracer,
        seconds: f64,
        call: impl Fn() -> bool,
    ) -> Res<()> {
        let (plan, test, exec) = (self.plan, self.test, self.plan.executor());
        let efficient = plan.efficient_set().ok_or("plan has no efficient set")?;
        let per_row = N_TEST as f64;

        let full_us = section(tracer, "graph.features_batch.all", 0.1 * seconds, |_| {
            exec.features_batch(test, None).expect(CHECKED)
        });
        let full_feats = exec.features_batch(test, None).map_err(err)?;
        let full_predict_us = section(tracer, "models.predict_scores.all", 0.05 * seconds, |_| {
            plan.full_model().predict_scores(&full_feats)
        });
        let inputs: Vec<_> = (0..test.n_rows())
            .map(|r| willump_graph::InputRow::from_table(test, r).map_err(err))
            .collect::<Res<_>>()?;
        let one_us = section(tracer, "graph.features_one", 0.05 * seconds, |n| {
            exec.features_one(&inputs[n % inputs.len()], Some(efficient))
                .expect(CHECKED)
        });
        let run_one_us = section(tracer, "plan.run_one", 0.1 * seconds, |n| {
            plan.run_one(&inputs[n % inputs.len()]).expect(CHECKED)
        });

        let spans = tracer.spans();
        let efficient_us = trace::p50_us(spans, "graph.features_batch.efficient");
        let plan_us = trace::p50_us(spans, self.plan_span);
        let (self_share, residual_share) =
            closure_shares(spans, self.plan_span, &REPLAYED_LAYERS, self.harness_spans);
        put(
            out,
            "graph.features_efficient_us_per_row",
            efficient_us / per_row,
        );
        put(out, "graph.features_full_us_per_row", full_us / per_row);
        put(out, "graph.features_one_us", one_us);
        put(out, "graph.efficient_cost_share", efficient_us / full_us);
        put(
            out,
            "models.small_predict_us_per_row",
            trace::p50_us(spans, "models.predict_scores.small") / per_row,
        );
        put(
            out,
            "models.full_predict_us_per_row",
            full_predict_us / per_row,
        );
        put(out, "plan.run_batch_us_per_row", plan_us / per_row);
        put(out, "plan.run_one_us", run_one_us);
        put(out, "plan.self_share", self_share);
        put(out, "closure.offline_residual_share", residual_share);

        let calls = 3;
        let (ok, allocs, bytes) = alloc::counted(|| (0..calls).all(|_| call()));
        if !ok {
            return Err("a plan call failed while counting allocations".into());
        }
        let rows = (calls * N_TEST) as f64;
        put(out, "plan.allocs_per_row", allocs as f64 / rows);
        put(out, "plan.alloc_bytes_per_row", bytes as f64 / rows);
        Ok(())
    }
}

/// `trace.overhead_share`: closed-loop throughput with a span around
/// every call against the same loop without, in alternating slices.
/// Each caller records into a tracer of its own.
fn overhead(
    out: &mut Outcome,
    tracer: &mut Tracer,
    seconds: f64,
    clients: usize,
    name: &'static str,
    call: impl Fn(usize, usize) -> Option<usize> + Sync,
) {
    const PANICKED: &str = "a caller panicked inside a span";
    let tracers: Vec<Mutex<Tracer>> = (0..clients)
        .map(|_| Mutex::new(Tracer::new(tracer.epoch())))
        .collect();
    let (untraced, traced) = loadgen::interleaved(
        0.15 * seconds,
        |slice_s, _| loadgen::closed_loop(slice_s, clients, &call),
        |slice_s, _| {
            loadgen::closed_loop(slice_s, clients, |client, n| {
                tracers[client]
                    .lock()
                    .expect(PANICKED)
                    .span(name, n as u64, |_| call(client, n))
            })
        },
    );
    for t in tracers {
        tracer.absorb(t.into_inner().expect(PANICKED));
    }
    out.attempted += untraced.attempted + traced.attempted;
    out.failed += untraced.failed + traced.failed;
    put(
        out,
        "trace.overhead_share",
        1.0 - traced.calls.rate().value / untraced.calls.rate().value,
    );
}

fn trace_offline_toxic(params: &Params, tracer: &mut Tracer) -> Res<Outcome> {
    let (w, mut out) = OfflineToxic::set_up(params.seed)?;
    let (plan, test) = (&w.built.plan, &w.built.workload.test);
    let seconds = params.seconds;
    optimize_metrics(&mut out, tracer, &w.built, params.seed)?;
    overhead(
        &mut out,
        tracer,
        seconds,
        1,
        "plan.run_batch.loop",
        |_, _| w.batch_call(),
    );

    // One request = the plan call, then its hand replay layer by layer.
    let (exec, full) = (plan.executor(), plan.full_model());
    let small = plan
        .small_model()
        .ok_or("cascade plan has no small model")?;
    let efficient = plan
        .efficient_set()
        .ok_or("cascade plan has no efficient set")?;
    let threshold = plan.threshold().ok_or("cascade plan has no threshold")?;
    let before = plan.counters().snapshot();
    let end = Instant::now() + Duration::from_secs_f64(0.2 * seconds);
    let mut request = 0;
    while request < 3 || (Instant::now() < end && (request as usize) < MAX_SECTION_CALLS) {
        tracer.span("request", request, |t| {
            t.span("plan.run_batch", request, |_| {
                black_box(plan.run_batch(test).expect(CHECKED))
            });
            t.span("replay", request, |t| {
                let feats = t.span("graph.features_batch.efficient", request, |_| {
                    exec.features_batch(test, Some(efficient)).expect(CHECKED)
                });
                let scores = t.span("models.predict_scores.small", request, |_| {
                    small.predict_scores(&feats)
                });
                let (escalated, sub) = t.span("harness.gate", request, |_| {
                    let escalated: Vec<usize> = (0..scores.len())
                        .filter(|&r| scores[r].max(1.0 - scores[r]) <= threshold)
                        .collect();
                    let sub = test.take_rows(&escalated);
                    (escalated, sub)
                });
                if !escalated.is_empty() {
                    let feats = t.span("graph.features_batch.escalated", request, |_| {
                        exec.features_batch(&sub, None).expect(CHECKED)
                    });
                    t.span("models.predict_scores.escalated", request, |_| {
                        black_box(full.predict_scores(&feats))
                    });
                }
            });
        });
        request += 1;
    }
    // Counters moved by `run_batch` only: the replay never enters the plan.
    counter_shares(&mut out, before, plan.counters().snapshot(), false);

    let docs = |t: &Table| -> Res<Vec<std::sync::Arc<str>>> {
        Ok(t.column("comment")
            .and_then(|c| c.as_str_slice())
            .ok_or("toxic table has no `comment` text column")?
            .to_vec())
    };
    // The pipeline's expensive generator, fitted by the harness with
    // the workload's own settings (crates/workloads/src/toxic.rs).
    let mut tfidf = TfIdfVectorizer::new(VectorizerConfig {
        analyzer: Analyzer::Char,
        ngram_lo: 3,
        ngram_hi: 5,
        min_df: 5,
        max_features: Some(30_000),
        sublinear_tf: true,
        ..VectorizerConfig::default()
    })
    .map_err(err)?;
    tfidf.fit(&docs(&w.built.workload.train)?);
    let test_docs = docs(test)?;
    let tfidf_us = section(tracer, "featurize.tfidf.transform", 0.1 * seconds, |_| {
        tfidf.transform(&test_docs).expect(CHECKED)
    });
    put(
        &mut out,
        "featurize.tfidf_us_per_doc",
        tfidf_us / N_TEST as f64,
    );

    InProcess {
        plan,
        test,
        plan_span: "plan.run_batch",
        harness_spans: &["harness.gate"],
    }
    .measure(&mut out, tracer, seconds, || w.batch_call().is_some())?;
    Ok(out)
}

fn trace_topk_music(params: &Params, tracer: &mut Tracer) -> Res<Outcome> {
    let (w, mut out) = TopkMusic::set_up(params.seed)?;
    let (plan, test) = (&w.built.plan, &w.built.workload.test);
    let seconds = params.seconds;
    optimize_metrics(&mut out, tracer, &w.built, params.seed)?;
    overhead(&mut out, tracer, seconds, 1, "plan.top_k.loop", |_, _| {
        w.call()
    });

    let (exec, full) = (plan.executor(), plan.full_model());
    let filter = plan
        .small_model()
        .ok_or("filter plan has no filter model")?;
    let efficient = plan
        .efficient_set()
        .ok_or("filter plan has no efficient set")?;
    let config = plan.topk_config().ok_or("filter plan has no top-K stage")?;
    let keep = (config.ck * TOP_K)
        .max((config.min_subset_frac * N_TEST as f64).ceil() as usize)
        .min(N_TEST);
    let store = w
        .built
        .workload
        .store
        .clone()
        .ok_or("music workload has no store")?;
    // Store traffic of one query, read around a call of its own: the
    // replay below makes lookups too.
    let (keys, trips) = (store.stats().keys_fetched(), store.stats().round_trips());
    plan.top_k(test, TOP_K).map_err(err)?;
    put(
        &mut out,
        "store.keys_per_row",
        (store.stats().keys_fetched() - keys) as f64 / N_TEST as f64,
    );
    put(
        &mut out,
        "store.round_trips_per_query",
        (store.stats().round_trips() - trips) as f64,
    );

    let before = plan.counters().snapshot();
    let end = Instant::now() + Duration::from_secs_f64(0.2 * seconds);
    let mut request = 0;
    while request < 3 || (Instant::now() < end && (request as usize) < MAX_SECTION_CALLS) {
        tracer.span("request", request, |t| {
            t.span("plan.top_k", request, |_| {
                black_box(plan.top_k(test, TOP_K).expect(CHECKED))
            });
            t.span("replay", request, |t| {
                let feats = t.span("graph.features_batch.efficient", request, |_| {
                    exec.features_batch(test, Some(efficient)).expect(CHECKED)
                });
                let scores = t.span("models.predict_scores.small", request, |_| {
                    filter.predict_scores(&feats)
                });
                let (kept, sub) = t.span("harness.filter", request, |_| {
                    let kept = metrics::top_k_indices(&scores, keep);
                    let sub = test.take_rows(&kept);
                    (kept, sub)
                });
                let feats = t.span("graph.features_batch.escalated", request, |_| {
                    exec.features_batch(&sub, None).expect(CHECKED)
                });
                let scores = t.span("models.predict_scores.escalated", request, |_| {
                    full.predict_scores(&feats)
                });
                t.span("harness.rank", request, |_| {
                    black_box(
                        metrics::top_k_indices(&scores, TOP_K.min(kept.len()))
                            .into_iter()
                            .map(|p| kept[p])
                            .collect::<Vec<_>>(),
                    )
                });
            });
        });
        request += 1;
    }
    counter_shares(&mut out, before, plan.counters().snapshot(), true);
    put(&mut out, "plan.topk_precision", w.precision());

    // One of the pipeline's five lookup joins, called directly.
    let keys: Vec<Key> = test
        .column("user_id")
        .and_then(|c| c.as_i64_slice())
        .ok_or("music table has no integer `user_id` column")?
        .iter()
        .map(|&id| Key::Int(id))
        .collect();
    let join = StoreJoin::new(store.clone(), "user_latent").map_err(err)?;
    let join_us = section(tracer, "featurize.join_batch", 0.05 * seconds, |_| {
        join.join_batch(&keys).expect(CHECKED)
    });
    put(
        &mut out,
        "featurize.join_us_per_row",
        join_us / keys.len() as f64,
    );
    let get_us = section(tracer, "store.get_batch", 0.05 * seconds, |_| {
        store.get_batch("user_latent", &keys).expect(CHECKED)
    });
    put(
        &mut out,
        "store.get_batch_us_per_key",
        get_us / keys.len() as f64,
    );

    InProcess {
        plan,
        test,
        plan_span: "plan.top_k",
        harness_spans: &["harness.filter", "harness.rank"],
    }
    .measure(&mut out, tracer, seconds, || w.call().is_some())?;
    Ok(out)
}

/// `wire2.*` for a frame of `rows` rows (`suffix` = `r1` / `r32`).
/// Returns the codec's total per request/response exchange, microseconds.
fn wire2_metrics(
    out: &mut Outcome,
    tracer: &mut Tracer,
    w: &Serve,
    rows: usize,
    suffix: &str,
    seconds: f64,
) -> Res<f64> {
    let request = forwarding_frame(w, 1, 0, rows);
    let response = Response {
        id: 1,
        scores: w.requests.reference[..rows].to_vec(),
        error: None,
        endpoint: Some(ENDPOINT.to_string()),
        version: Some(1),
        counters: None,
        degraded: false,
        overloaded: false,
    };
    let request_bytes = wire2::encode_request_payload(&request);
    let response_bytes = wire2::encode_response_payload(&response);
    if wire2::decode_request_payload(&request_bytes).map_err(err)? != request
        || wire2::decode_response_payload(&response_bytes).map_err(err)? != response
    {
        return Err(format!("wire2 does not round-trip a {rows}-row frame"));
    }
    let share = seconds / 4.0;
    let (enc_req, dec_req, enc_resp, dec_resp) = tracer.span("wire2.codec", rows as u64, |_| {
        (
            nanos_per_call(share, || wire2::encode_request_payload(&request)),
            nanos_per_call(share, || wire2::decode_request_payload(&request_bytes)),
            nanos_per_call(share, || wire2::encode_response_payload(&response)),
            nanos_per_call(share, || wire2::decode_response_payload(&response_bytes)),
        )
    });
    let exchanges = 100;
    let (_, allocs, _) = alloc::counted(|| {
        for _ in 0..exchanges {
            black_box(wire2::decode_request_payload(&wire2::encode_request_payload(&request)).ok());
            black_box(
                wire2::decode_response_payload(&wire2::encode_response_payload(&response)).ok(),
            );
        }
    });
    for (name, value) in [
        ("encode_request_ns", enc_req),
        ("decode_request_ns", dec_req),
        ("encode_response_ns", enc_resp),
        ("decode_response_ns", dec_resp),
        ("request_bytes", request_bytes.len() as f64),
        ("response_bytes", response_bytes.len() as f64),
        // Two frames (request, response) per exchange.
        ("allocs_per_frame", allocs as f64 / (2 * exchanges) as f64),
    ] {
        put(out, &format!("wire2.{name}.{suffix}"), value);
    }
    Ok((enc_req + dec_req + enc_resp + dec_resp) / 1e3)
}

/// The frame a parent runtime forwards for rows `first..first + len`:
/// endpoint and version pinned, loop guard set.
fn forwarding_frame(w: &Serve, id: u64, first: usize, len: usize) -> Request {
    Request {
        id,
        rows: w.requests.batch(first, len),
        endpoint: Some(ENDPOINT.to_string()),
        version: Some(1),
        key: Some(first.to_string()),
        forwarded: true,
        control: None,
    }
}

/// One single-row call through the runtime that executes the plan,
/// back to back, against the plan called directly on the same rows.
/// Returns `(runtime.call_us_p50, runtime.overhead_us)`.
fn runtime_metrics(out: &mut Outcome, tracer: &mut Tracer, w: &Serve, seconds: f64) -> (f64, f64) {
    let executing = w.rig.executing_runtime().client();
    let (mut asked, mut wrong) = (0u64, 0u64);
    let call_us = section(tracer, "runtime.predict_keyed", 0.1 * seconds, |n| {
        asked += 1;
        wrong += u64::from(!w.requests.call(&executing, n, 1));
    });
    let test = &w.built.workload.test;
    let singles: Vec<Table> = (0..MAX_SECTION_CALLS)
        .map(|n| test.take_rows(&[n % N_TEST]))
        .collect();
    let direct_us = section(tracer, "plan.run_batch.r1", 0.05 * seconds, |n| {
        w.built.plan.run_batch(&singles[n]).expect(CHECKED)
    });
    let calls = 200;
    let (bad, allocs, _) = alloc::counted(|| {
        (0..calls)
            .filter(|&n| !w.requests.call(&executing, n, 1))
            .count()
    });
    out.attempted += asked + calls as u64;
    out.failed += wrong + bad as u64;
    out.note("plan_run_batch_r1_us", direct_us);
    puts(
        out,
        &[
            ("runtime.call_us_p50", call_us),
            ("runtime.overhead_us", call_us - direct_us),
            ("runtime.allocs_per_request", allocs as f64 / calls as f64),
        ],
    );
    (call_us, call_us - direct_us)
}

/// `wire2.*` and the timing half of `remote.*`: what sits between the
/// parent and the node's runtime. Returns `remote.forward_us_p50`.
fn remote_metrics(
    out: &mut Outcome,
    tracer: &mut Tracer,
    w: &Serve,
    node: &RemoteRuntimeNode,
    params: &Params,
    call_us: f64,
) -> Res<f64> {
    let seconds = params.seconds;
    let codec_us = wire2_metrics(out, tracer, w, 1, "r1", 0.05 * seconds)?;
    wire2_metrics(out, tracer, w, BATCH_ROWS, "r32", 0.05 * seconds)?;

    // A transport of the harness's own, straight at the node.
    let worker = RemoteWorker::new(&node.local_addr().to_string());
    let forward = |row: usize| {
        worker
            .forward_request(&forwarding_frame(w, row as u64 + 1, row, 1))
            .is_ok_and(|reply| {
                reply.response.error.is_none()
                    && score_mismatches(&reply.response.scores, &w.requests.reference[row..=row])
                        == 0
            })
    };
    let (mut asked, mut wrong) = (0u64, 0u64);
    let forward_us = section(tracer, "remote.forward_request", 0.1 * seconds, |n| {
        asked += 1;
        wrong += u64::from(!forward(n % N_TEST));
    });

    // The same two boundaries entered on the open loop's schedule
    // instead of back to back: between requests the threads behind
    // them go to sleep, and waking them is part of what a spaced-out
    // caller pays.
    let at_rate = |call: &(dyn Fn(usize, usize) -> bool + Sync)| {
        loadgen::sliced(0.1 * seconds, |slice_s, n| {
            w.open_slice(slice_s, slice_seed(params.seed, n), call)
        })
    };
    let hosts: Vec<RuntimeClient> = (0..SENDERS).map(|_| node.runtime().client()).collect();
    let call_at_rate = at_rate(&|sender, row| w.requests.call(&hosts[sender], row, 1));
    let forward_at_rate = at_rate(&|_, row| forward(row));
    out.attempted += asked + call_at_rate.attempted + forward_at_rate.attempted;
    out.failed += wrong + call_at_rate.failed + forward_at_rate.failed;

    let hop_us = forward_us - call_us;
    puts(
        out,
        &[
            (
                "runtime.call_at_rate_us_p50",
                call_at_rate.calls.quantile_us(0.5).value,
            ),
            ("remote.forward_us_p50", forward_us),
            (
                "remote.forward_at_rate_us_p50",
                forward_at_rate.calls.quantile_us(0.5).value,
            ),
            ("remote.hop_us", hop_us),
            ("remote.residual_us", hop_us - codec_us),
        ],
    );
    Ok(forward_us)
}

/// The open-loop latency phase with every public counter snapshotted
/// around it: the counting half of `runtime.*` and `remote.*`,
/// `loadgen.*`, and the closure against `layers_us` — the layers along
/// the blocking path, each called back to back.
fn open_loop_metrics(out: &mut Outcome, w: &Serve, params: &Params, layers_us: f64) -> Res<()> {
    let remote = w.rig.node.is_some();
    let serving = w.rig.executing_runtime();
    let endpoint = w
        .rig
        .runtime
        .endpoint(ENDPOINT, 1)
        .ok_or("endpoint not registered")?;
    let transport = || {
        endpoint
            .transport_stats()
            .iter()
            .fold(TransportStats::default(), |a, t| a.merged(t))
    };
    let plan_before = w.built.plan.counters().snapshot();
    let (stats_before, wire_before) = (serving.stats().snapshot(), transport());
    let open = loadgen::sliced(0.2 * params.seconds, |slice_s, n| {
        w.latency_slice(slice_s, slice_seed(params.seed, n))
    });
    let (stats, wire) = (serving.stats().snapshot(), transport());
    counter_shares(out, plan_before, w.built.plan.counters().snapshot(), false);
    out.attempted += open.attempted;
    out.failed += open.failed;

    let rows = (stats.rows - stats_before.rows).max(1) as f64;
    let batches = (stats.batches - stats_before.batches).max(1) as f64;
    let latency_us = open.calls.quantile_us(0.5).value;
    puts(
        out,
        &[
            ("runtime.mean_model_batch_rows", rows / batches),
            (
                "runtime.coalesced_share",
                (stats.coalesced_rows - stats_before.coalesced_rows) as f64 / rows,
            ),
            // A high-water mark over the rig's life, not a delta.
            ("runtime.max_batch_rows", stats.max_batch_rows as f64),
            ("runtime.shed", (stats.shed - stats_before.shed) as f64),
            (
                "runtime.degraded",
                (stats.degraded - stats_before.degraded) as f64,
            ),
            ("loadgen.lag_p50_us", open.lag.quantile_us(0.5).value),
            ("loadgen.lag_p99_us", open.lag.quantile_us(0.99).value),
            ("loadgen.offered", open.attempted as f64),
            ("loadgen.served", (open.attempted - open.failed) as f64),
        ],
    );
    if remote {
        let forwards = (wire.forwards - wire_before.forwards).max(1) as f64;
        puts(
            out,
            &[
                (
                    "remote.bytes_sent_per_req",
                    (wire.bytes_sent - wire_before.bytes_sent) as f64 / forwards,
                ),
                (
                    "remote.bytes_received_per_req",
                    (wire.bytes_received - wire_before.bytes_received) as f64 / forwards,
                ),
                ("remote.max_in_flight", wire.max_in_flight as f64),
                (
                    "remote.failures",
                    (wire.failures - wire_before.failures) as f64,
                ),
                (
                    "remote.reconnects",
                    (wire.reconnects - wire_before.reconnects) as f64,
                ),
            ],
        );
    } else {
        // Locally the runtime clients talk to is the executing one.
        put(out, "runtime.call_at_rate_us_p50", latency_us);
    }
    out.note("open_loop_latency_p50_us", latency_us);
    out.note("back_to_back_layers_us", layers_us);
    // The remainder is what spaced-out arrivals add — waking sleeping
    // threads, the node loop's idle wait, queueing behind other
    // requests. The `*_at_rate_*` metrics say at which boundary.
    let closure = if remote {
        "closure.serve_remote_residual_share"
    } else {
        "closure.serve_local_residual_share"
    };
    put(out, closure, (latency_us - layers_us).abs() / latency_us);
    Ok(())
}

fn trace_serve(params: &Params, tracer: &mut Tracer, remote: bool) -> Res<Outcome> {
    let (w, mut out) = Serve::set_up(params.seed, remote)?;
    optimize_metrics(&mut out, tracer, &w.built, params.seed)?;
    overhead(
        &mut out,
        tracer,
        params.seconds,
        SENDERS,
        "runtime.predict_keyed.r32",
        |client, n| {
            let first = (n * SENDERS + client) * BATCH_ROWS;
            w.requests
                .call(&w.clients[client], first, BATCH_ROWS)
                .then_some(BATCH_ROWS)
        },
    );
    let (call_us, overhead_us) = runtime_metrics(&mut out, tracer, &w, params.seconds);
    let layers_us = match &w.rig.node {
        // Parent side: the same runtime layer once more (admission,
        // JSON boundary, routing), taken at the node-side figure.
        Some(node) => remote_metrics(&mut out, tracer, &w, node, params, call_us)? + overhead_us,
        None => call_us,
    };
    open_loop_metrics(&mut out, &w, params, layers_us)?;
    Ok(out)
}

/// Run one workload with tracing on.
pub fn run(workload: Workload, params: &Params) -> Res<Traced> {
    let mut tracer = Tracer::new(Instant::now());
    let outcome = match workload {
        Workload::OfflineToxic => trace_offline_toxic(params, &mut tracer),
        Workload::TopkMusic => trace_topk_music(params, &mut tracer),
        Workload::ServeLocal => trace_serve(params, &mut tracer, false),
        Workload::ServeRemote => trace_serve(params, &mut tracer, true),
    }?;
    Ok(Traced {
        outcome,
        spans: tracer.spans().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, end_us: u64, request: u64) -> Span {
        Span {
            name,
            start_ns: start_us * 1_000,
            end_ns: end_us * 1_000,
            parent: None,
            request,
        }
    }

    #[test]
    fn closure_arithmetic_on_synthetic_spans() {
        // Three requests. The plan call takes 100 us; its replay spends
        // 60 + 10 us in layer calls (no row escalated: those spans are
        // absent and count 0) and 20 us in the harness's own gate.
        let mut spans = Vec::new();
        for r in 0..3 {
            let t = r * 1_000;
            spans.push(span("plan.run_batch", t, t + 100, r));
            spans.push(span("graph.features_batch.efficient", t + 200, t + 260, r));
            spans.push(span("models.predict_scores.small", t + 260, t + 270, r));
            spans.push(span("harness.gate", t + 270, t + 290, r));
        }
        // An outlier request does not move the medians.
        spans.push(span("plan.run_batch", 9_000, 9_900, 3));
        let (self_share, residual) = closure_shares(
            &spans,
            "plan.run_batch",
            &REPLAYED_LAYERS,
            &["harness.gate"],
        );
        assert!((self_share - 0.30).abs() < 1e-12, "{self_share}");
        assert!((residual - 0.10).abs() < 1e-12, "{residual}");
        // A replay slower than the plan call is a residual too.
        let (self_share, residual) =
            closure_shares(&spans, "models.predict_scores.small", &REPLAYED_LAYERS, &[]);
        assert!((self_share + 6.0).abs() < 1e-12, "{self_share}");
        assert!((residual - 6.0).abs() < 1e-12, "{residual}");
    }

    #[test]
    fn sections_time_at_least_three_calls_and_stop_on_time() {
        let mut tracer = Tracer::new(Instant::now());
        let mut calls = 0;
        let us = section(&mut tracer, "t", 0.0, |n| {
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
            n
        });
        assert_eq!(calls, 3);
        assert_eq!(tracer.spans().len(), 3);
        assert!(us >= 200.0, "{us}");
        assert!(nanos_per_call(0.0, || 1 + 1) >= 0.0);
    }
}
