//! The allocation budget of tree scoring, as assertions.
//!
//! Scoring a dense batch with a GBDT or a forest allocates the `Vec`
//! of scores it returns and nothing else — the input is read in
//! place, not cloned — and scoring one row from its `(column, value)`
//! entries allocates nothing once the thread's dense row has grown to
//! the model's width. Training reads its rows in place too: a linear
//! model or an MLP allocates per fit and per epoch, never per row.
//!
//! This is a test binary of its own because it installs a counting
//! `#[global_allocator]` (the same one as
//! `crates/featurize/tests/alloc_budget.rs`); the `unsafe impl` lives
//! here so that every crate root can stay `#![deny(unsafe_code)]`.
//! Counts are per thread, so tests running in parallel do not see each
//! other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use willump_data::{FeatureMatrix, Matrix, SparseMatrix};
use willump_models::{
    ForestParams, GbdtParams, LinearParams, LogisticParams, MlpParams, ModelSpec, TrainedModel,
};

struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down may no longer have the counter.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `f`'s result and the allocator calls (`alloc`, `alloc_zeroed`,
/// `realloc`) this thread made while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const N_FEATURES: usize = 12;

fn features(n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, N_FEATURES);
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for r in 0..n {
        for c in 0..N_FEATURES {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // A third of the cells stay zero, so rows have fewer
            // entries than columns.
            if !(state >> 40).is_multiple_of(3) {
                m.set(r, c, (state >> 33) as f64 / (1u64 << 31) as f64);
            }
        }
    }
    m
}

/// A GBDT and a forest, both classifiers, trained on `x`.
fn tree_models(x: &FeatureMatrix) -> [TrainedModel; 2] {
    let FeatureMatrix::Dense(m) = x else {
        unreachable!("dense training data")
    };
    let y: Vec<f64> = (0..m.n_rows())
        .map(|r| f64::from(m.get(r, 0) + m.get(r, 1) > 0.7))
        .collect();
    let forest = ForestParams {
        n_trees: 10,
        ..ForestParams::default()
    };
    [
        ModelSpec::GbdtClassifier(GbdtParams::default()),
        ModelSpec::ForestClassifier(forest),
    ]
    .map(|spec| spec.fit(x, &y, 5).expect("trains"))
}

#[test]
fn dense_batch_scoring_allocates_the_scores_only() {
    let train = FeatureMatrix::Dense(features(400));
    let batch = FeatureMatrix::Dense(features(2_000));
    for model in tree_models(&train) {
        for rows in [&train, &batch] {
            let (scores, n) = allocations(|| model.predict_scores(rows));
            assert_eq!(scores.len(), rows.n_rows());
            assert_eq!(n, 1, "predict_scores on {} dense rows", rows.n_rows());
        }
    }
}

#[test]
fn warmed_up_row_scoring_allocates_nothing() {
    let train = FeatureMatrix::Dense(features(400));
    let rows: Vec<Vec<(usize, f64)>> = (0..100).map(|r| train.row_entries(r)).collect();
    for model in tree_models(&train) {
        // The first call on this thread grows the dense row.
        model.predict_score_row(&rows[0], N_FEATURES);
        for entries in &rows {
            let (score, n) = allocations(|| model.predict_score_row(entries, N_FEATURES));
            assert!((0.0..=1.0).contains(&score));
            assert_eq!(n, 0, "predict_score_row");
        }
    }
}

#[test]
fn gradient_fits_do_not_allocate_per_row() {
    let specs = [
        ModelSpec::Logistic(LogisticParams::default()),
        ModelSpec::Linear(LinearParams::default()),
        ModelSpec::MlpClassifier(MlpParams::default()),
    ];
    let dense = |n: usize| FeatureMatrix::Dense(features(n));
    let sparse = |n: usize| FeatureMatrix::Sparse(SparseMatrix::from_dense(&features(n)));
    for make in [&dense as &dyn Fn(usize) -> FeatureMatrix, &sparse] {
        for spec in &specs {
            let fit = |n: usize| {
                let x = make(n);
                let y: Vec<f64> = (0..n).map(|r| (r % 2) as f64).collect();
                allocations(|| spec.fit(&x, &y, 5).expect("trains")).1
            };
            let (short, long) = (fit(200), fit(400));
            assert_eq!(
                short, long,
                "{spec:?}: {short} allocations on 200 rows, {long} on 400"
            );
        }
    }
}
