//! The allocation budget of the text hot path, as assertions.
//!
//! After one warm-up call on the same thread, featurizing a document
//! allocates nothing: the normalised text, the n-gram marks, the term
//! ids and the counted row all live in per-thread buffers. What is
//! left is the output — the three CSR vectors of a batch, whose
//! amortised doublings grow with the *logarithm* of the batch, or the
//! one `Vec` a single row is returned in.
//!
//! This is a test binary of its own because it installs a counting
//! `#[global_allocator]`; the `unsafe impl` lives here so that every
//! crate root can stay `#![deny(unsafe_code)]`. Counts are per thread,
//! so tests running in parallel do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use willump_featurize::{
    string_stats, Analyzer, CountVectorizer, Norm, TfIdfVectorizer, VectorizerConfig,
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

/// `n` short documents over a few hundred words: mixed case,
/// punctuation, and a non-ASCII word now and then so that both
/// normalisation paths are inside the budget.
fn corpus(n: usize) -> Vec<String> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let mut doc = String::new();
            for _ in 0..8 {
                let w = next() % 400;
                match w % 7 {
                    0 => doc.push_str(&format!("Word{w}, ")),
                    1 => doc.push_str(&format!("caf\u{e9}{w} ")),
                    _ => doc.push_str(&format!("word{w} ")),
                }
            }
            doc.push('!');
            doc
        })
        .collect()
}

fn configs() -> [VectorizerConfig; 2] {
    [
        VectorizerConfig::default(),
        VectorizerConfig {
            analyzer: Analyzer::Char,
            ngram_lo: 3,
            ngram_hi: 5,
            ..VectorizerConfig::default()
        },
    ]
}

#[test]
fn batch_transform_allocates_for_its_output_only() {
    let docs = corpus(4_000);
    for config in configs() {
        let mut v = TfIdfVectorizer::new(config.clone()).unwrap();
        v.fit(&docs[..500]);
        let warm = v.transform(&docs).unwrap();
        assert!(
            warm.nnz() > docs.len(),
            "the corpus must hit the vocabulary"
        );
        drop(warm);

        let (_, small) = allocations(|| v.transform(&docs[..1_000]).unwrap());
        let (_, large) = allocations(|| v.transform(&docs).unwrap());
        assert!(
            small <= 64 && large <= 64,
            "{config:?}: {small} allocations for 1 000 documents, {large} for 4 000"
        );
        // Four times the documents: two more doublings of each of
        // the three CSR vectors, not 3 000 more rows' worth.
        assert!(
            large.saturating_sub(small) <= 8,
            "{config:?}: allocations grow with the batch ({small} -> {large})"
        );
    }
}

#[test]
fn single_row_allocates_the_returned_vec_only() {
    let docs = corpus(200);
    for config in configs() {
        let mut tfidf = TfIdfVectorizer::new(config.clone()).unwrap();
        tfidf.fit(&docs);
        let mut counts = CountVectorizer::new(VectorizerConfig {
            norm: Norm::None,
            ..config.clone()
        })
        .unwrap();
        counts.fit(&docs);
        // Warm up on the longest document so no buffer has to grow.
        let longest = docs.iter().max_by_key(|d| d.len()).unwrap();
        tfidf.transform_one(longest).unwrap();
        counts.transform_one(longest).unwrap();

        for doc in &docs[..50] {
            let (row, n) = allocations(|| tfidf.transform_one(doc).unwrap());
            assert!(!row.is_empty());
            assert_eq!(n, 1, "{config:?}: TfIdfVectorizer::transform_one");
            let (row, n) = allocations(|| counts.transform_one(doc).unwrap());
            assert!(!row.is_empty());
            assert_eq!(n, 1, "{config:?}: CountVectorizer::transform_one");
        }
    }
}

#[test]
fn string_stats_allocates_nothing() {
    let docs = corpus(200);
    let longest = docs.iter().max_by_key(|d| d.len()).unwrap();
    string_stats(longest);
    for doc in &docs {
        let (stats, n) = allocations(|| string_stats(doc));
        assert_eq!(stats[1], 9.0, "eight words and a `!`");
        assert_eq!(n, 0, "string_stats({doc:?})");
    }
}

#[test]
fn fit_copies_a_term_once_per_corpus() {
    let once = corpus(300);
    let mut thrice = once.clone();
    thrice.extend(once.iter().cloned());
    thrice.extend(once.iter().cloned());
    for config in configs() {
        let mut v = CountVectorizer::new(config.clone()).unwrap();
        v.fit(&once); // warm-up
        let (_, base) = allocations(|| v.fit(&once));
        let (_, repeated) = allocations(|| v.fit(&thrice));
        // Same distinct terms, three times the documents.
        assert!(
            repeated <= base + 8,
            "{config:?}: fit allocates per document ({base} -> {repeated})"
        );
    }
}
