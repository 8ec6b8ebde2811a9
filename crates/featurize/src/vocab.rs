//! Token vocabularies mapping terms to feature-column indices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the fitted term index: eight bytes per
/// multiply instead of SipHash's rounds. It is not collision-resistant
/// against chosen keys, and does not need to be — the index's keys are
/// fixed at `fit` and serving only looks terms up, never inserts, so
/// no input can grow a bucket. [`VocabBuilder`], whose keys do come
/// from the corpus, keeps the default hasher.
#[derive(Debug, Clone, Copy, Default)]
struct TermHasher(u64);

impl TermHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for TermHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // At most seven bytes: the eighth holds their count, so
            // "ab" and "ab\0" differ.
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            tail[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(tail));
        }
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // picks buckets by the low ones.
        self.0.rotate_left(26)
    }
}

/// A term → column-index mapping built from a training corpus.
///
/// Built by counting document frequencies and keeping the
/// `max_features` most frequent terms above `min_df`, like sklearn's
/// vectorizers (used in the Product/Toxic/Price Kaggle entries).
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    index: HashMap<String, u32, BuildHasherDefault<TermHasher>>,
    terms: Vec<String>,
    doc_freq: Vec<u32>,
}

impl Vocabulary {
    /// An empty vocabulary to be populated via [`VocabBuilder`].
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The column index for `term`, if present.
    pub fn get(&self, term: &str) -> Option<u32> {
        self.index.get(term).copied()
    }

    /// The term at column `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn term(&self, i: usize) -> &str {
        &self.terms[i]
    }

    /// Document frequency (from the fit corpus) of the term at `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn doc_freq(&self, i: usize) -> u32 {
        self.doc_freq[i]
    }

    /// Construct directly from `(term, document frequency)` pairs, in
    /// column order. Used by tests and snapshots.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, u32)>) -> Vocabulary {
        let mut v = Vocabulary::new();
        for (term, df) in pairs {
            let id = v.terms.len() as u32;
            v.index.insert(term.clone(), id);
            v.terms.push(term);
            v.doc_freq.push(df);
        }
        v
    }
}

/// Accumulates per-document term sets and finalizes a [`Vocabulary`].
#[derive(Debug, Default)]
pub struct VocabBuilder {
    /// Per term: its document frequency and the (1-based) number of
    /// the last document it was counted in.
    doc_freq: HashMap<String, (u32, u32)>,
    n_docs: u32,
}

impl VocabBuilder {
    /// A fresh builder.
    pub fn new() -> VocabBuilder {
        VocabBuilder::default()
    }

    /// Number of documents seen.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Record one document's terms (repeats count once).
    pub fn add_document<'a>(&mut self, terms: impl IntoIterator<Item = &'a str>) {
        self.start_document();
        for t in terms {
            self.add_term(t);
        }
    }

    /// Begin the next document; [`add_term`](Self::add_term) calls
    /// belong to it until the next call.
    pub(crate) fn start_document(&mut self) {
        self.n_docs += 1;
    }

    /// Record one occurrence of `term` in the current document. A
    /// term is copied the first time the corpus shows it, and counted
    /// the first time each document does.
    pub(crate) fn add_term(&mut self, term: &str) {
        match self.doc_freq.get_mut(term) {
            Some((df, last_doc)) => {
                if *last_doc != self.n_docs {
                    *last_doc = self.n_docs;
                    *df += 1;
                }
            }
            None => {
                self.doc_freq.insert(term.to_string(), (1, self.n_docs));
            }
        }
    }

    /// Finalize, keeping terms with document frequency ≥ `min_df`,
    /// truncated to the `max_features` most frequent (ties broken
    /// lexicographically for determinism).
    pub fn finish(self, min_df: u32, max_features: Option<usize>) -> Vocabulary {
        let mut entries: Vec<(String, u32)> = self
            .doc_freq
            .into_iter()
            .map(|(term, (df, _))| (term, df))
            .filter(|(_, df)| *df >= min_df)
            .collect();
        // Sort by descending document frequency, then term, so the
        // vocabulary is deterministic across runs.
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if let Some(m) = max_features {
            entries.truncate(m);
        }
        // Re-sort kept terms lexicographically so column order is
        // stable under small max_features changes.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Vocabulary::from_pairs(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut b = VocabBuilder::new();
        b.add_document(["a", "b"]);
        b.add_document(["b", "c"]);
        b.add_document(["b"]);
        assert_eq!(b.n_docs(), 3);
        let v = b.finish(1, None);
        assert_eq!(v.len(), 3);
        let b_idx = v.get("b").unwrap() as usize;
        assert_eq!(v.doc_freq(b_idx), 3);
        assert_eq!(v.get("z"), None);
        assert_eq!(v.term(b_idx), "b");
    }

    #[test]
    fn min_df_filters_rare_terms() {
        let mut b = VocabBuilder::new();
        b.add_document(["common", "rare"]);
        b.add_document(["common"]);
        let v = b.finish(2, None);
        assert_eq!(v.len(), 1);
        assert!(v.get("rare").is_none());
    }

    #[test]
    fn max_features_keeps_most_frequent() {
        let mut b = VocabBuilder::new();
        for _ in 0..3 {
            b.add_document(["hot"]);
        }
        b.add_document(["cold", "hot"]);
        b.add_document(["warm", "cold"]);
        let v = b.finish(1, Some(2));
        assert_eq!(v.len(), 2);
        assert!(v.get("hot").is_some());
        assert!(v.get("cold").is_some());
        assert!(v.get("warm").is_none());
    }

    #[test]
    fn deterministic_order() {
        let make = || {
            let mut b = VocabBuilder::new();
            b.add_document(["x", "y", "z"]);
            b.add_document(["y"]);
            b.finish(1, None)
        };
        let v1 = make();
        let v2 = make();
        for i in 0..v1.len() {
            assert_eq!(v1.term(i), v2.term(i));
        }
    }
}
