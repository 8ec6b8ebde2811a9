//! Token vocabularies mapping terms to feature-column indices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The longest term, in bytes, that [`pack`] turns into a `u64` key.
/// Every ASCII char n-gram up to order seven and most words fit.
const PACKED_LEN: usize = 7;

/// A term of at most [`PACKED_LEN`] bytes as one `u64`: its bytes
/// from the low byte up, their count in the high byte, so "ab" and
/// "ab\0" differ.
pub(crate) fn pack(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    debug_assert!(n <= PACKED_LEN, "{n} bytes do not pack");
    let low = |at: usize| u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4")));
    // Two loads that overlap in the middle cover every length; the
    // overlapping bytes are OR-ed onto themselves.
    let packed = match n {
        0 => 0,
        1..=3 => {
            u64::from(bytes[0])
                | u64::from(bytes[n / 2]) << (8 * (n / 2))
                | u64::from(bytes[n - 1]) << (8 * (n - 1))
        }
        _ => low(0) | low(n - 4) << (8 * (n - 4)),
    };
    packed | (n as u64) << 56
}

/// The term [`pack`] was given.
fn unpack(key: u64) -> String {
    let len = (key >> 56) as usize;
    let bytes = key.to_le_bytes()[..len].to_vec();
    String::from_utf8(bytes).expect("packed from a `str`")
}

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
            self.mix(pack(rest));
        }
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // picks buckets by the low ones.
        self.0.rotate_left(26)
    }
}

/// [`TermHasher`]'s hash of `bytes`, for tables that hold spans of a
/// text rather than the text's words.
pub(crate) fn term_hash(bytes: &[u8]) -> u64 {
    let mut h = TermHasher::default();
    h.write(bytes);
    h.finish()
}

/// The column of every term of at most [`PACKED_LEN`] bytes, in a
/// flat open-addressed table of [`pack`]ed keys built once and at
/// most half full. A lookup probes from the key's home slot and stops
/// at the key, at an empty slot, or after the longest run any key
/// needed when the table was built — it never inserts, so that bound
/// holds for absent keys too.
#[derive(Debug, Clone)]
struct PackedIndex {
    /// Packed keys; [`EMPTY`](Self::EMPTY) marks a free slot.
    keys: Vec<u64>,
    /// The column of the key in the same slot.
    ids: Vec<u32>,
    /// `64 - log2(keys.len())`: a key's home slot is the top bits of
    /// its product with [`MULTIPLIER`](Self::MULTIPLIER).
    shift: u32,
    /// The most slots any key sits past its home slot.
    max_probe: usize,
}

impl PackedIndex {
    /// No packed key has a length byte above seven.
    const EMPTY: u64 = u64::MAX;
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    /// The table of `pairs`; a key given twice keeps its last column.
    fn build(pairs: &[(u64, u32)]) -> PackedIndex {
        let slots = (2 * pairs.len()).next_power_of_two().max(2);
        let mut index = PackedIndex {
            keys: vec![Self::EMPTY; slots],
            ids: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            max_probe: 0,
        };
        let mask = slots - 1;
        for &(key, id) in pairs {
            let mut at = index.home(key);
            let mut probe = 0;
            while index.keys[at] != Self::EMPTY && index.keys[at] != key {
                at = (at + 1) & mask;
                probe += 1;
            }
            index.keys[at] = key;
            index.ids[at] = id;
            index.max_probe = index.max_probe.max(probe);
        }
        index
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(Self::MULTIPLIER) >> self.shift) as usize
    }

    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.keys.len() - 1;
        let mut at = self.home(key);
        for _ in 0..=self.max_probe {
            match self.keys[at] {
                k if k == key => return Some(self.ids[at]),
                Self::EMPTY => return None,
                _ => at = (at + 1) & mask,
            }
        }
        None
    }
}

impl Default for PackedIndex {
    fn default() -> PackedIndex {
        PackedIndex::build(&[])
    }
}

/// A term → column-index mapping built from a training corpus.
///
/// Built by counting document frequencies and keeping the
/// `max_features` most frequent terms above `min_df`, like sklearn's
/// vectorizers (used in the Product/Toxic/Price Kaggle entries).
/// Terms of up to seven bytes — every ASCII char 3–5-gram, most
/// words — are looked up as packed `u64` keys in a flat table; longer
/// ones in a string map.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    packed: PackedIndex,
    long: HashMap<String, u32, BuildHasherDefault<TermHasher>>,
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
        if term.len() <= PACKED_LEN {
            self.packed.get(pack(term.as_bytes()))
        } else {
            self.long.get(term).copied()
        }
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
    /// column order. Used by tests and snapshots. A term given twice
    /// is looked up at its last column.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, u32)>) -> Vocabulary {
        let mut v = Vocabulary::new();
        let mut packed = Vec::new();
        for (term, df) in pairs {
            let id = v.terms.len() as u32;
            if term.len() <= PACKED_LEN {
                packed.push((pack(term.as_bytes()), id));
            } else {
                v.long.insert(term.clone(), id);
            }
            v.terms.push(term);
            v.doc_freq.push(df);
        }
        v.packed = PackedIndex::build(&packed);
        v
    }
}

/// Accumulates per-document term sets and finalizes a [`Vocabulary`].
#[derive(Debug, Default)]
pub struct VocabBuilder {
    /// Per term of at most [`PACKED_LEN`] bytes, by its [`pack`]ed
    /// key: its document frequency and the (1-based) number of the
    /// last document it was counted in.
    packed: HashMap<u64, (u32, u32)>,
    /// The same for longer terms.
    long: HashMap<String, (u32, u32)>,
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
    /// longer term is copied the first time the corpus shows it, a
    /// packed one not at all; either is counted the first time each
    /// document shows it.
    pub(crate) fn add_term(&mut self, term: &str) {
        let seen = if term.len() <= PACKED_LEN {
            self.packed.entry(pack(term.as_bytes())).or_default()
        } else if let Some(seen) = self.long.get_mut(term) {
            seen
        } else {
            self.long.entry(term.to_string()).or_default()
        };
        let (df, last_doc) = seen;
        if *last_doc != self.n_docs {
            *last_doc = self.n_docs;
            *df += 1;
        }
    }

    /// Finalize, keeping terms with document frequency ≥ `min_df`,
    /// truncated to the `max_features` most frequent (ties broken
    /// lexicographically for determinism).
    pub fn finish(self, min_df: u32, max_features: Option<usize>) -> Vocabulary {
        let packed = self
            .packed
            .into_iter()
            .filter(|(_, (df, _))| *df >= min_df)
            .map(|(key, (df, _))| (unpack(key), df));
        let long = self
            .long
            .into_iter()
            .filter(|(_, (df, _))| *df >= min_df)
            .map(|(term, (df, _))| (term, df));
        let mut entries: Vec<(String, u32)> = packed.chain(long).collect();
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
    use proptest::prelude::*;

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

    /// Pieces of generated terms: NUL, ASCII, and UTF-8 of two, three
    /// and four bytes.
    const PIECES: &[&str] = &["\0", "a", "b", "Z", " ", "7", "é", "日", "😀"];

    /// A term of up to 12 bytes from `picks`: pieces appended while
    /// they fit.
    fn term(picks: &[usize]) -> String {
        let mut t = String::new();
        for &p in picks {
            let piece = PIECES[p % PIECES.len()];
            if t.len() + piece.len() <= 12 {
                t.push_str(piece);
            }
        }
        t
    }

    fn terms(picks: &[Vec<usize>]) -> Vec<String> {
        picks.iter().map(|p| term(p)).collect()
    }

    /// What [`VocabBuilder::finish`] keeps, computed over `String`
    /// keys: document frequencies, the `max_features` most frequent
    /// at or above `min_df` (ties to the smaller term), in term order.
    fn reference_vocab(
        docs: &[Vec<String>],
        min_df: u32,
        max_features: Option<usize>,
    ) -> Vec<(String, u32)> {
        let mut df: HashMap<&str, u32> = HashMap::new();
        for doc in docs {
            let mut distinct: Vec<&str> = doc.iter().map(String::as_str).collect();
            distinct.sort_unstable();
            distinct.dedup();
            for t in distinct {
                *df.entry(t).or_default() += 1;
            }
        }
        let mut kept: Vec<(String, u32)> = df
            .into_iter()
            .filter(|(_, n)| *n >= min_df)
            .map(|(t, n)| (t.to_string(), n))
            .collect();
        kept.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        kept.truncate(max_features.unwrap_or(usize::MAX));
        kept.sort();
        kept
    }

    #[test]
    fn packed_terms_round_trip() {
        for t in ["", "\0", "a\0", "ab", "abcdefg", "é", "日本", "😀\0\0"] {
            assert!(t.len() <= PACKED_LEN);
            assert_eq!(unpack(pack(t.as_bytes())), t);
        }
        assert_ne!(pack(b"ab"), pack(b"ab\0"));
        assert_ne!(pack(b""), pack(b"\0"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn get_agrees_with_a_string_map(
            present in prop::collection::vec(prop::collection::vec(0usize..64, 0..13), 0..64),
            probes in prop::collection::vec(prop::collection::vec(0usize..64, 0..13), 0..64),
        ) {
            let present = terms(&present);
            let mut oracle: HashMap<String, u32> = HashMap::new();
            for (id, t) in present.iter().enumerate() {
                oracle.insert(t.clone(), id as u32);
            }
            let v = Vocabulary::from_pairs(present.iter().map(|t| (t.clone(), 1)));
            for t in present.iter().chain(&terms(&probes)) {
                prop_assert_eq!(v.get(t), oracle.get(t).copied(), "{:?}", t);
            }
        }

        #[test]
        fn finish_matches_a_string_keyed_reference(
            docs in prop::collection::vec(
                prop::collection::vec(prop::collection::vec(0usize..64, 0..13), 0..12),
                0..16,
            ),
            min_df in 1u32..4,
            max_features in prop::option::of(0usize..12),
        ) {
            let docs: Vec<Vec<String>> = docs.iter().map(|d| terms(d)).collect();
            let mut b = VocabBuilder::new();
            for doc in &docs {
                b.add_document(doc.iter().map(String::as_str));
            }
            let v = b.finish(min_df, max_features);
            let got: Vec<(String, u32)> =
                (0..v.len()).map(|i| (v.term(i).to_string(), v.doc_freq(i))).collect();
            prop_assert_eq!(got, reference_vocab(&docs, min_df, max_features));
        }
    }
}
