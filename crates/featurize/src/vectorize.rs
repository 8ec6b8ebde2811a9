//! Count and TF-IDF vectorizers over word or character n-grams.
//!
//! These are the expensive feature-computing operators in the Product,
//! Toxic, and Price benchmarks (paper Table 1). Semantics follow
//! sklearn: smooth IDF, optional sublinear TF, and L1/L2/none row
//! normalization.

use std::cell::Cell;

use willump_data::{SparseMatrix, SparseRowBuilder};

use crate::stringstats::is_space;
use crate::vocab::{VocabBuilder, Vocabulary};
use crate::FeatError;

/// What unit n-grams are computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analyzer {
    /// Word n-grams over alphanumeric tokens.
    Word,
    /// Character n-grams over whitespace-normalized text.
    Char,
}

/// Row normalization applied after weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// No normalization.
    None,
    /// Divide by the L1 norm.
    L1,
    /// Divide by the L2 norm.
    L2,
}

/// Configuration shared by [`CountVectorizer`] and [`TfIdfVectorizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct VectorizerConfig {
    /// Token unit.
    pub analyzer: Analyzer,
    /// Smallest n-gram order (≥ 1).
    pub ngram_lo: usize,
    /// Largest n-gram order (≥ `ngram_lo`).
    pub ngram_hi: usize,
    /// Minimum document frequency for a term to enter the vocabulary.
    pub min_df: u32,
    /// Cap on vocabulary size (most frequent kept).
    pub max_features: Option<usize>,
    /// Row normalization.
    pub norm: Norm,
    /// Use `1 + ln(tf)` instead of raw term frequency.
    pub sublinear_tf: bool,
}

impl Default for VectorizerConfig {
    fn default() -> Self {
        VectorizerConfig {
            analyzer: Analyzer::Word,
            ngram_lo: 1,
            ngram_hi: 1,
            min_df: 1,
            max_features: None,
            norm: Norm::L2,
            sublinear_tf: false,
        }
    }
}

impl VectorizerConfig {
    fn validate(&self) -> Result<(), FeatError> {
        if self.ngram_lo == 0 || self.ngram_lo > self.ngram_hi {
            return Err(FeatError::BadConfig {
                reason: format!(
                    "n-gram range {}..={} is invalid",
                    self.ngram_lo, self.ngram_hi
                ),
            });
        }
        Ok(())
    }

    /// Run the analyzer over one document, yielding each n-gram.
    ///
    /// Exposed so alternative execution engines (the interpreted
    /// Python-baseline engine in `willump-graph`) can reimplement the
    /// counting loop with their own cost model while sharing the
    /// analyzer semantics.
    ///
    /// The document is normalised once into a per-thread buffer and
    /// every n-gram is a slice of that buffer, in the order
    /// [`tokenize`](crate::tokenize) + [`ngrams`](crate::ngrams) (the
    /// specification this is tested against) would produce them.
    ///
    /// # Panics
    /// Panics if `ngram_lo == 0` or `ngram_lo > ngram_hi`.
    pub fn analyze(&self, doc: &str, mut f: impl FnMut(&str)) {
        let (lo, hi) = (self.ngram_lo, self.ngram_hi);
        assert!(lo >= 1 && lo <= hi, "invalid n-gram range {lo}..={hi}");
        // Out of the cell for the duration of the call: a callback
        // that analyzes another document finds an empty scratch and
        // fills its own instead of borrowing this one twice.
        let mut scratch = ANALYZER_SCRATCH.take();
        scratch.normalise(doc, self.analyzer);
        let (text, marks) = (scratch.text.as_str(), scratch.marks.as_slice());
        match self.analyzer {
            Analyzer::Word => {
                let tokens = marks.len() / 2;
                for n in lo..=hi.min(tokens) {
                    for first in 0..=tokens - n {
                        let last = first + n - 1;
                        f(&text[marks[2 * first]..marks[2 * last + 1]]);
                    }
                }
            }
            Analyzer::Char => {
                // In ASCII text the i-th char starts at byte i.
                let ascii = marks.is_empty();
                let chars = if ascii { text.len() } else { marks.len() - 1 };
                let at = |i: usize| if ascii { i } else { marks[i] };
                for n in lo..=hi.min(chars) {
                    for first in 0..=chars - n {
                        f(&text[at(first)..at(first + n)]);
                    }
                }
            }
        }
        ANALYZER_SCRATCH.set(scratch);
    }
}

thread_local! {
    static ANALYZER_SCRATCH: Cell<AnalyzerScratch> = const {
        Cell::new(AnalyzerScratch {
            text: String::new(),
            marks: Vec::new(),
        })
    };
    static COUNT_SCRATCH: Cell<CountScratch> = const {
        Cell::new(CountScratch {
            ids: Vec::new(),
            row: Vec::new(),
        })
    };
}

/// Per-thread buffers of [`VectorizerConfig::analyze`]; they grow to
/// the longest document the thread has seen and are reused from then
/// on.
#[derive(Default)]
struct AnalyzerScratch {
    /// The document's runs of kept characters (alphanumeric for the
    /// word analyzer, non-whitespace for the char analyzer),
    /// lower-cased and joined by single spaces.
    text: String,
    /// Word analyzer: start and end byte offset of each token, two
    /// entries per token. Char analyzer: the byte offset of every
    /// char boundary of `text`, its length included — left empty when
    /// `text` is ASCII.
    marks: Vec<usize>,
}

impl AnalyzerScratch {
    fn normalise(&mut self, doc: &str, analyzer: Analyzer) {
        let word = analyzer == Analyzer::Word;
        self.text.clear();
        self.marks.clear();
        if doc.is_ascii() {
            // Byte classes that agree with the `char` predicates of
            // the loop below on every ASCII input. Runs are copied
            // whole and lower-cased in one pass at the end: measured
            // faster than lower-casing byte by byte while copying.
            let keep = |b: u8| {
                if word {
                    b.is_ascii_alphanumeric()
                } else {
                    !is_space(b)
                }
            };
            let bytes = doc.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                let start = i;
                while i < bytes.len() && keep(bytes[i]) {
                    i += 1;
                }
                if i > start {
                    self.open_run();
                    self.text.push_str(&doc[start..i]);
                    self.close_run();
                } else {
                    i += 1;
                }
            }
            self.text.make_ascii_lowercase();
        } else {
            let mut in_run = false;
            for ch in doc.chars() {
                let keep = if word {
                    ch.is_alphanumeric()
                } else {
                    !ch.is_whitespace()
                };
                if keep {
                    if !in_run {
                        self.open_run();
                        in_run = true;
                    }
                    // May be more than one char ('İ'), and not
                    // alphanumeric itself; it stays in the run.
                    self.text.extend(ch.to_lowercase());
                } else if in_run {
                    self.close_run();
                    in_run = false;
                }
            }
            if in_run {
                self.close_run();
            }
        }
        if !word {
            // Chars are sliced at char boundaries, not at runs.
            self.marks.clear();
            if !self.text.is_ascii() {
                self.marks
                    .extend(self.text.char_indices().map(|(at, _)| at));
                self.marks.push(self.text.len());
            }
        }
    }

    fn open_run(&mut self) {
        if !self.text.is_empty() {
            self.text.push(' ');
        }
        self.marks.push(self.text.len());
    }

    fn close_run(&mut self) {
        self.marks.push(self.text.len());
    }
}

/// Per-thread buffers of the counting step.
#[derive(Default)]
struct CountScratch {
    /// Column of every in-vocabulary n-gram of the document.
    ids: Vec<u32>,
    /// The document's `(column, count)` row, in column order.
    row: Vec<(usize, f64)>,
}

/// Term-count featurization over n-grams.
#[derive(Debug, Clone)]
pub struct CountVectorizer {
    config: VectorizerConfig,
    vocab: Option<Vocabulary>,
}

impl CountVectorizer {
    /// A new, unfitted vectorizer.
    ///
    /// # Errors
    /// Returns [`FeatError::BadConfig`] for an invalid n-gram range.
    pub fn new(config: VectorizerConfig) -> Result<CountVectorizer, FeatError> {
        config.validate()?;
        Ok(CountVectorizer {
            config,
            vocab: None,
        })
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.vocab.as_ref()
    }

    /// The analyzer configuration.
    pub fn config(&self) -> &VectorizerConfig {
        &self.config
    }

    /// Number of output feature columns (0 before fit).
    pub fn n_features(&self) -> usize {
        self.vocab.as_ref().map_or(0, Vocabulary::len)
    }

    /// Learn the vocabulary from a corpus.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) {
        let mut b = VocabBuilder::new();
        for doc in corpus {
            b.start_document();
            self.config.analyze(doc.as_ref(), |g| b.add_term(g));
        }
        self.vocab = Some(b.finish(self.config.min_df, self.config.max_features));
    }

    fn fitted(&self) -> Result<&Vocabulary, FeatError> {
        self.vocab.as_ref().ok_or(FeatError::NotFitted {
            transformer: "CountVectorizer",
        })
    }

    /// Count one document's in-vocabulary n-grams into `scratch.row`:
    /// collect their columns, sort, and run-length encode.
    fn count_into(&self, vocab: &Vocabulary, doc: &str, scratch: &mut CountScratch) {
        let CountScratch { ids, row } = scratch;
        ids.clear();
        self.config.analyze(doc, |g| ids.extend(vocab.get(g)));
        ids.sort_unstable();
        row.clear();
        row.extend(
            ids.chunk_by(|a, b| a == b)
                .map(|run| (run[0] as usize, run.len() as f64)),
        );
    }

    /// [`count_into`](Self::count_into) for every document, each row
    /// passed through `weigh` on its way into the matrix.
    fn transform_with<S: AsRef<str>>(
        &self,
        docs: &[S],
        weigh: impl Fn(&mut [(usize, f64)]),
    ) -> Result<SparseMatrix, FeatError> {
        let vocab = self.fitted()?;
        let mut b = SparseRowBuilder::new(vocab.len());
        let mut scratch = COUNT_SCRATCH.take();
        for doc in docs {
            self.count_into(vocab, doc.as_ref(), &mut scratch);
            weigh(&mut scratch.row);
            b.push_row(&scratch.row);
        }
        COUNT_SCRATCH.set(scratch);
        Ok(b.finish())
    }

    /// Count in-vocabulary n-grams for one document.
    ///
    /// # Errors
    /// Returns [`FeatError::NotFitted`] before `fit`.
    pub fn transform_one(&self, doc: &str) -> Result<Vec<(usize, f64)>, FeatError> {
        let vocab = self.fitted()?;
        let mut scratch = COUNT_SCRATCH.take();
        self.count_into(vocab, doc, &mut scratch);
        let row = scratch.row.clone();
        COUNT_SCRATCH.set(scratch);
        Ok(row)
    }

    /// Count n-grams for a batch of documents into a sparse matrix.
    ///
    /// # Errors
    /// Returns [`FeatError::NotFitted`] before `fit`.
    pub fn transform<S: AsRef<str>>(&self, docs: &[S]) -> Result<SparseMatrix, FeatError> {
        self.transform_with(docs, |_| {})
    }

    /// Fit then transform the same corpus.
    ///
    /// # Errors
    /// Propagates transform errors (cannot be `NotFitted`).
    pub fn fit_transform<S: AsRef<str>>(
        &mut self,
        corpus: &[S],
    ) -> Result<SparseMatrix, FeatError> {
        self.fit(corpus);
        self.transform(corpus)
    }
}

/// TF-IDF featurization over n-grams.
///
/// IDF uses sklearn's smooth formulation
/// `idf(t) = ln((1 + n) / (1 + df(t))) + 1`.
///
/// ```
/// use willump_featurize::{TfIdfVectorizer, VectorizerConfig};
///
/// # fn main() -> Result<(), willump_featurize::FeatError> {
/// let mut v = TfIdfVectorizer::new(VectorizerConfig::default())?;
/// let m = v.fit_transform(&["cats and dogs", "dogs and more dogs"])?;
/// assert_eq!(m.n_rows(), 2);
/// assert!(m.n_cols() >= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TfIdfVectorizer {
    counter: CountVectorizer,
    idf: Vec<f64>,
}

impl TfIdfVectorizer {
    /// A new, unfitted vectorizer.
    ///
    /// # Errors
    /// Returns [`FeatError::BadConfig`] for an invalid n-gram range.
    pub fn new(config: VectorizerConfig) -> Result<TfIdfVectorizer, FeatError> {
        Ok(TfIdfVectorizer {
            counter: CountVectorizer::new(config)?,
            idf: Vec::new(),
        })
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.counter.vocabulary()
    }

    /// The analyzer configuration.
    pub fn config(&self) -> &VectorizerConfig {
        self.counter.config()
    }

    /// Number of output feature columns (0 before fit).
    pub fn n_features(&self) -> usize {
        self.counter.n_features()
    }

    /// The fitted IDF weights (empty before fit).
    pub fn idf(&self) -> &[f64] {
        &self.idf
    }

    /// Apply TF weighting, IDF weighting, and row normalization to raw
    /// in-vocabulary counts (in place). Shared by `transform_one` and
    /// alternative engines that produce the counts themselves.
    ///
    /// # Panics
    /// Panics if called before `fit` (no IDF weights).
    pub fn weigh(&self, row: &mut [(usize, f64)]) {
        assert!(
            !self.idf.is_empty() || self.n_features() == 0,
            "weigh called before fit"
        );
        let cfg = self.counter.config();
        for (c, v) in row.iter_mut() {
            let tf = if cfg.sublinear_tf { 1.0 + v.ln() } else { *v };
            *v = tf * self.idf[*c];
        }
        match cfg.norm {
            Norm::None => {}
            Norm::L1 => {
                let s: f64 = row.iter().map(|(_, v)| v.abs()).sum();
                if s > 0.0 {
                    for (_, v) in row.iter_mut() {
                        *v /= s;
                    }
                }
            }
            Norm::L2 => {
                let s: f64 = row.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
                if s > 0.0 {
                    for (_, v) in row.iter_mut() {
                        *v /= s;
                    }
                }
            }
        }
    }

    /// Learn vocabulary and IDF weights from a corpus.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) {
        self.counter.fit(corpus);
        let vocab = self.counter.vocabulary().expect("fit populates vocab");
        let n_docs = corpus.len() as f64;
        self.idf = (0..vocab.len())
            .map(|i| ((1.0 + n_docs) / (1.0 + f64::from(vocab.doc_freq(i)))).ln() + 1.0)
            .collect();
    }

    fn fitted(&self) -> Result<(), FeatError> {
        if self.counter.vocabulary().is_none() {
            return Err(FeatError::NotFitted {
                transformer: "TfIdfVectorizer",
            });
        }
        Ok(())
    }

    /// TF-IDF featurize one document as sorted `(column, value)` pairs.
    ///
    /// # Errors
    /// Returns [`FeatError::NotFitted`] before `fit`.
    pub fn transform_one(&self, doc: &str) -> Result<Vec<(usize, f64)>, FeatError> {
        self.fitted()?;
        let mut row = self.counter.transform_one(doc)?;
        self.weigh(&mut row);
        Ok(row)
    }

    /// TF-IDF featurize a batch of documents into a sparse matrix.
    ///
    /// # Errors
    /// Returns [`FeatError::NotFitted`] before `fit`.
    pub fn transform<S: AsRef<str>>(&self, docs: &[S]) -> Result<SparseMatrix, FeatError> {
        self.fitted()?;
        self.counter.transform_with(docs, |row| self.weigh(row))
    }

    /// Fit then transform the same corpus.
    ///
    /// # Errors
    /// Propagates transform errors (cannot be `NotFitted`).
    pub fn fit_transform<S: AsRef<str>>(
        &mut self,
        corpus: &[S],
    ) -> Result<SparseMatrix, FeatError> {
        self.fit(corpus);
        self.transform(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_config() -> VectorizerConfig {
        VectorizerConfig::default()
    }

    #[test]
    fn count_vectorizer_counts() {
        let mut v = CountVectorizer::new(word_config()).unwrap();
        let m = v.fit_transform(&["a b a", "b c"]).unwrap();
        assert_eq!(m.n_rows(), 2);
        let vocab = v.vocabulary().unwrap();
        let a = vocab.get("a").unwrap() as usize;
        let b = vocab.get("b").unwrap() as usize;
        let row0 = m.row_pairs(0);
        assert!(row0.contains(&(a, 2.0)));
        assert!(row0.contains(&(b, 1.0)));
    }

    #[test]
    fn transform_before_fit_errors() {
        let v = CountVectorizer::new(word_config()).unwrap();
        assert!(matches!(
            v.transform_one("x"),
            Err(FeatError::NotFitted { .. })
        ));
        let t = TfIdfVectorizer::new(word_config()).unwrap();
        assert!(t.transform_one("x").is_err());
    }

    #[test]
    fn unseen_terms_are_ignored() {
        let mut v = CountVectorizer::new(word_config()).unwrap();
        v.fit(&["known words only"]);
        let row = v.transform_one("unknown stuff").unwrap();
        assert!(row.is_empty());
    }

    #[test]
    fn tfidf_l2_rows_are_unit_norm() {
        let mut v = TfIdfVectorizer::new(word_config()).unwrap();
        let m = v.fit_transform(&["a b c", "a a d", "b d e"]).unwrap();
        for r in 0..m.n_rows() {
            let norm: f64 = m
                .row_pairs(r)
                .iter()
                .map(|(_, v)| v * v)
                .sum::<f64>()
                .sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "row {r} norm {norm}");
        }
    }

    #[test]
    fn idf_downweights_common_terms() {
        let mut v = TfIdfVectorizer::new(VectorizerConfig {
            norm: Norm::None,
            ..word_config()
        })
        .unwrap();
        v.fit(&["common rare", "common", "common other"]);
        let vocab = v.vocabulary().unwrap();
        let common = vocab.get("common").unwrap() as usize;
        let rare = vocab.get("rare").unwrap() as usize;
        assert!(v.idf()[rare] > v.idf()[common]);
    }

    #[test]
    fn sublinear_tf_dampens_counts() {
        let base = TfIdfVectorizer::new(VectorizerConfig {
            norm: Norm::None,
            ..word_config()
        })
        .unwrap();
        let mut raw = base.clone();
        raw.fit(&["w w w w", "x"]);
        let mut sub = TfIdfVectorizer::new(VectorizerConfig {
            norm: Norm::None,
            sublinear_tf: true,
            ..word_config()
        })
        .unwrap();
        sub.fit(&["w w w w", "x"]);
        let w = raw.vocabulary().unwrap().get("w").unwrap() as usize;
        let raw_v = raw.transform_one("w w w w").unwrap();
        let sub_v = sub.transform_one("w w w w").unwrap();
        let rv = raw_v.iter().find(|(c, _)| *c == w).unwrap().1;
        let sv = sub_v.iter().find(|(c, _)| *c == w).unwrap().1;
        assert!(sv < rv);
    }

    #[test]
    fn char_analyzer_ngram_range() {
        let mut v = CountVectorizer::new(VectorizerConfig {
            analyzer: Analyzer::Char,
            ngram_lo: 2,
            ngram_hi: 3,
            ..word_config()
        })
        .unwrap();
        v.fit(&["abc"]);
        let vocab = v.vocabulary().unwrap();
        assert!(vocab.get("ab").is_some());
        assert!(vocab.get("abc").is_some());
        assert!(vocab.get("a").is_none());
    }

    #[test]
    fn invalid_range_rejected() {
        assert!(CountVectorizer::new(VectorizerConfig {
            ngram_lo: 3,
            ngram_hi: 2,
            ..word_config()
        })
        .is_err());
        assert!(TfIdfVectorizer::new(VectorizerConfig {
            ngram_lo: 0,
            ngram_hi: 1,
            ..word_config()
        })
        .is_err());
    }

    #[test]
    fn max_features_caps_width() {
        let mut v = CountVectorizer::new(VectorizerConfig {
            max_features: Some(2),
            ..word_config()
        })
        .unwrap();
        v.fit(&["a b c d e", "a b"]);
        assert_eq!(v.n_features(), 2);
    }

    fn ngrams_of(config: &VectorizerConfig, doc: &str) -> Vec<String> {
        let mut out = Vec::new();
        config.analyze(doc, |g| out.push(g.to_string()));
        out
    }

    #[test]
    fn analyze_slices_one_normalised_buffer() {
        let word = VectorizerConfig {
            ngram_hi: 2,
            ..word_config()
        };
        assert_eq!(
            ngrams_of(&word, "Hello,  GBDT-world!"),
            vec!["hello", "gbdt", "world", "hello gbdt", "gbdt world"]
        );
        let chars = VectorizerConfig {
            analyzer: Analyzer::Char,
            ngram_lo: 2,
            ngram_hi: 3,
            ..word_config()
        };
        assert_eq!(ngrams_of(&chars, " A\t b "), vec!["a ", " b", "a b"]);
        assert_eq!(ngrams_of(&chars, "hÉé"), vec!["hé", "éé", "héé"]);
        assert!(ngrams_of(&chars, "x").is_empty());
    }

    #[test]
    fn ascii_byte_classes_agree_with_char_predicates() {
        // The byte path of `normalise` stands on these equalities.
        for b in 0u8..=0x7f {
            let ch = char::from(b);
            assert_eq!(b.is_ascii_alphanumeric(), ch.is_alphanumeric(), "{b:#x}");
            assert_eq!(is_space(b), ch.is_whitespace(), "{b:#x}");
            assert!(ch.to_lowercase().eq([char::from(b.to_ascii_lowercase())]));
        }
    }

    #[test]
    fn analyze_is_reentrant() {
        // The callback analyzes another document (and featurizes one)
        // while the outer call's scratch is checked out.
        let config = VectorizerConfig {
            ngram_hi: 2,
            ..word_config()
        };
        let mut v = TfIdfVectorizer::new(config.clone()).unwrap();
        v.fit(&["x y z", "alpha beta"]);
        let outer_expected = ngrams_of(&config, "Alpha beta gamma");
        let inner_expected = ngrams_of(&config, "x Y z");
        let row_expected = v.transform_one("x y z").unwrap();

        let mut outer = Vec::new();
        config.analyze("Alpha beta gamma", |g| {
            outer.push(g.to_string());
            assert_eq!(ngrams_of(&config, "x Y z"), inner_expected);
            assert_eq!(v.transform_one("x y z").unwrap(), row_expected);
        });
        assert_eq!(outer, outer_expected);
        // And the scratch is back in place for the next caller.
        assert_eq!(ngrams_of(&config, "x Y z"), inner_expected);
    }

    #[test]
    #[should_panic(expected = "invalid n-gram range")]
    fn analyze_rejects_a_zero_order() {
        let config = VectorizerConfig {
            ngram_lo: 0,
            ..word_config()
        };
        config.analyze("a b", |_| {});
    }

    #[test]
    fn repeated_terms_are_run_length_counted() {
        let mut v = CountVectorizer::new(word_config()).unwrap();
        v.fit(&["a b c"]);
        assert_eq!(
            v.transform_one("c a c b c a zzz").unwrap(),
            vec![(0, 2.0), (1, 1.0), (2, 3.0)]
        );
        assert!(v.transform_one("").unwrap().is_empty());
    }

    #[test]
    fn batch_matches_single_row() {
        let mut v = TfIdfVectorizer::new(word_config()).unwrap();
        let docs = ["quick brown fox", "lazy dog", "quick dog"];
        v.fit(&docs);
        let batch = v.transform(&docs).unwrap();
        for (r, doc) in docs.iter().enumerate() {
            assert_eq!(batch.row_pairs(r), v.transform_one(doc).unwrap());
        }
    }
}
