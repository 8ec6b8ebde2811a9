//! Cheap string-statistic features.
//!
//! These are the inexpensive-but-informative features that make
//! Willump's end-to-end cascades effective on the text benchmarks:
//! an approximate model can often classify a document from its length,
//! capitalization, and punctuation profile alone, without paying for
//! TF-IDF over character n-grams.

use std::cell::Cell;

use willump_data::Matrix;

/// Names of the statistics produced by [`string_stats`], in order.
pub const STRING_STAT_NAMES: [&str; 8] = [
    "char_len",
    "word_count",
    "mean_word_len",
    "upper_ratio",
    "digit_ratio",
    "punct_ratio",
    "exclamation_count",
    "unique_word_ratio",
];

/// A word of the document: its first eight bytes (zero-padded) and
/// its byte span.
type Word = (u64, usize, usize);

thread_local! {
    /// The current document's words; reused so that a warmed-up
    /// thread computes the statistics without allocating.
    static WORDS: Cell<Vec<Word>> = const { Cell::new(Vec::new()) };
}

/// Compute the eight string statistics for one document.
pub fn string_stats(text: &str) -> [f64; 8] {
    let mut words = WORDS.take();
    words.clear();
    let mut push_word = |start: usize, end: usize| {
        let mut head = [0u8; 8];
        let n = (end - start).min(8);
        head[..n].copy_from_slice(&text.as_bytes()[start..start + n]);
        words.push((u64::from_be_bytes(head), start, end));
    };
    let (mut char_len, mut word_chars) = (0usize, 0usize);
    let (mut upper, mut digit, mut punct, mut exclam) = (0usize, 0usize, 0usize, 0usize);
    let mut word_start: Option<usize> = None;
    for (at, ch) in text.char_indices() {
        char_len += 1;
        upper += usize::from(ch.is_uppercase());
        digit += usize::from(ch.is_ascii_digit());
        punct += usize::from(ch.is_ascii_punctuation());
        exclam += usize::from(ch == '!');
        if ch.is_whitespace() {
            if let Some(start) = word_start.take() {
                push_word(start, at);
            }
        } else {
            word_chars += 1;
            word_start.get_or_insert(at);
        }
    }
    if let Some(start) = word_start {
        push_word(start, text.len());
    }
    let word_count = words.len();
    // Distinct words: sort equal ones together and drop the repeats.
    // Any total order does; this one is mostly decided by the heads,
    // without going back to the text.
    let order =
        |a: &Word, b: &Word| (a.0.cmp(&b.0)).then_with(|| text[a.1..a.2].cmp(&text[b.1..b.2]));
    words.sort_unstable_by(order);
    words.dedup_by(|a, b| order(a, b).is_eq());
    let unique_words = words.len();
    WORDS.set(words);

    let per_word = |x: usize| {
        if word_count == 0 {
            0.0
        } else {
            x as f64 / word_count as f64
        }
    };
    let denom = char_len.max(1) as f64;
    [
        char_len as f64,
        word_count as f64,
        per_word(word_chars),
        upper as f64 / denom,
        digit as f64 / denom,
        punct as f64 / denom,
        exclam as f64,
        per_word(unique_words),
    ]
}

/// Compute string statistics for a batch of documents.
pub fn string_stats_batch<S: AsRef<str>>(docs: &[S]) -> Matrix {
    let mut out = Matrix::zeros(docs.len(), STRING_STAT_NAMES.len());
    for (r, doc) in docs.iter().enumerate() {
        out.row_mut(r).copy_from_slice(&string_stats(doc.as_ref()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_is_all_zero() {
        assert_eq!(string_stats(""), [0.0; 8]);
    }

    #[test]
    fn counts_are_right() {
        let s = string_stats("Hi there!! 42");
        assert_eq!(s[0], 13.0); // chars
        assert_eq!(s[1], 3.0); // words
        assert_eq!(s[6], 2.0); // exclamations
        assert!((s[4] - 2.0 / 13.0).abs() < 1e-12); // digits
        assert!((s[3] - 1.0 / 13.0).abs() < 1e-12); // uppercase
    }

    #[test]
    fn unique_word_ratio() {
        let s = string_stats("spam spam spam ham");
        assert!((s[7] - 0.5).abs() < 1e-12);
    }

    /// The definition: each statistic by its own pass over the text.
    fn multi_pass(text: &str) -> [f64; 8] {
        let char_len = text.chars().count();
        let count = |f: fn(char) -> bool| text.chars().filter(|c| f(*c)).count() as f64;
        let words: Vec<&str> = text.split_whitespace().collect();
        let per_word = |x: usize| {
            if words.is_empty() {
                0.0
            } else {
                x as f64 / words.len() as f64
            }
        };
        let mut distinct = words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let denom = char_len.max(1) as f64;
        [
            char_len as f64,
            words.len() as f64,
            per_word(words.iter().map(|w| w.chars().count()).sum()),
            count(char::is_uppercase) / denom,
            count(|c| c.is_ascii_digit()) / denom,
            count(|c| c.is_ascii_punctuation()) / denom,
            count(|c| c == '!'),
            per_word(distinct.len()),
        ]
    }

    #[test]
    fn single_pass_matches_the_definition() {
        for doc in [
            "",
            " ",
            "a",
            "Hi there!! 42",
            "spam spam spam ham",
            "  lead and trail  ",
            "tab\tand\x0Bvt\x0Cff\nnl",
            "nb\u{A0}sp em\u{2003}sp",
            "ÉCOLE école ÉCOLE İ!",
            "b a b a B",
            "one-word",
            "!!! ??? !!!",
        ] {
            assert_eq!(string_stats(doc), multi_pass(doc), "{doc:?}");
            // Again, now on the span buffer the first call left.
            assert_eq!(string_stats(doc), multi_pass(doc), "{doc:?}");
        }
    }

    #[test]
    fn batch_matches_single() {
        let docs = ["one two", "THREE!!!"];
        let m = string_stats_batch(&docs);
        assert_eq!(m.row(0), &string_stats(docs[0]));
        assert_eq!(m.row(1), &string_stats(docs[1]));
    }

    #[test]
    fn names_match_width() {
        assert_eq!(STRING_STAT_NAMES.len(), string_stats("x").len());
    }
}
