//! `VectorizerConfig::analyze` against its specification.
//!
//! `tokenize::{words, normalize_chars}` composed with
//! `ngrams::{word_ngrams, char_ngrams}` define what the analyzers
//! yield; `analyze` produces the same n-grams from one reusable buffer
//! and takes a byte-level fast path on ASCII documents. That path must
//! be invisible: same n-grams, same order, on every input — including
//! the ones where bytes and `char`s disagree (vertical tab is
//! whitespace to `char` but not to `u8::is_ascii_whitespace`) and
//! where lower-casing changes a string's length (`İ`).

use proptest::prelude::*;
use willump_featurize::ngrams::{char_ngrams, word_ngrams};
use willump_featurize::tokenize::{normalize_chars, words};
use willump_featurize::{Analyzer, VectorizerConfig};

/// What the specification yields for `doc`.
fn reference(config: &VectorizerConfig, doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (lo, hi) = (config.ngram_lo, config.ngram_hi);
    match config.analyzer {
        Analyzer::Word => word_ngrams(&words(doc), lo, hi, |g| out.push(g.to_string())),
        Analyzer::Char => char_ngrams(&normalize_chars(doc), lo, hi, |g| out.push(g.to_string())),
    }
    out
}

fn analyzed(config: &VectorizerConfig, doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    config.analyze(doc, |g| out.push(g.to_string()));
    out
}

fn configs() -> Vec<VectorizerConfig> {
    let mut out = Vec::new();
    for analyzer in [Analyzer::Word, Analyzer::Char] {
        for (ngram_lo, ngram_hi) in [(1, 3), (2, 5), (1, 1)] {
            out.push(VectorizerConfig {
                analyzer,
                ngram_lo,
                ngram_hi,
                ..VectorizerConfig::default()
            });
        }
    }
    out
}

/// Building blocks of generated documents; the first `ASCII_PIECES`
/// are ASCII, so that documents taking the byte path are as common as
/// those that do not.
const PIECES: &[&str] = &[
    "a", "B", "Zq", "x7", "42", " ", "  ", "\t", "\n", "\r", "\x0B", "\x0C", "\x1F", "\0", ".",
    "!?", "-", "_", "'s", // ASCII up to here
    "\u{A0}", "\u{2003}", "\u{85}", "\u{2028}", // non-ASCII whitespace
    "İ", "ß", "ẞ", "É", "ǅ", "\u{212A}", // lower-casing changes length or script
    "e\u{301}", "\u{301}", "\u{308}x", // combining marks
    "日本", "٣", "½", "—", "«",
];
const ASCII_PIECES: usize = 19;

fn document(picks: &[usize], ascii_only: bool) -> String {
    let pool = if ascii_only {
        &PIECES[..ASCII_PIECES]
    } else {
        PIECES
    };
    picks.iter().map(|&i| pool[i % pool.len()]).collect()
}

#[test]
fn ascii_pieces_are_ascii() {
    assert!(PIECES[..ASCII_PIECES].iter().all(|p| p.is_ascii()));
    assert!(PIECES[ASCII_PIECES..].iter().all(|p| !p.is_ascii()));
}

#[test]
fn edge_documents_match_the_reference() {
    let docs = [
        "",
        " ",
        "...!!!",
        "\x0B",
        "a\x0Bb",
        "a\x0B\x0Cb  c",
        "\x0Ba b\x0B",
        "İ",
        "İstanbul İ",
        "Straße STRASSE ẞ",
        "a\u{A0}b\u{2003}c",
        "\u{A0}",
        "e\u{301}e\u{301}",
        "x",
        "Hello, GBDT-world!",
        "  A  b\t c \n",
    ];
    for config in configs() {
        for doc in docs {
            assert_eq!(
                analyzed(&config, doc),
                reference(&config, doc),
                "{doc:?} under {config:?}"
            );
        }
    }
}

#[test]
fn vertical_tab_separates_char_ngrams() {
    // The reason the byte path cannot use `u8::is_ascii_whitespace`.
    let config = VectorizerConfig {
        analyzer: Analyzer::Char,
        ngram_lo: 3,
        ngram_hi: 3,
        ..VectorizerConfig::default()
    };
    assert_eq!(analyzed(&config, "a\x0B\x0Bb"), vec!["a b"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn analyze_yields_the_reference_sequence(
        picks in prop::collection::vec(0usize..1_000, 0..24),
        ascii_only in any::<bool>(),
    ) {
        let doc = document(&picks, ascii_only);
        for config in configs() {
            prop_assert_eq!(
                analyzed(&config, &doc),
                reference(&config, &doc),
                "{:?} under {:?}", doc, config
            );
        }
    }
}
