//! N-gram extraction over word tokens and characters: the reference
//! implementation (see [`crate::tokenize`]), kept as the specification
//! [`VectorizerConfig::analyze`](crate::VectorizerConfig::analyze) is
//! tested against.

/// Emit word n-grams of orders `lo..=hi` (joined with spaces) into
/// `out`, calling `f` once per n-gram.
///
/// ```
/// use willump_featurize::ngrams::word_ngrams;
///
/// let toks = vec!["a".to_string(), "b".to_string(), "c".to_string()];
/// let mut grams = Vec::new();
/// word_ngrams(&toks, 1, 2, |g| grams.push(g.to_string()));
/// assert_eq!(grams, vec!["a", "b", "c", "a b", "b c"]);
/// ```
///
/// # Panics
/// Panics if `lo == 0` or `lo > hi`.
pub fn word_ngrams(tokens: &[String], lo: usize, hi: usize, mut f: impl FnMut(&str)) {
    assert!(lo >= 1 && lo <= hi, "invalid n-gram range {lo}..={hi}");
    let mut buf = String::new();
    for n in lo..=hi {
        if n > tokens.len() {
            break;
        }
        for window in tokens.windows(n) {
            buf.clear();
            for (i, tok) in window.iter().enumerate() {
                if i > 0 {
                    buf.push(' ');
                }
                buf.push_str(tok);
            }
            f(&buf);
        }
    }
}

/// Emit character n-grams of orders `lo..=hi` from normalized text,
/// calling `f` once per n-gram.
///
/// Operates on `char` boundaries, so multi-byte text is safe.
///
/// # Panics
/// Panics if `lo == 0` or `lo > hi`.
pub fn char_ngrams(text: &str, lo: usize, hi: usize, mut f: impl FnMut(&str)) {
    assert!(lo >= 1 && lo <= hi, "invalid n-gram range {lo}..={hi}");
    let chars: Vec<char> = text.chars().collect();
    let mut buf = String::new();
    for n in lo..=hi {
        if n > chars.len() {
            break;
        }
        for window in chars.windows(n) {
            buf.clear();
            buf.extend(window.iter());
            f(&buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_words(tokens: &[&str], lo: usize, hi: usize) -> Vec<String> {
        let toks: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        word_ngrams(&toks, lo, hi, |g| out.push(g.to_string()));
        out
    }

    fn collect_chars(text: &str, lo: usize, hi: usize) -> Vec<String> {
        let mut out = Vec::new();
        char_ngrams(text, lo, hi, |g| out.push(g.to_string()));
        out
    }

    #[test]
    fn unigrams_only() {
        assert_eq!(collect_words(&["x", "y"], 1, 1), vec!["x", "y"]);
    }

    #[test]
    fn bigram_window() {
        assert_eq!(
            collect_words(&["a", "b", "c"], 2, 3),
            vec!["a b", "b c", "a b c"]
        );
    }

    #[test]
    fn short_input_yields_what_fits() {
        assert_eq!(collect_words(&["solo"], 2, 3), Vec::<String>::new());
        assert_eq!(collect_words(&["solo"], 1, 3), vec!["solo"]);
    }

    #[test]
    fn char_ngrams_basic() {
        assert_eq!(collect_chars("abc", 2, 2), vec!["ab", "bc"]);
        assert_eq!(collect_chars("ab", 1, 3), vec!["a", "b", "ab"]);
    }

    #[test]
    fn char_ngrams_multibyte_safe() {
        assert_eq!(collect_chars("héé", 2, 2), vec!["hé", "éé"]);
    }

    #[test]
    #[should_panic(expected = "invalid n-gram range")]
    fn zero_order_panics() {
        word_ngrams(&[], 0, 1, |_| {});
    }
}
