//! Word and character tokenization: the reference implementation.
//!
//! These functions (and those of [`crate::ngrams`]) *define* the
//! analyzers. Nothing on a featurization path calls them:
//! [`VectorizerConfig::analyze`](crate::VectorizerConfig::analyze)
//! produces the same n-grams from one reusable buffer, and is tested
//! against the composition of these, which allocates per token.

/// Split text into lowercase word tokens on non-alphanumeric
/// boundaries, discarding empty tokens.
///
/// ```
/// use willump_featurize::tokenize::words;
///
/// assert_eq!(words("Hello, GBDT-world!"), vec!["hello", "gbdt", "world"]);
/// ```
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for c in ch.to_lowercase() {
                cur.push(c);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Lowercase the text and collapse runs of whitespace to single
/// spaces; the character-n-gram analyzer runs over this form, matching
/// sklearn's `analyzer="char"` preprocessing used by the Toxic
/// benchmark entry.
pub fn normalize_chars(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = true;
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for c in ch.to_lowercase() {
                out.push(c);
            }
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_splits_and_lowercases() {
        assert_eq!(words("One two,THREE"), vec!["one", "two", "three"]);
        assert_eq!(words("a1-b2"), vec!["a1", "b2"]);
        assert_eq!(words(""), Vec::<String>::new());
        assert_eq!(words("...!!!"), Vec::<String>::new());
    }

    #[test]
    fn words_handles_unicode() {
        assert_eq!(words("Ünïcode tëst"), vec!["ünïcode", "tëst"]);
    }

    #[test]
    fn normalize_collapses_whitespace() {
        assert_eq!(normalize_chars("  A  b\t c \n"), "a b c");
        assert_eq!(normalize_chars(""), "");
        assert_eq!(normalize_chars("xyz"), "xyz");
    }
}
