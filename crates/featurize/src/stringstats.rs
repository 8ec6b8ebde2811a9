//! Cheap string-statistic features.
//!
//! These are the inexpensive-but-informative features that make
//! Willump's end-to-end cascades effective on the text benchmarks:
//! an approximate model can often classify a document from its length,
//! capitalization, and punctuation profile alone, without paying for
//! TF-IDF over character n-grams.

use std::cell::{Cell, RefCell};

use willump_data::Matrix;

use crate::vocab::term_hash;

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

/// What [`string_stats`] counts in a document.
struct Counts {
    chars: usize,
    words: usize,
    word_chars: usize,
    upper: usize,
    digit: usize,
    punct: usize,
    exclam: usize,
    unique_words: usize,
}

/// Compute the eight string statistics for one document.
pub fn string_stats(text: &str) -> [f64; 8] {
    let ascii = if text.is_ascii() {
        WORD_SET.with_borrow_mut(|set| ascii_counts(text.as_bytes(), set))
    } else {
        None
    };
    let c = ascii.unwrap_or_else(|| char_counts(text));
    let per_word = |x: usize| {
        if c.words == 0 {
            0.0
        } else {
            x as f64 / c.words as f64
        }
    };
    let denom = c.chars.max(1) as f64;
    [
        c.chars as f64,
        c.words as f64,
        per_word(c.word_chars),
        c.upper as f64 / denom,
        c.digit as f64 / denom,
        c.punct as f64 / denom,
        c.exclam as f64,
        per_word(c.unique_words),
    ]
}

/// Per ASCII byte, one 32-bit counter lane each for upper case,
/// digit, punctuation and `!`; adding a byte's entry counts it in all
/// four. Bytes above 0x7f never reach the table.
const BYTE_CLASSES: [u128; 256] = {
    let mut table = [0u128; 256];
    let mut b = 0;
    while b < 128 {
        let byte = b as u8;
        table[b] = byte.is_ascii_uppercase() as u128
            | (byte.is_ascii_digit() as u128) << 32
            | (byte.is_ascii_punctuation() as u128) << 64
            | ((byte == b'!') as u128) << 96;
        b += 1;
    }
    table
};

/// `char::is_whitespace` on an ASCII byte (vertical tab included,
/// unlike `u8::is_ascii_whitespace`).
pub(crate) fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// The counts of an ASCII document in one pass over its bytes, or
/// `None` if it has more distinct words than `set` holds (or is too
/// long for its spans).
fn ascii_counts(text: &[u8], set: &mut WordSet) -> Option<Counts> {
    if u32::try_from(text.len()).is_err() {
        return None;
    }
    set.clear();
    let n = text.len();
    let (mut lanes, mut words, mut word_chars) = (0u128, 0usize, 0usize);
    let mut i = 0;
    loop {
        // Whitespace is none of the four classes: skip it uncounted.
        while i < n && is_space(text[i]) {
            i += 1;
        }
        if i == n {
            break;
        }
        let start = i;
        while i < n && !is_space(text[i]) {
            lanes += BYTE_CLASSES[usize::from(text[i])];
            i += 1;
        }
        words += 1;
        word_chars += i - start;
        if !set.insert(text, start, i) {
            return None;
        }
    }
    // No lane reaches 2^32: each counts at most `n` bytes.
    let lane = |k: u32| (lanes >> (32 * k)) as u32 as usize;
    Some(Counts {
        chars: n,
        words,
        word_chars,
        upper: lane(0),
        digit: lane(1),
        punct: lane(2),
        exclam: lane(3),
        unique_words: set.len,
    })
}

/// Slots of the [`WordSet`]; it takes up to half as many words.
const WORD_SLOTS: usize = 256;

/// One word of the current document in the [`WordSet`]: the round it
/// was inserted in, 32 bits of its hash and its byte span.
#[derive(Clone, Copy)]
struct WordSlot {
    round: u32,
    hash: u32,
    start: u32,
    end: u32,
}

const FREE_SLOT: WordSlot = WordSlot {
    round: 0,
    hash: 0,
    start: 0,
    end: 0,
};

/// The distinct words of one document, as spans of its text in an
/// open-addressed table. A slot belongs to the current document only
/// if it carries the current round, so clearing the set is one
/// increment rather than a pass over every slot.
struct WordSet {
    slots: [WordSlot; WORD_SLOTS],
    round: u32,
    len: usize,
}

impl WordSet {
    const fn new() -> WordSet {
        WordSet {
            slots: [FREE_SLOT; WORD_SLOTS],
            round: 0,
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // Round 0 marks free slots: start over once it comes back.
            self.slots = [FREE_SLOT; WORD_SLOTS];
            self.round = 1;
        }
    }

    /// Add the word `text[start..end]` unless an equal word is in the
    /// set already; `false` if it is new and the set is half full.
    /// Equal hashes are only a hint: the bytes decide.
    fn insert(&mut self, text: &[u8], start: usize, end: usize) -> bool {
        let word = &text[start..end];
        // The hash's low bits are its strongest (see `TermHasher`):
        // they pick the slot, and the tag extends them.
        let hash = term_hash(word);
        let tag = hash as u32;
        let mut at = hash as usize % WORD_SLOTS;
        loop {
            let slot = &mut self.slots[at];
            if slot.round != self.round {
                if self.len == WORD_SLOTS / 2 {
                    return false;
                }
                // Spans fit: `ascii_counts` takes texts below 4 GiB.
                *slot = WordSlot {
                    round: self.round,
                    hash: tag,
                    start: start as u32,
                    end: end as u32,
                };
                self.len += 1;
                return true;
            }
            if slot.hash == tag && text[slot.start as usize..slot.end as usize] == *word {
                return true;
            }
            at = (at + 1) % WORD_SLOTS;
        }
    }
}

/// A word of the document: its first eight bytes (zero-padded) and
/// its byte span.
type Word = (u64, usize, usize);

thread_local! {
    /// The distinct words of the ASCII path; a fixed array, so it
    /// never allocates.
    static WORD_SET: RefCell<WordSet> = const { RefCell::new(WordSet::new()) };
    /// The current document's words on the general path; reused so
    /// that a warmed-up thread computes the statistics without
    /// allocating.
    static WORDS: Cell<Vec<Word>> = const { Cell::new(Vec::new()) };
}

/// The counts of any document, a `char` at a time; distinct words
/// are counted by sorting the words.
fn char_counts(text: &str) -> Counts {
    let mut words = WORDS.take();
    words.clear();
    let mut push_word = |start: usize, end: usize| {
        let mut head = [0u8; 8];
        let n = (end - start).min(8);
        head[..n].copy_from_slice(&text.as_bytes()[start..start + n]);
        words.push((u64::from_be_bytes(head), start, end));
    };
    let (mut chars, mut word_chars) = (0usize, 0usize);
    let (mut upper, mut digit, mut punct, mut exclam) = (0usize, 0usize, 0usize, 0usize);
    let mut word_start: Option<usize> = None;
    for (at, ch) in text.char_indices() {
        chars += 1;
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
    Counts {
        chars,
        words: word_count,
        word_chars,
        upper,
        digit,
        punct,
        exclam,
        unique_words,
    }
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
    use proptest::prelude::*;

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

    /// Building blocks of generated documents: every ASCII whitespace
    /// byte (vertical tab and form feed are whitespace to `char` only),
    /// bytes that are not, punctuation, case, digits, and non-ASCII
    /// text and whitespace.
    const PIECES: &[&str] = &[
        " ", "  ", "\t", "\n", "\r", "\x0B", "\x0C", "\x1F", "\0", "spam", "Spam", "SPAM", "ham",
        "a", "x7", "42", "!", "!!", "?", ".", "-", "'s", "\u{A0}", "\u{2003}", "É", "école", "İ",
        "日本",
    ];
    /// The first `ASCII_PIECES` of [`PIECES`] are ASCII.
    const ASCII_PIECES: usize = 22;

    /// A document from `picks`: a quarter whitespace, a quarter
    /// pieces, half words numbered by their pick — so a long document
    /// holds more distinct words than the ASCII path's set.
    fn document(picks: &[usize], ascii_only: bool) -> String {
        let pool = if ascii_only {
            &PIECES[..ASCII_PIECES]
        } else {
            PIECES
        };
        let mut doc = String::new();
        for &p in picks {
            match p % 4 {
                0 => doc.push(' '),
                1 => doc.push_str(pool[p / 4 % pool.len()]),
                _ => doc.push_str(&format!("w{}", p / 4)),
            }
        }
        doc
    }

    #[test]
    fn pieces_are_split_at_ascii_pieces() {
        assert!(PIECES[..ASCII_PIECES].iter().all(|p| p.is_ascii()));
        assert!(PIECES[ASCII_PIECES..].iter().all(|p| !p.is_ascii()));
    }

    #[test]
    fn a_set_overflow_falls_back_to_sorting() {
        let doc: String = (0..WORD_SLOTS)
            .map(|i| format!("w{} w{i} ", i % 7))
            .collect();
        let mut set = WordSet::new();
        assert!(ascii_counts(doc.as_bytes(), &mut set).is_none());
        let fits = &doc.as_bytes()[..doc.len() / 4];
        assert!(ascii_counts(fits, &mut set).is_some());
        assert_eq!(string_stats(&doc), multi_pass(&doc));
        // Twice as many words as distinct ones: `w0`..`w6` come back.
        let stats = string_stats(&doc);
        assert_eq!((stats[1], stats[7]), ((2 * WORD_SLOTS) as f64, 0.5));
    }

    #[test]
    fn a_wrapped_round_clears_the_set() {
        let mut set = WordSet::new();
        set.round = u32::MAX;
        let counts = ascii_counts(b"b a b", &mut set).expect("fits");
        assert_eq!((set.round, counts.unique_words), (1, 2));
        let counts = ascii_counts(b"c", &mut set).expect("fits");
        assert_eq!((set.round, counts.unique_words), (2, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn string_stats_matches_the_definition(
            picks in prop::collection::vec(0usize..4_000, 0..400),
            ascii_only in any::<bool>(),
        ) {
            let doc = document(&picks, ascii_only);
            prop_assert_eq!(string_stats(&doc), multi_pass(&doc), "{:?}", doc);
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
