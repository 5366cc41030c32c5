//! Property tests: the byte-level scanner (`tokenize` / `tokenize_into`)
//! must be observably identical to the original char-iterator tokenizer,
//! kept in-tree as `token::reference::tokenize` as the executable spec.
//!
//! The repo's zero-dependency policy rules out `proptest`, so these use
//! the in-tree seeded PRNG: thousands of random texts drawn from an
//! alphabet stacked with the hard cases — joiners, digit separators,
//! control bytes, multibyte letters, combining marks — plus boundary
//! slices of those texts to probe mid-string starts.

use etap_runtime::Rng;
use etap_text::{lower_cow, lower_into, tokenize, tokenize_into, TokenSpan};

/// Alphabet biased toward tokenizer edge cases. ASCII letters/digits
/// appear several times so words form often; the tail carries every
/// special class the scanner branches on.
const ALPHABET: &[char] = &[
    'a',
    'b',
    'c',
    'e',
    'n',
    'r',
    's',
    't',
    'd',
    'h', // word-formers
    'A',
    'B',
    'I',
    'M',
    'Q', // capitals (AllCaps, Capitalized)
    '0',
    '1',
    '2',
    '5',
    '9', // digits (ordinals, times, decimals)
    ' ',
    ' ',
    ' ',
    '\t',
    '\n', // whitespace (dense)
    '.',
    ',',
    '\'',
    '-',
    ':',
    '$',
    '%',
    '(',
    ')', // joiners + punct
    '\u{0B}',
    '\u{7f}',
    '\u{85}',
    '\u{a0}',   // exotic space/control
    '\u{2019}', // curly apostrophe joiner
    'é',
    'ü',
    'ß',
    '中',
    '日',
    'Σ',
    'σ',
    'ς',        // multibyte letters
    '\u{0301}', // combining acute (non-alphanumeric, non-space)
    '€',
    '—',
    '…',         // multibyte punctuation
    '\u{1F600}', // 4-byte scalar
];

fn arb_text(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len);
    (0..len)
        .map(|_| *rng.choose(ALPHABET).expect("non-empty alphabet"))
        .collect()
}

/// The three public views must agree exactly: the reference iterator
/// (old implementation), the byte scanner, and the span writer. The
/// reference's tokens are ordered, disjoint slices of the text that
/// together cover every byte but whitespace and control characters.
fn assert_parity(text: &str) {
    let reference = etap_text::token::reference::tokenize(text);
    for tok in &reference {
        assert_eq!(&text[tok.start..tok.end], tok.text, "slice on {text:?}");
    }
    for w in reference.windows(2) {
        assert!(w[0].end <= w[1].start, "overlap on {text:?}");
    }
    let covered: usize = reference.iter().map(|t| t.text.len()).sum();
    let expected: usize = text
        .chars()
        .filter(|c| !c.is_whitespace() && !c.is_control())
        .map(char::len_utf8)
        .sum();
    assert_eq!(covered, expected, "coverage on {text:?}");
    let scanned = tokenize(text);
    assert_eq!(
        scanned, reference,
        "byte scanner diverged from reference on {text:?}"
    );

    let mut spans: Vec<TokenSpan> = Vec::new();
    tokenize_into(text, &mut spans);
    assert_eq!(spans.len(), reference.len(), "span count on {text:?}");
    for (span, tok) in spans.iter().zip(&reference) {
        assert_eq!(span.start as usize, tok.start, "start on {text:?}");
        assert_eq!(span.end as usize, tok.end, "end on {text:?}");
        assert_eq!(span.kind, tok.kind, "kind on {text:?}");
        assert_eq!(span.text(text), tok.text, "surface on {text:?}");
    }
}

#[test]
fn random_texts_tokenize_identically() {
    let mut rng = Rng::seed_from_u64(0x746f6b); // "tok"
    for _ in 0..4000 {
        let text = arb_text(&mut rng, 60);
        assert_parity(&text);
    }
}

#[test]
fn random_ascii_texts_tokenize_identically() {
    // Pure-ASCII inputs drive the scanner's fast path end to end.
    let mut rng = Rng::seed_from_u64(0x61736369); // "asci"
    for _ in 0..4000 {
        let text: String = {
            let len = rng.gen_range(0..80);
            (0..len)
                .map(|_| char::from(rng.gen_range(0x20u64..0x7fu64) as u8))
                .collect()
        };
        assert_parity(&text);
    }
}

#[test]
fn char_boundary_suffixes_tokenize_identically() {
    // Suffix slices probe every "what precedes the window" assumption
    // (joiner lookbehind, word starts) at each char boundary.
    let mut rng = Rng::seed_from_u64(0x5f5f);
    for _ in 0..300 {
        let text = arb_text(&mut rng, 40);
        for (i, _) in text.char_indices() {
            assert_parity(&text[i..]);
        }
    }
}

/// `lower_into` must write exactly what `lower_cow` (and so
/// `str::to_lowercase`) returns, for every word and whole text —
/// including the word-final capital sigma, which lowercases by context.
#[test]
fn lower_into_agrees_with_lower_cow() {
    fn check(word: &str, buf: &mut String) {
        lower_into(word, buf);
        assert_eq!(*buf, lower_cow(word), "{word:?}");
        assert_eq!(*buf, word.to_lowercase(), "{word:?}");
    }
    let mut buf = String::new();
    for word in [
        "ΟΔΟΣ",
        "Σ",
        "ΣΑ",
        "AΣ",
        "ΑΣ.",
        "ΑΣ\u{0301}",
        "ὈΔΥΣΣΕΎΣ",
        "İstanbul",
        "MIXED Case",
    ] {
        check(word, &mut buf);
    }
    assert_eq!(lower_cow("ΟΔΟΣ"), "οδος");
    let mut rng = Rng::seed_from_u64(0x6c6f77); // "low"
    for _ in 0..2000 {
        let text = arb_text(&mut rng, 40);
        check(&text, &mut buf);
        for tok in tokenize(&text) {
            check(tok.text, &mut buf);
        }
        let ascii: String = (0..rng.gen_range(0..24))
            .map(|_| char::from(rng.gen_range(0x20u64..0x7fu64) as u8))
            .collect();
        check(&ascii, &mut buf);
    }
}
