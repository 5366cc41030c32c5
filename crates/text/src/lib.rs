//! # etap-text — text-processing substrate for the ETAP reproduction
//!
//! This crate provides every low-level text primitive the ETAP pipeline
//! (Ramakrishnan et al., *Automatic Sales Lead Generation from Web Data*,
//! ICDE 2006) depends on:
//!
//! * [`tokenize`] — an offset-preserving word/number/punctuation tokenizer
//!   with shape classification (capitalised, all-caps, numeric, …),
//! * [`SentenceChunker`] — the rule-based sentence-boundary detector the
//!   paper describes in §3.1 ("we have built a sentence chunker based on
//!   rules for sentence boundary detection"),
//! * [`SnippetGenerator`] — splits documents into *snippets*: groups of
//!   `n` consecutive sentences (`n = 3` in the paper),
//! * [`stem()`](stem::stem) — a complete Porter stemmer, used during feature
//!   extraction,
//! * [`stopwords`] — a standard English stop-word list,
//! * [`Vocabulary`] — string interning so downstream feature vectors can
//!   use dense `u32` ids instead of owned strings,
//! * [`LexemeMemo`] — a bounded per-worker memo of the attributes that
//!   depend only on a token's surface (POS tag, stem, …).
//!
//! Everything here is deterministic and allocation-conscious: tokenizers
//! return borrowed slices with byte offsets, and hot paths avoid per-token
//! `String` construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memo;
pub mod sentence;
pub mod snippet;
pub mod stem;
pub mod stopwords;
pub mod token;
pub mod vocab;

pub use memo::LexemeMemo;
pub use sentence::{SentenceChunker, SentenceSpan};
pub use snippet::{Snippet, SnippetGenerator, SnippetScratch};
pub use stem::{stem, stem_with};
pub use stopwords::is_stopword;
pub use token::{
    is_capitalized, lower_cow, lower_into, tokenize, tokenize_into, Token, TokenKind, TokenSpan,
};
pub use vocab::{TermId, Vocabulary};
