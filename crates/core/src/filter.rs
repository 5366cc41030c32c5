//! Snippet filters: boolean combinations of named-entity tags and
//! keywords.
//!
//! §3.3.1, step 2: *"we use simple filters to extract only those
//! snippets that contain specific combinations of named entity tags or
//! keywords. For instance, one of the combinations that were used as a
//! snippet-level filter for the sales driver change in management was
//! 'Designation AND (Person OR Organization)'. For the sales driver
//! revenue growth, one of the filters used was 'Organization AND
//! (Currency OR percent figure)'."*
//!
//! Filters are also **expressible as text** — the grammar driver files
//! use (see DESIGN.md §13):
//!
//! ```text
//! expr  := or
//! or    := and ( "OR" and )*
//! and   := not ( "AND" not )*
//! not   := "NOT" not | atom
//! atom  := "(" expr ")" | "TRUE"
//!        | CATEGORY            e.g. DESIG, PRSN, ORG, CURRENCY, PRCNT
//!        | ATLEAST(CATEGORY,n) e.g. ATLEAST(ORG,2)
//!        | KW(word)            e.g. KW(acquire)
//! ```
//!
//! `NOT` binds tighter than `AND`, which binds tighter than `OR` — so
//! `DESIG AND PRSN OR ORG` is `(DESIG AND PRSN) OR ORG`. Filters arrive
//! in driver and model files, so parsing is bounded: an expression
//! whose tree, or whose parentheses, nest deeper than [`MAX_DEPTH`]
//! levels is a [`FilterParseError`], never a stack overflow. [`Filter`]'s
//! `Display` emits this grammar back with minimal parentheses, and
//! `parse → display → parse` is the identity on filter trees (property
//! tested).

use etap_annotate::{AnnotatedSnippet, EntityCategory};
use std::fmt;
use std::str::FromStr;

/// Deepest filter tree — and deepest parenthesis nesting — the parser
/// accepts. Every filter a driver needs is a handful of levels deep;
/// the bound keeps parsing, matching, printing and dropping a parsed
/// filter within a small, fixed stack.
pub const MAX_DEPTH: usize = 128;

/// A boolean filter over an annotated snippet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// Snippet contains at least one entity of this category.
    Category(EntityCategory),
    /// Snippet contains at least `n` entities of this category
    /// (the paper's M&A filter needs *two* ORG annotations).
    AtLeast(EntityCategory, usize),
    /// Snippet contains this keyword (case-insensitive whole-token
    /// match).
    Keyword(String),
    /// Both sub-filters hold.
    And(Box<Filter>, Box<Filter>),
    /// Either sub-filter holds.
    Or(Box<Filter>, Box<Filter>),
    /// Sub-filter does not hold.
    Not(Box<Filter>),
    /// Always true (useful as a neutral element).
    True,
}

impl Filter {
    /// `a AND b` without the Box noise.
    #[must_use]
    pub fn and(self, other: Filter) -> Filter {
        Filter::And(Box::new(self), Box::new(other))
    }

    /// `a OR b`.
    #[must_use]
    pub fn or(self, other: Filter) -> Filter {
        Filter::Or(Box::new(self), Box::new(other))
    }

    /// `NOT a`.
    #[must_use]
    pub fn negate(self) -> Filter {
        Filter::Not(Box::new(self))
    }

    /// Shorthand for a category test.
    #[must_use]
    pub fn cat(c: EntityCategory) -> Filter {
        Filter::Category(c)
    }

    /// Shorthand for a keyword test.
    #[must_use]
    pub fn kw(word: &str) -> Filter {
        Filter::Keyword(word.to_lowercase())
    }

    /// Evaluate against an annotated snippet.
    #[must_use]
    pub fn matches(&self, snip: &AnnotatedSnippet) -> bool {
        match self {
            Filter::Category(c) => snip.contains_category(*c),
            Filter::AtLeast(c, n) => snip.count_category(*c) >= *n,
            Filter::Keyword(w) => snip.tokens().any(|t| t.text.eq_ignore_ascii_case(w)),
            Filter::And(a, b) => a.matches(snip) && b.matches(snip),
            Filter::Or(a, b) => a.matches(snip) || b.matches(snip),
            Filter::Not(a) => !a.matches(snip),
            Filter::True => true,
        }
    }

    /// Binding strength for `Display`'s minimal parenthesization:
    /// OR < AND < NOT < atoms.
    fn prec(&self) -> u8 {
        match self {
            Filter::Or(..) => 1,
            Filter::And(..) => 2,
            Filter::Not(..) => 3,
            _ => 4,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        let me = self.prec();
        if me < min {
            f.write_str("(")?;
        }
        match self {
            Filter::Category(c) => write!(f, "{}", c.tag())?,
            Filter::AtLeast(c, n) => write!(f, "ATLEAST({},{n})", c.tag())?,
            Filter::Keyword(w) => write!(f, "KW({w})")?,
            // Binary operators are left-associative in the grammar, so
            // the right child needs parens at equal precedence for the
            // reparse to rebuild the identical tree.
            Filter::And(a, b) => {
                a.fmt_prec(f, 2)?;
                f.write_str(" AND ")?;
                b.fmt_prec(f, 3)?;
            }
            Filter::Or(a, b) => {
                a.fmt_prec(f, 1)?;
                f.write_str(" OR ")?;
                b.fmt_prec(f, 2)?;
            }
            Filter::Not(a) => {
                f.write_str("NOT ")?;
                a.fmt_prec(f, 3)?;
            }
            Filter::True => f.write_str("TRUE")?,
        }
        if me < min {
            f.write_str(")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Error from parsing a filter expression, with the byte offset at
/// which parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterParseError {
    /// Byte offset into the expression text.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for FilterParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "filter expression error at byte {}: {}",
            self.pos, self.msg
        )
    }
}

impl std::error::Error for FilterParseError {}

impl FromStr for Filter {
    type Err = FilterParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Parser {
            src: s,
            pos: 0,
            open: 0,
        };
        let (expr, _) = p.parse_or()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("trailing input after expression"));
        }
        Ok(expr)
    }
}

/// Hand-rolled recursive-descent parser over the grammar in the module
/// docs. Word matching is case-insensitive (`and`, `And`, `AND` all
/// work); `KW(...)` arguments are taken verbatim up to the closing
/// parenthesis and lowercased (matching [`Filter::kw`]).
///
/// Each `parse_*` returns its subtree with the subtree's depth, and
/// every node built is checked against [`MAX_DEPTH`]. Only parentheses
/// recurse (`NOT` chains and `AND`/`OR` chains loop), and `open` bounds
/// them.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Parentheses currently open.
    open: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> FilterParseError {
        FilterParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.src[self.pos..]
            .chars()
            .next()
            .filter(|c| c.is_whitespace())
        {
            self.pos += c.len_utf8();
        }
    }

    /// The depth of a node whose deepest child is `child` levels deep.
    fn deeper(&self, child: usize) -> Result<usize, FilterParseError> {
        if child >= MAX_DEPTH {
            return Err(self.err(format!("filter nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(child + 1)
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    /// The next bare word (letters, digits, `_`), without consuming it.
    fn peek_word(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    }

    fn eat_word(&mut self) -> Option<&'a str> {
        let w = self.peek_word()?;
        self.pos += w.len();
        Some(w)
    }

    fn expect_char(&mut self, c: char) -> Result<(), FilterParseError> {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?}")))
        }
    }

    fn parse_or(&mut self) -> Result<(Filter, usize), FilterParseError> {
        let (mut left, mut depth) = self.parse_and()?;
        while self
            .peek_word()
            .is_some_and(|w| w.eq_ignore_ascii_case("OR"))
        {
            self.eat_word();
            let (right, right_depth) = self.parse_and()?;
            depth = self.deeper(depth.max(right_depth))?;
            left = left.or(right);
        }
        Ok((left, depth))
    }

    fn parse_and(&mut self) -> Result<(Filter, usize), FilterParseError> {
        let (mut left, mut depth) = self.parse_not()?;
        while self
            .peek_word()
            .is_some_and(|w| w.eq_ignore_ascii_case("AND"))
        {
            self.eat_word();
            let (right, right_depth) = self.parse_not()?;
            depth = self.deeper(depth.max(right_depth))?;
            left = left.and(right);
        }
        Ok((left, depth))
    }

    fn parse_not(&mut self) -> Result<(Filter, usize), FilterParseError> {
        let mut nots = 0usize;
        while self
            .peek_word()
            .is_some_and(|w| w.eq_ignore_ascii_case("NOT"))
        {
            self.eat_word();
            nots += 1;
        }
        let (mut inner, mut depth) = self.parse_atom()?;
        for _ in 0..nots {
            depth = self.deeper(depth)?;
            inner = inner.negate();
        }
        Ok((inner, depth))
    }

    fn parse_atom(&mut self) -> Result<(Filter, usize), FilterParseError> {
        if self.peek() == Some('(') {
            if self.open >= MAX_DEPTH {
                return Err(self.err(format!("parentheses nest deeper than {MAX_DEPTH} levels")));
            }
            self.pos += 1;
            self.open += 1;
            let inner = self.parse_or()?;
            self.open -= 1;
            self.expect_char(')')?;
            return Ok(inner);
        }
        let Some(word) = self.eat_word() else {
            return Err(self.err("expected a category, TRUE, KW(...), ATLEAST(...), or '('"));
        };
        let upper = word.to_ascii_uppercase();
        let leaf = match upper.as_str() {
            "TRUE" => Ok(Filter::True),
            "KW" => {
                self.expect_char('(')?;
                let rest = &self.src[self.pos..];
                let end = rest.find(')').ok_or_else(|| self.err("unclosed KW("))?;
                let arg = rest[..end].trim();
                if arg.is_empty() {
                    return Err(self.err("empty KW() keyword"));
                }
                self.pos += end + 1;
                Ok(Filter::kw(arg))
            }
            "ATLEAST" => {
                self.expect_char('(')?;
                let cat_word = self
                    .eat_word()
                    .ok_or_else(|| self.err("expected a category in ATLEAST"))?;
                let cat = parse_category(cat_word).map_err(|m| self.err(m))?;
                self.expect_char(',')?;
                let n_word = self
                    .eat_word()
                    .ok_or_else(|| self.err("expected a count in ATLEAST"))?;
                let n: usize = n_word
                    .parse()
                    .map_err(|_| self.err(format!("bad ATLEAST count {n_word:?}")))?;
                self.expect_char(')')?;
                Ok(Filter::AtLeast(cat, n))
            }
            _ => parse_category(word)
                .map(Filter::Category)
                .map_err(|m| self.err(m)),
        };
        Ok((leaf?, 1))
    }
}

fn parse_category(word: &str) -> Result<EntityCategory, String> {
    word.to_ascii_uppercase()
        .parse::<EntityCategory>()
        .map_err(|_| format!("unknown entity category {word:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etap_annotate::Annotator;

    fn annotate(text: &str) -> AnnotatedSnippet {
        Annotator::new().annotate(text)
    }

    #[test]
    fn paper_change_in_management_filter() {
        // "Designation AND (Person OR Organization)".
        let f = Filter::cat(EntityCategory::Desig)
            .and(Filter::cat(EntityCategory::Prsn).or(Filter::cat(EntityCategory::Org)));
        assert!(f.matches(&annotate("IBM named James Wilson as its new CEO.")));
        assert!(!f.matches(&annotate("The weather was mild on Monday.")));
        // Designation without any person/org fails.
        let desig_only = annotate("The new CEO starts on Monday.");
        assert!(desig_only.contains_category(EntityCategory::Desig));
        assert!(!desig_only.contains_category(EntityCategory::Prsn));
        assert!(!desig_only.contains_category(EntityCategory::Org));
        assert!(!f.matches(&desig_only));
    }

    #[test]
    fn paper_ma_filter_two_orgs() {
        // "Discard all snippets not containing two ORG annotations."
        let f = Filter::AtLeast(EntityCategory::Org, 2);
        assert!(f.matches(&annotate("IBM acquired Daksh for $160 million.")));
        assert!(!f.matches(&annotate("IBM reported results.")));
    }

    #[test]
    fn paper_revenue_filter() {
        // "Organization AND (Currency OR percent figure)".
        let f = Filter::cat(EntityCategory::Org)
            .and(Filter::cat(EntityCategory::Currency).or(Filter::cat(EntityCategory::Prcnt)));
        assert!(f.matches(&annotate("Oracle said revenue rose 10 % this quarter.")));
        assert!(f.matches(&annotate("Intel posted revenue of $8 billion.")));
        assert!(!f.matches(&annotate("Intel held a conference.")));
    }

    #[test]
    fn keyword_filter_is_case_insensitive_whole_token() {
        let f = Filter::kw("acquire");
        assert!(f.matches(&annotate("They plan to Acquire the firm.")));
        assert!(!f.matches(&annotate("The acquirer moved fast."))); // not whole token
    }

    #[test]
    fn not_and_true() {
        let f = Filter::True.and(Filter::cat(EntityCategory::Org).negate());
        assert!(f.matches(&annotate("rain fell all day.")));
        assert!(!f.matches(&annotate("IBM rose.")));
    }

    #[test]
    fn or_short_circuits_semantics() {
        let f = Filter::kw("merger").or(Filter::kw("acquisition"));
        assert!(f.matches(&annotate("The acquisition closed.")));
        assert!(f.matches(&annotate("A merger was announced.")));
        assert!(!f.matches(&annotate("A partnership was announced.")));
    }

    #[test]
    fn display_emits_the_grammar() {
        let cim = Filter::cat(EntityCategory::Desig)
            .and(Filter::cat(EntityCategory::Prsn).or(Filter::cat(EntityCategory::Org)));
        assert_eq!(cim.to_string(), "DESIG AND (PRSN OR ORG)");
        assert_eq!(
            Filter::AtLeast(EntityCategory::Org, 2)
                .and(Filter::kw("acquire"))
                .to_string(),
            "ATLEAST(ORG,2) AND KW(acquire)"
        );
        assert_eq!(
            Filter::kw("x").negate().or(Filter::True).to_string(),
            "NOT KW(x) OR TRUE"
        );
    }

    #[test]
    fn parse_precedence_matches_hand_built_trees() {
        // AND binds tighter than OR; NOT tighter than AND.
        let parsed: Filter = "DESIG AND PRSN OR ORG".parse().unwrap();
        let hand = Filter::cat(EntityCategory::Desig)
            .and(Filter::cat(EntityCategory::Prsn))
            .or(Filter::cat(EntityCategory::Org));
        assert_eq!(parsed, hand);

        let parsed: Filter = "NOT DESIG AND PRSN".parse().unwrap();
        let hand = Filter::cat(EntityCategory::Desig)
            .negate()
            .and(Filter::cat(EntityCategory::Prsn));
        assert_eq!(parsed, hand);

        // Parens override.
        let parsed: Filter = "DESIG AND (PRSN OR ORG)".parse().unwrap();
        let hand = Filter::cat(EntityCategory::Desig)
            .and(Filter::cat(EntityCategory::Prsn).or(Filter::cat(EntityCategory::Org)));
        assert_eq!(parsed, hand);
    }

    #[test]
    fn parse_display_parse_round_trips() {
        for expr in [
            "DESIG AND (PRSN OR ORG)",
            "ORG AND CURRENCY AND (KW(raised) OR KW(funding))",
            "ATLEAST(ORG,2) AND NOT KW(rumor)",
            "NOT NOT TRUE",
            "ORG OR (PRSN OR DESIG)",
        ] {
            let f: Filter = expr.parse().unwrap();
            let shown = f.to_string();
            let again: Filter = shown.parse().unwrap();
            assert_eq!(f, again, "{expr} -> {shown}");
        }
    }

    #[test]
    fn parse_is_case_insensitive_on_words() {
        let a: Filter = "desig and (prsn or org)".parse().unwrap();
        let b: Filter = "DESIG AND (PRSN OR ORG)".parse().unwrap();
        assert_eq!(a, b);
        // KW arguments keep Filter::kw's lowercasing.
        let k: Filter = "KW(Acquire)".parse().unwrap();
        assert_eq!(k, Filter::kw("acquire"));
    }

    /// Seeded-random property test: for any generated filter tree,
    /// `display` emits text the parser maps back to the identical tree.
    /// Runs in tier-1 (no external proptest dependency) off the repo's
    /// own deterministic PRNG.
    #[test]
    fn random_filters_round_trip_through_display_and_parse() {
        fn arb_filter(rng: &mut etap_runtime::Rng, depth: usize) -> Filter {
            let leaf = depth >= 4 || rng.gen_bool(0.35);
            if leaf {
                match rng.gen_range(0..4usize) {
                    0 => Filter::cat(*rng.choose(&EntityCategory::ALL).unwrap()),
                    1 => Filter::AtLeast(
                        *rng.choose(&EntityCategory::ALL).unwrap(),
                        rng.gen_range(1..5usize),
                    ),
                    2 => {
                        // KW arguments survive verbatim only lowercased
                        // and paren-free; generate within that alphabet.
                        let len = rng.gen_range(1..9usize);
                        let word: String = (0..len)
                            .map(|_| (b'a' + rng.gen_range(0..26u64) as u8) as char)
                            .collect();
                        Filter::kw(&word)
                    }
                    _ => Filter::True,
                }
            } else {
                match rng.gen_range(0..3usize) {
                    0 => arb_filter(rng, depth + 1).and(arb_filter(rng, depth + 1)),
                    1 => arb_filter(rng, depth + 1).or(arb_filter(rng, depth + 1)),
                    _ => arb_filter(rng, depth + 1).negate(),
                }
            }
        }

        let mut rng = etap_runtime::Rng::seed_from_u64(0xF117E12);
        for case in 0..512 {
            let f = arb_filter(&mut rng, 0);
            let shown = f.to_string();
            let reparsed: Filter = shown
                .parse()
                .unwrap_or_else(|e| panic!("case {case}: {shown:?}: {e}"));
            assert_eq!(reparsed, f, "case {case}: {shown}");
            // Display is a fixed point: re-rendering the reparsed tree
            // emits the same text.
            assert_eq!(reparsed.to_string(), shown, "case {case}");
        }
    }

    /// Seeded-random precedence check: flat `a OP b OP c` chains parse
    /// exactly as the hand-built left-associative tree with AND binding
    /// tighter than OR and NOT tightest.
    #[test]
    fn random_flat_chains_match_hand_built_precedence_trees() {
        let mut rng = etap_runtime::Rng::seed_from_u64(0xCAFE);
        for _ in 0..256 {
            let n = rng.gen_range(2..6usize);
            let mut text = String::new();
            let mut terms: Vec<(bool, Filter)> = Vec::new(); // (joined_by_or, term)
            for i in 0..n {
                let cat = *rng.choose(&EntityCategory::ALL).unwrap();
                let negated = rng.gen_bool(0.3);
                let by_or = i > 0 && rng.gen_bool(0.5);
                if i > 0 {
                    text.push_str(if by_or { " OR " } else { " AND " });
                }
                if negated {
                    text.push_str("NOT ");
                }
                text.push_str(cat.tag());
                let term = if negated {
                    Filter::cat(cat).negate()
                } else {
                    Filter::cat(cat)
                };
                terms.push((by_or, term));
            }
            // Hand-build: group maximal AND runs, then OR them left to
            // right.
            let mut or_groups: Vec<Filter> = Vec::new();
            for (by_or, term) in terms {
                if by_or || or_groups.is_empty() {
                    or_groups.push(term);
                } else {
                    let prev = or_groups.pop().unwrap();
                    or_groups.push(prev.and(term));
                }
            }
            let hand = or_groups.into_iter().reduce(|a, b| a.or(b)).unwrap();
            let parsed: Filter = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, hand, "{text}");
        }
    }

    #[test]
    fn non_ascii_whitespace_separates_tokens() {
        let want: Filter = "ORG AND PRSN".parse().unwrap();
        for text in [
            "ORG\u{a0}AND PRSN",
            "ORG AND\u{3000}PRSN",
            "\u{2003}ORG AND PRSN\u{a0}",
        ] {
            assert_eq!(text.parse::<Filter>(), Ok(want.clone()), "{text:?}");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_typed_error() {
        let n = 100_000;
        let parens = format!("{}ORG{}", "(".repeat(n), ")".repeat(n));
        let nots = format!("{}ORG", "NOT ".repeat(n));
        let ands = vec!["ORG"; n].join(" AND ");
        let ors = vec!["ORG"; n].join(" OR ");
        for text in [&parens, &nots, &ands, &ors] {
            let err = text.parse::<Filter>().expect_err("too deep");
            assert!(err.msg.contains("deeper than"), "{err}");
        }
        // Up to the bound parses: parentheses add no tree level, and a
        // chain of `MAX_DEPTH` NOTs over an atom is `MAX_DEPTH + 1` deep.
        let parens = format!("{}ORG{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert_eq!(
            parens.parse::<Filter>(),
            Ok(Filter::cat(EntityCategory::Org))
        );
        let nots = format!("{}ORG", "NOT ".repeat(MAX_DEPTH - 1));
        assert!(nots.parse::<Filter>().is_ok());
        assert!(format!("NOT {nots}").parse::<Filter>().is_err());
        let ands = vec!["ORG"; MAX_DEPTH].join(" AND ");
        assert!(ands.parse::<Filter>().is_ok());
        assert!(format!("{ands} AND ORG").parse::<Filter>().is_err());
    }

    /// Seeded fuzz over the grammar: token soup with multibyte
    /// whitespace, stray bytes and deep nesting. Every input parses to
    /// `Ok` or a typed `Err` whose offset lies inside the input — never
    /// a panic or a stack overflow — and an accepted filter re-parses
    /// from its own display.
    #[test]
    fn fuzzed_expressions_parse_or_fail_typed() {
        const PIECES: &[&str] = &[
            "ORG",
            "PRSN",
            "DESIG",
            "AND",
            "OR",
            "NOT",
            "not",
            "TRUE",
            "(",
            ")",
            "KW(",
            "ATLEAST(",
            ",",
            "2",
            "acquire",
            " ",
            " ",
            "\t",
            "\u{a0}",
            "\u{3000}",
            "\u{2003}",
            "é",
            "\u{1F600}",
            "_",
            "ß",
            "\u{0}",
        ];
        let mut rng = etap_runtime::Rng::seed_from_u64(0xF0221);
        for case in 0..3_000 {
            let mut text = String::new();
            if rng.gen_bool(0.1) {
                // Arbitrary scalar values, not only grammar pieces.
                text.extend(
                    (0..rng.gen_range(0..120usize))
                        .filter_map(|_| char::from_u32(rng.gen_range(0..0x11_0000u32))),
                );
            }
            if rng.gen_bool(0.1) {
                let depth = rng.gen_range(1..4 * MAX_DEPTH);
                let open = *rng.choose(&["(", "NOT ", "ORG AND ", "TRUE OR "]).unwrap();
                text.push_str(&open.repeat(depth));
            }
            for _ in 0..rng.gen_range(0..24usize) {
                text.push_str(rng.choose(PIECES).unwrap());
                if rng.gen_bool(0.6) {
                    text.push(' ');
                }
            }
            if rng.gen_bool(0.1) {
                text.push_str(&")".repeat(rng.gen_range(1..4 * MAX_DEPTH)));
            }
            match text.parse::<Filter>() {
                Ok(f) => assert_eq!(
                    f.to_string().parse::<Filter>(),
                    Ok(f),
                    "case {case}: {text:?}"
                ),
                Err(e) => assert!(e.pos <= text.len(), "case {case}: {text:?}: {e}"),
            }
        }
    }

    #[test]
    fn parse_errors_are_typed_with_position() {
        for bad in [
            "",
            "ORG AND",
            "ORG AND (",
            "BOGUSCAT",
            "KW()",
            "ATLEAST(ORG)",
            "ORG EXTRA",
            "(ORG",
        ] {
            let err = bad.parse::<Filter>().expect_err(bad);
            assert!(err.pos <= bad.len(), "{bad}: pos {}", err.pos);
            assert!(!err.to_string().is_empty());
        }
    }
}
