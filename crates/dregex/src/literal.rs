//! Literal prefix/suffix extraction from the AST.
//!
//! The provider patterns of §3.2 almost always end in a literal registered
//! domain (`(.+)\.iot\.…\.amazonaws\.com\.$`). A matcher that knows the
//! mandatory literal tail of a pattern can answer "which names could this
//! pattern possibly match?" with a suffix-index lookup instead of running
//! the full NFA over every name. This module computes, per pattern:
//!
//! * the **mandatory suffix**: a byte string every match must end with, and
//! * whether the pattern is **end-anchored**: every match must end at the
//!   end of input (`$` on every path).
//!
//! Only the combination of both makes the suffix usable as an index key:
//! an end-anchored pattern with mandatory suffix `S` can only ever match
//! names whose text ends with `S`. The extraction is conservative — when in
//! doubt it returns a shorter (possibly empty) literal, never a wrong one —
//! so index lookups are a superset of true matches and a per-candidate
//! verification run of the pattern's own regex stays sound. Mandatory
//! prefixes are computed symmetrically. The same soundness lets
//! [`crate::Regex`] reject an input lacking either literal before it runs
//! the VM.

use crate::ast::Ast;

/// A mandatory literal at one end of a (sub)pattern.
///
/// `bytes` is text every match of the subpattern must end (or start) with;
/// `exact` means the subpattern matches *exactly* `bytes` and nothing else,
/// which is what lets a literal keep growing across a concatenation.
struct Lit {
    bytes: Vec<u8>,
    exact: bool,
}

impl Lit {
    fn empty(exact: bool) -> Lit {
        Lit {
            bytes: Vec::new(),
            exact,
        }
    }
}

/// The mandatory literal suffix of every match of `ast`.
fn suffix_of(ast: &Ast) -> Lit {
    match ast {
        // Zero-width nodes match only the empty string.
        Ast::Empty | Ast::AnchorStart | Ast::AnchorEnd => Lit::empty(true),
        Ast::Class(set) => match set.as_single() {
            Some(b) => Lit {
                bytes: vec![b],
                exact: true,
            },
            None => Lit::empty(false),
        },
        Ast::Group(inner) => suffix_of(inner),
        Ast::Concat(parts) => {
            // Accumulate right-to-left while each part matches exactly its
            // literal; the first inexact part contributes its own mandatory
            // suffix and stops the accumulation.
            let mut bytes = Vec::new();
            let mut exact = true;
            for part in parts.iter().rev() {
                let mut t = suffix_of(part);
                t.bytes.extend(bytes);
                bytes = t.bytes;
                if !t.exact {
                    exact = false;
                    break;
                }
            }
            Lit { bytes, exact }
        }
        Ast::Alternate(branches) => {
            if branches.is_empty() {
                return Lit::empty(false);
            }
            let lits: Vec<Lit> = branches.iter().map(suffix_of).collect();
            let mut common = lits[0].bytes.clone();
            for l in &lits[1..] {
                let keep = common
                    .iter()
                    .rev()
                    .zip(l.bytes.iter().rev())
                    .take_while(|(a, b)| a == b)
                    .count();
                common.drain(..common.len() - keep);
            }
            let exact = lits.iter().all(|l| l.exact && l.bytes == common);
            Lit {
                bytes: common,
                exact,
            }
        }
        Ast::Repeat { node, min, max } => {
            let t = suffix_of(node);
            match (*min, *max) {
                // Optional: nothing is mandatory. (Exact only in the
                // degenerate cases where every count matches empty.)
                (0, _) => Lit::empty(t.exact && t.bytes.is_empty()),
                // Fixed count of an exact literal: the whole repeat is one.
                (m, Some(x)) if m == x && t.exact => Lit {
                    bytes: t.bytes.repeat(m as usize),
                    exact: true,
                },
                // At least one copy: the last copy's mandatory suffix holds.
                _ => Lit {
                    bytes: t.bytes,
                    exact: false,
                },
            }
        }
    }
}

/// The mandatory literal prefix of every match of `ast` (mirror image of
/// [`suffix_of`]).
fn prefix_of(ast: &Ast) -> Lit {
    match ast {
        Ast::Empty | Ast::AnchorStart | Ast::AnchorEnd => Lit::empty(true),
        Ast::Class(set) => match set.as_single() {
            Some(b) => Lit {
                bytes: vec![b],
                exact: true,
            },
            None => Lit::empty(false),
        },
        Ast::Group(inner) => prefix_of(inner),
        Ast::Concat(parts) => {
            let mut bytes = Vec::new();
            let mut exact = true;
            for part in parts {
                let t = prefix_of(part);
                bytes.extend(t.bytes);
                if !t.exact {
                    exact = false;
                    break;
                }
            }
            Lit { bytes, exact }
        }
        Ast::Alternate(branches) => {
            if branches.is_empty() {
                return Lit::empty(false);
            }
            let lits: Vec<Lit> = branches.iter().map(prefix_of).collect();
            let mut common = lits[0].bytes.clone();
            for l in &lits[1..] {
                let keep = common
                    .iter()
                    .zip(l.bytes.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                common.truncate(keep);
            }
            let exact = lits.iter().all(|l| l.exact && l.bytes == common);
            Lit {
                bytes: common,
                exact,
            }
        }
        Ast::Repeat { node, min, max } => {
            let t = prefix_of(node);
            match (*min, *max) {
                (0, _) => Lit::empty(t.exact && t.bytes.is_empty()),
                (m, Some(x)) if m == x && t.exact => Lit {
                    bytes: t.bytes.repeat(m as usize),
                    exact: true,
                },
                _ => Lit {
                    bytes: t.bytes,
                    exact: false,
                },
            }
        }
    }
}

/// Conservatively: must every match end at the end of input (`$`)?
pub fn ends_anchored(ast: &Ast) -> bool {
    match ast {
        Ast::AnchorEnd => true,
        Ast::Group(inner) => ends_anchored(inner),
        Ast::Concat(parts) => parts.last().is_some_and(ends_anchored),
        Ast::Alternate(parts) => !parts.is_empty() && parts.iter().all(ends_anchored),
        Ast::Repeat { node, min, .. } => *min >= 1 && ends_anchored(node),
        _ => false,
    }
}

/// Conservatively: must every match begin at the start of input (`^`)?
pub fn starts_anchored(ast: &Ast) -> bool {
    match ast {
        Ast::AnchorStart => true,
        Ast::Group(inner) => starts_anchored(inner),
        Ast::Concat(parts) => parts.first().is_some_and(starts_anchored),
        Ast::Alternate(parts) => !parts.is_empty() && parts.iter().all(starts_anchored),
        Ast::Repeat { node, min, .. } => *min >= 1 && starts_anchored(node),
        _ => false,
    }
}

/// Normalize an extracted literal for index use: require printable, valid
/// UTF-8 text and lowercase it when the pattern is case-insensitive.
fn normalize(lit: Lit, case_insensitive: bool) -> Option<String> {
    if lit.bytes.is_empty() {
        return None;
    }
    let mut s = String::from_utf8(lit.bytes).ok()?;
    if case_insensitive {
        s.make_ascii_lowercase();
    }
    Some(s)
}

/// The usable literal suffix of a pattern: text every match must end with,
/// *at the end of the input*. `None` when the pattern is not end-anchored
/// or no non-empty mandatory literal exists.
pub fn literal_suffix(ast: &Ast, case_insensitive: bool) -> Option<String> {
    if !ends_anchored(ast) {
        return None;
    }
    normalize(suffix_of(ast), case_insensitive)
}

/// The usable literal prefix of a pattern: text every match must start
/// with, at the start of the input. `None` when the pattern is not
/// start-anchored or no non-empty mandatory literal exists.
pub fn literal_prefix(ast: &Ast, case_insensitive: bool) -> Option<String> {
    if !starts_anchored(ast) {
        return None;
    }
    normalize(prefix_of(ast), case_insensitive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn suffix(pat: &str) -> Option<String> {
        literal_suffix(&parse(pat).unwrap(), false)
    }

    fn prefix(pat: &str) -> Option<String> {
        literal_prefix(&parse(pat).unwrap(), false)
    }

    #[test]
    fn plain_literal_tail() {
        assert_eq!(
            suffix(r"(.+)\.azure-devices\.net\.$").as_deref(),
            Some(".azure-devices.net.")
        );
    }

    #[test]
    fn unanchored_pattern_has_no_usable_suffix() {
        // Without `$` a match may end mid-name, so the literal cannot key a
        // suffix index.
        assert_eq!(suffix(r"(.+)\.azure-devices\.net\."), None);
    }

    #[test]
    fn alternation_takes_common_suffix() {
        // Branch-specific parts stop the literal; the shared tail survives.
        assert_eq!(
            suffix(r"(.+)\.(eu1|eu2|us1|cn1)\.mindsphere\.io\.$").as_deref(),
            Some(".mindsphere.io.")
        );
        // A common tail *within* the alternation is kept too.
        assert_eq!(suffix(r"(abc|xbc)$").as_deref(), Some("bc"));
        // No common tail at all: the literal stops before the alternation.
        assert_eq!(suffix(r"x(a|b)$"), None);
    }

    #[test]
    fn optional_tail_yields_nothing() {
        // `(\.)?` at the end: the dot is not mandatory, and the optional
        // node also breaks exactness for everything to its left.
        assert_eq!(suffix(r"(.+)com(\.)?$"), None);
        // But an optional *interior* group doesn't disturb the tail.
        assert_eq!(
            suffix(r"(.+)(-[a-z]+)?\.iot\.sap\.$").as_deref(),
            Some(".iot.sap.")
        );
    }

    #[test]
    fn no_extractable_literal() {
        assert_eq!(suffix(r"(.+)$"), None);
        assert_eq!(suffix(r"[a-z]+$"), None);
        assert_eq!(suffix(r".*$"), None);
    }

    #[test]
    fn counted_repeats_of_single_bytes_expand() {
        assert_eq!(suffix(r"(.+)a{3}$").as_deref(), Some("aaa"));
        // Variable count: only one copy is mandatory.
        assert_eq!(suffix(r"(.+)xa{2,5}$").as_deref(), Some("a"));
    }

    #[test]
    fn min_one_repeat_keeps_last_copy_suffix() {
        // `(\.com)+$`: every match ends with one full copy.
        assert_eq!(suffix(r"(.+)(\.com)+$").as_deref(), Some(".com"));
    }

    #[test]
    fn prefixes_mirror_suffixes() {
        assert_eq!(
            prefix(r"^iot\.example\.(.+)$").as_deref(),
            Some("iot.example.")
        );
        assert_eq!(prefix(r"iot\.example\.(.+)$"), None); // not `^`-anchored
        assert_eq!(
            prefix(r"^(mqtt|cloudiotdevice)\.googleapis\.com\.$").as_deref(),
            None // branches share no head literal
        );
        assert_eq!(prefix(r"^(na|nb)x$").as_deref(), Some("n"));
    }

    #[test]
    fn case_insensitive_literals_are_lowercased() {
        let ast = parse(r"(.+)\.AMAZONAWS\.COM\.$").unwrap();
        assert_eq!(
            literal_suffix(&ast, true).as_deref(),
            Some(".amazonaws.com.")
        );
        assert_eq!(
            literal_suffix(&ast, false).as_deref(),
            Some(".AMAZONAWS.COM.")
        );
    }

    #[test]
    fn paper_patterns_all_have_label_aligned_tails() {
        for (pat, want) in [
            (
                r"(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)(\.amazonaws\.com\.$)",
                ".amazonaws.com.",
            ),
            (r"(.+\.|^)(azure-devices\.net\.$)", "azure-devices.net."),
            (
                r"^(mqtt|cloudiotdevice)\.googleapis\.com\.$",
                ".googleapis.com.",
            ),
            (r"^(na|ca|eu|ap)\.airvantage\.net\.$", ".airvantage.net."),
            (
                r"(.+\.|^)(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*\.)?(oraclecloud\.com\.$)",
                "oraclecloud.com.",
            ),
        ] {
            assert_eq!(suffix(pat).as_deref(), Some(want), "{pat}");
        }
    }

    #[test]
    fn end_anchor_detection_is_conservative() {
        assert!(ends_anchored(&parse(r"a$").unwrap()));
        assert!(ends_anchored(&parse(r"(a$|b$)").unwrap()));
        assert!(!ends_anchored(&parse(r"(a$|b)").unwrap()));
        assert!(!ends_anchored(&parse(r"a").unwrap()));
        assert!(ends_anchored(&parse(r"(x$)+").unwrap()));
        assert!(!ends_anchored(&parse(r"(x$)*").unwrap()));
    }
}
