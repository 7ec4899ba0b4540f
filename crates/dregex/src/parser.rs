//! Recursive-descent parser for the POSIX-extended regex subset.

use crate::ast::Ast;
use crate::classes::{escape_class, posix_class, ByteSet};
use std::fmt;

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseErr {
    pub pos: usize,
    pub message: String,
}

impl ParseErr {
    fn new(pos: usize, message: impl Into<String>) -> Self {
        ParseErr {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.pos, self.message
        )
    }
}

impl std::error::Error for ParseErr {}

/// Upper bound on `{m,n}` repetition counts, to keep compiled programs small.
const MAX_REPEAT: u32 = 1000;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

/// Parse a pattern into an [`Ast`].
pub fn parse(pattern: &str) -> Result<Ast, ParseErr> {
    let mut p = Parser {
        input: pattern.as_bytes(),
        pos: 0,
    };
    let ast = p.alternation()?;
    if p.pos != p.input.len() {
        return Err(ParseErr::new(p.pos, "unexpected ')'"));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alternation := concat ('|' concat)*
    fn alternation(&mut self) -> Result<Ast, ParseErr> {
        let mut branches = vec![self.concat()?];
        while self.eat(b'|') {
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alternate(branches)
        })
    }

    /// concat := repeated*
    fn concat(&mut self) -> Result<Ast, ParseErr> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repeated()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    /// repeated := atom quantifier?
    fn repeated(&mut self) -> Result<Ast, ParseErr> {
        let start = self.pos;
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some(b'*') => {
                self.bump();
                (0, None)
            }
            Some(b'+') => {
                self.bump();
                (1, None)
            }
            Some(b'?') => {
                self.bump();
                (0, Some(1))
            }
            Some(b'{') => {
                // `{` is only a quantifier when it parses as one; otherwise
                // treat it as a literal (common POSIX behaviour).
                if let Some(bounds) = self.try_bounds()? {
                    bounds
                } else {
                    return Ok(atom);
                }
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd) {
            return Err(ParseErr::new(start, "cannot repeat an anchor"));
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    /// Try to parse `{m}`, `{m,}`, or `{m,n}` at the current position.
    /// Returns `None` (without consuming) when the braces are not a valid
    /// quantifier.
    fn try_bounds(&mut self) -> Result<Option<(u32, Option<u32>)>, ParseErr> {
        let save = self.pos;
        assert_eq!(self.bump(), Some(b'{'));
        let min = match self.number() {
            Some(n) => n,
            None => {
                self.pos = save;
                return Ok(None);
            }
        };
        let result = if self.eat(b',') {
            match self.number() {
                Some(max) => (min, Some(max)),
                None => (min, None),
            }
        } else {
            (min, Some(min))
        };
        if !self.eat(b'}') {
            self.pos = save;
            return Ok(None);
        }
        if let (min, Some(max)) = result {
            if max < min {
                return Err(ParseErr::new(save, "repetition bounds out of order"));
            }
        }
        if result.0 > MAX_REPEAT || result.1.is_some_and(|m| m > MAX_REPEAT) {
            return Err(ParseErr::new(save, "repetition bound too large"));
        }
        Ok(Some(result))
    }

    fn number(&mut self) -> Option<u32> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    /// atom := group | class | anchor | escape | literal
    fn atom(&mut self) -> Result<Ast, ParseErr> {
        let pos = self.pos;
        match self.bump() {
            None => Err(ParseErr::new(pos, "unexpected end of pattern")),
            Some(b'(') => {
                let inner = self.alternation()?;
                if !self.eat(b')') {
                    return Err(ParseErr::new(pos, "unclosed group"));
                }
                Ok(Ast::Group(Box::new(inner)))
            }
            Some(b')') => Err(ParseErr::new(pos, "unmatched ')'")),
            Some(b'[') => self.class(pos),
            Some(b'^') => Ok(Ast::AnchorStart),
            Some(b'$') => Ok(Ast::AnchorEnd),
            Some(b'.') => Ok(Ast::Class(ByteSet::full())),
            Some(b'*') | Some(b'+') | Some(b'?') => {
                Err(ParseErr::new(pos, "quantifier with nothing to repeat"))
            }
            Some(b'\\') => {
                let c = self
                    .bump()
                    .ok_or_else(|| ParseErr::new(pos, "trailing backslash"))?;
                if let Some(set) = escape_class(c) {
                    Ok(Ast::Class(set))
                } else {
                    // Any other escaped byte is a literal (covers \. \\ \/ …).
                    Ok(Ast::Class(ByteSet::single(c)))
                }
            }
            Some(b) => Ok(Ast::Class(ByteSet::single(b))),
        }
    }

    /// class := '[' '^'? item+ ']'
    fn class(&mut self, open_pos: usize) -> Result<Ast, ParseErr> {
        let negated = self.eat(b'^');
        let mut set = ByteSet::empty();
        let mut first = true;
        loop {
            let pos = self.pos;
            let b = self
                .bump()
                .ok_or_else(|| ParseErr::new(open_pos, "unclosed character class"))?;
            match b {
                b']' if !first => break,
                b'[' if self.peek() == Some(b':') => {
                    // POSIX class [:name:]
                    self.bump(); // ':'
                    let name_start = self.pos;
                    while self.peek().is_some_and(|c| c.is_ascii_lowercase()) {
                        self.bump();
                    }
                    let name = std::str::from_utf8(&self.input[name_start..self.pos])
                        .expect("ASCII slice");
                    if !(self.eat(b':') && self.eat(b']')) {
                        return Err(ParseErr::new(pos, "malformed POSIX class"));
                    }
                    let cls = posix_class(name).ok_or_else(|| {
                        ParseErr::new(pos, format!("unknown POSIX class [:{name}:]"))
                    })?;
                    set.union_with(&cls);
                }
                b'\\' => {
                    let c = self
                        .bump()
                        .ok_or_else(|| ParseErr::new(pos, "trailing backslash in class"))?;
                    if let Some(cls) = escape_class(c) {
                        set.union_with(&cls);
                    } else {
                        self.class_member(&mut set, c)?;
                    }
                }
                _ => {
                    self.class_member(&mut set, b)?;
                }
            }
            first = false;
        }
        if set.is_empty() {
            return Err(ParseErr::new(open_pos, "empty character class"));
        }
        if negated {
            set.negate();
        }
        Ok(Ast::Class(set))
    }

    /// Add a literal class member, handling `a-z` ranges. `lo` has already
    /// been consumed.
    fn class_member(&mut self, set: &mut ByteSet, lo: u8) -> Result<(), ParseErr> {
        // A '-' is a range operator only when not last-in-class.
        if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
            let dash_pos = self.pos;
            self.bump(); // '-'
            let hi = self
                .bump()
                .ok_or_else(|| ParseErr::new(dash_pos, "unterminated range"))?;
            let hi = if hi == b'\\' {
                self.bump()
                    .ok_or_else(|| ParseErr::new(dash_pos, "trailing backslash in range"))?
            } else {
                hi
            };
            if hi < lo {
                return Err(ParseErr::new(dash_pos, "range out of order"));
            }
            set.insert_range(lo, hi);
        } else {
            set.insert(lo);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_patterns_without_error() {
        // Shapes taken from Appendix A of the paper.
        let patterns = [
            r"(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)?(\.amazonaws\.com\.$)",
            r"(.+\.|^)(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*\.)?(oraclecloud\.com\.$)",
            r".+\.(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*\.)?(baidubce\.com\.$)",
            r".(\.eu1\.mindsphere\.io\.$)",
            r"(.+\.|^)(na\.airvantage\.net\.$)",
            r"(.+\.|^)(bosch-iot-hub\.com\.$)",
            r"(.+\.|^)(internetofthings\.ibmcloud\.com\.$)",
            r"(.+\.|^)(azure-devices\.net\.$)",
            r"(.+\.|^)(tencentdevices\.com\.$)",
        ];
        for p in patterns {
            parse(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_patterns() {
        assert!(parse("(").is_err());
        assert!(parse(")").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("[").is_err());
        assert!(parse("[]").is_err());
        assert!(parse("*a").is_err());
        assert!(parse("a\\").is_err());
        assert!(parse("^*").is_err());
        assert!(parse("[z-a]").is_err());
        assert!(parse("a{3,2}").is_err());
        assert!(parse("[[:nope:]]").is_err());
    }

    #[test]
    fn braces_fall_back_to_literal() {
        // "{x}" is not a quantifier; POSIX treats it literally.
        let ast = parse("a{x}").unwrap();
        assert!(matches!(ast, Ast::Concat(_)));
    }

    #[test]
    fn bounded_repetition_forms() {
        assert!(matches!(
            parse("a{3}").unwrap(),
            Ast::Repeat {
                min: 3,
                max: Some(3),
                ..
            }
        ));
        assert!(matches!(
            parse("a{2,}").unwrap(),
            Ast::Repeat {
                min: 2,
                max: None,
                ..
            }
        ));
        assert!(matches!(
            parse("a{2,5}").unwrap(),
            Ast::Repeat {
                min: 2,
                max: Some(5),
                ..
            }
        ));
        assert!(parse(&format!("a{{{}}}", 100_000)).is_err());
    }

    #[test]
    fn class_with_leading_bracket_or_dash() {
        // ']' first in class is a literal member; '-' last is literal.
        let ast = parse("[]a]").unwrap();
        if let Ast::Class(set) = ast {
            assert!(set.contains(b']') && set.contains(b'a'));
        } else {
            panic!("expected class");
        }
        let ast = parse("[a-]").unwrap();
        if let Ast::Class(set) = ast {
            assert!(set.contains(b'a') && set.contains(b'-'));
        } else {
            panic!("expected class");
        }
    }

    #[test]
    fn negated_class() {
        if let Ast::Class(set) = parse("[^0-9]").unwrap() {
            assert!(!set.contains(b'5') && set.contains(b'a'));
        } else {
            panic!("expected class");
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input() {
        // A grab-bag of hostile inputs; the parser must return Ok or Err,
        // never panic. (`parse_and_match_never_panic` in lib.rs widens this
        // to random patterns.)
        for input in [
            "(((((",
            ")))))",
            "[[[[[",
            "]]]]]",
            "a{999999999999}",
            "\\",
            "|||",
            "[a-\\]",
            "(?:x)",
            "a**",
            "^^^$$$",
            "[[:alpha:]",
            "{1,2}",
            "\\Q\\E",
        ] {
            let _ = parse(input);
        }
    }

    #[test]
    fn empty_alternation_branch() {
        // "a|" has an empty second branch — matches "a" or "".
        let ast = parse("a|").unwrap();
        assert!(matches!(ast, Ast::Alternate(ref v) if v.len() == 2));
    }
}
