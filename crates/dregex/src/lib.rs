//! # iotmap-dregex — the domain-pattern regex engine
//!
//! §3.2 of the paper generates regular expressions for each IoT backend's
//! domain naming scheme (see the paper's Appendix A for examples such as
//! `(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)?(\.amazonaws\.com\.$)`)
//! and evaluates them against millions of passive-DNS names and TLS
//! certificate SANs. This crate implements the required subset of POSIX
//! extended regular expressions from scratch:
//!
//! * literals and escapes, `.` (any byte), anchors `^` / `$`
//! * character classes `[a-z0-9-]`, negation `[^...]`, POSIX classes
//!   `[[:alnum:]]`, `[[:alpha:]]`, `[[:digit:]]`, …
//! * grouping `(...)`, alternation `|`
//! * quantifiers `*`, `+`, `?`, `{m}`, `{m,}`, `{m,n}`
//! * a case-insensitive mode (DNS names are case-insensitive)
//!
//! Matching uses a Pike-style virtual machine over a compiled NFA program —
//! **linear time** in the input, no backtracking — because the discovery
//! pipeline evaluates every pattern against every observed domain name and
//! an exponential-time engine would be a correctness hazard on adversarial
//! names. An intentionally naive backtracking matcher is included (module
//! [`backtrack`]) solely as a differential-testing and benchmarking
//! baseline.
//!
//! The [`query`] module layers the paper's concrete query front-ends on
//! top: DNSDB *Flexible Search* (regex) and *Basic Search* (wildcard
//! RRset queries like `*.tencentdevices.com.`), and Censys certificate
//! string searches (`*.iot.us-east-1.amazonaws.com`).

pub mod ast;
pub mod backtrack;
pub mod classes;
pub mod compile;
pub mod literal;
pub mod parser;
pub mod prog;
pub mod query;
pub mod vm;

pub use ast::Ast;
pub use classes::ByteSet;
pub use parser::ParseErr;
pub use prog::Program;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
    /// Mandatory anchored literals (see [`literal`]), extracted once at
    /// compile time so the discovery matcher can prefilter with them.
    literal_prefix: Option<String>,
    literal_suffix: Option<String>,
}

impl Regex {
    /// Compile a pattern (case-sensitive).
    pub fn new(pattern: &str) -> Result<Self, ParseErr> {
        Self::with_options(pattern, false)
    }

    /// Compile a pattern, case-insensitively if requested. DNS matching
    /// should use `case_insensitive = true` (or pre-lowercase inputs).
    pub fn with_options(pattern: &str, case_insensitive: bool) -> Result<Self, ParseErr> {
        let ast = parser::parse(pattern)?;
        let program = compile::compile(&ast, case_insensitive);
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
            literal_prefix: literal::literal_prefix(&ast, case_insensitive),
            literal_suffix: literal::literal_suffix(&ast, case_insensitive),
        })
    }

    /// Does the pattern match anywhere in `input` (unanchored search, like
    /// POSIX `grep`)? Anchors inside the pattern still bind to the input
    /// boundaries.
    pub fn is_match(&self, input: &str) -> bool {
        vm::search(&self.program, input.as_bytes())
    }

    /// Does the pattern match the *entire* input?
    pub fn is_full_match(&self, input: &str) -> bool {
        vm::match_anchored(&self.program, input.as_bytes())
    }

    /// Leftmost match range, if any. The end is the *earliest* accepting
    /// position (shortest match) — sufficient for the pipeline, which only
    /// needs boolean hits and hit locations.
    pub fn find(&self, input: &str) -> Option<(usize, usize)> {
        vm::find(&self.program, input.as_bytes())
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of compiled instructions (for diagnostics and benches).
    pub fn program_len(&self) -> usize {
        self.program.insts.len()
    }

    /// Text every match must start with, at the start of the input — or
    /// `None` when the pattern is not `^`-anchored or has no mandatory
    /// head literal. Lowercased for case-insensitive patterns.
    pub fn literal_prefix(&self) -> Option<&str> {
        self.literal_prefix.as_deref()
    }

    /// Text every match must end with, at the end of the input — or `None`
    /// when the pattern is not `$`-anchored or has no mandatory tail
    /// literal. Lowercased for case-insensitive patterns.
    pub fn literal_suffix(&self) -> Option<&str> {
        self.literal_suffix.as_deref()
    }
}

/// Several patterns compiled into one combined Pike-VM program: a single
/// scan of an input reports *which* patterns match it (see
/// [`compile::compile_set`] and [`vm::search_set`]). The discovery pipeline
/// uses this so one pass over a name answers all providers at once.
#[derive(Debug, Clone)]
pub struct PatternSet {
    patterns: Vec<String>,
    program: Program,
    entries: Vec<prog::SetEntry>,
}

impl PatternSet {
    /// Compile a set of patterns (case-sensitive).
    pub fn new<S: AsRef<str>>(patterns: &[S]) -> Result<Self, ParseErr> {
        Self::with_options(patterns, false)
    }

    /// Compile a set of patterns, case-insensitively if requested.
    pub fn with_options<S: AsRef<str>>(
        patterns: &[S],
        case_insensitive: bool,
    ) -> Result<Self, ParseErr> {
        let mut asts = Vec::with_capacity(patterns.len());
        for p in patterns {
            asts.push(parser::parse(p.as_ref())?);
        }
        let (program, entries) = compile::compile_set(&asts, case_insensitive);
        Ok(PatternSet {
            patterns: patterns.iter().map(|p| p.as_ref().to_string()).collect(),
            program,
            entries,
        })
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Source pattern `i`.
    pub fn pattern(&self, i: usize) -> &str {
        &self.patterns[i]
    }

    /// Unanchored multi-pattern search: OR a hit into `matched[i]` for every
    /// pattern `i` that matches anywhere in `input`. Slots already `true`
    /// are skipped, so repeated calls accumulate over several inputs.
    pub fn matches_into(&self, input: &str, matched: &mut [bool]) {
        vm::search_set(&self.program, &self.entries, input.as_bytes(), matched);
    }

    /// Which patterns match anywhere in `input`? One `bool` per pattern.
    pub fn matches(&self, input: &str) -> Vec<bool> {
        let mut matched = vec![false; self.len()];
        self.matches_into(input, &mut matched);
        matched
    }

    /// Indices of the patterns that match anywhere in `input`, ascending.
    pub fn matched_ids(&self, input: &str) -> Vec<usize> {
        self.matches(input)
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i))
            .collect()
    }

    /// Total compiled instructions across the set (diagnostics).
    pub fn program_len(&self) -> usize {
        self.program.insts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_nettypes::SimRng;

    fn m(pat: &str, input: &str) -> bool {
        Regex::new(pat).unwrap().is_match(input)
    }

    #[test]
    fn literal_match() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
    }

    #[test]
    fn paper_amazon_pattern() {
        // From the paper's Appendix A (trailing-dot form as used by DNSDB).
        let re = Regex::new(r"(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)?(\.amazonaws\.com\.$)")
            .unwrap();
        assert!(re.is_match("a3k7examplehash.iot.us-east-1.amazonaws.com."));
        assert!(re.is_match("device.iot.eu-west-1.amazonaws.com."));
        assert!(!re.is_match("a3k7examplehash.iot.us-east-1.amazonaws.com.evil.org."));
    }

    #[test]
    fn paper_microsoft_pattern() {
        let re = Regex::new(r"(.+\.|^)(azure-devices\.net\.$)").unwrap();
        assert!(re.is_match("myhub.azure-devices.net."));
        assert!(re.is_match("azure-devices.net."));
        assert!(!re.is_match("azure-devices.net.example.com."));
    }

    #[test]
    fn paper_siemens_pattern() {
        let re = Regex::new(r".(\.eu1\.mindsphere\.io\.$)").unwrap();
        assert!(re.is_match("gateway.eu1.mindsphere.io."));
        assert!(!re.is_match(".eu1.mindsphere.io.")); // a real label char is required
    }

    #[test]
    fn case_insensitive_mode() {
        let re = Regex::with_options(r"mqtt\.googleapis\.com", true).unwrap();
        assert!(re.is_match("MQTT.GoogleAPIs.COM"));
        let cs = Regex::new(r"mqtt\.googleapis\.com").unwrap();
        assert!(!cs.is_match("MQTT.GoogleAPIs.COM"));
    }

    #[test]
    fn full_match_vs_search() {
        let re = Regex::new("ab+").unwrap();
        assert!(re.is_full_match("abbb"));
        assert!(!re.is_full_match("xabbb"));
        assert!(re.is_match("xabbb"));
    }

    #[test]
    fn find_leftmost() {
        let re = Regex::new("b+").unwrap();
        assert_eq!(re.find("aabbbcbb"), Some((2, 3))); // shortest-match end
        assert_eq!(re.find("zzz"), None);
    }

    #[test]
    fn pattern_set_reports_every_hit() {
        let set = PatternSet::new(&[
            r"(.+)\.azure-devices\.net\.$",
            r"^(mqtt|cloudiotdevice)\.googleapis\.com\.$",
            "iot",
            r"never\.matches\.example\.$",
        ])
        .unwrap();
        assert_eq!(set.len(), 4);
        assert_eq!(set.matched_ids("myhub.azure-devices.net."), vec![0]);
        assert_eq!(set.matched_ids("mqtt.googleapis.com."), vec![1]);
        assert_eq!(set.matched_ids("device.iot.example."), vec![2]);
        // One input can hit several patterns at once.
        assert_eq!(set.matched_ids("iot.azure-devices.net."), vec![0, 2]);
        assert!(set.matched_ids("unrelated.example.").is_empty());
    }

    #[test]
    fn pattern_set_agrees_with_individual_regexes() {
        let patterns = [
            r"(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)(\.amazonaws\.com\.$)",
            r"(.+\.|^)(azure-devices\.net\.$)",
            r"^(na|ca|eu|ap)\.airvantage\.net\.$",
            r"(.+)\.(eu1|eu2|us1|cn1)\.(mindsphere\.io\.$)",
            "a+b",
            "",
        ];
        let set = PatternSet::with_options(&patterns, true).unwrap();
        let singles: Vec<Regex> = patterns
            .iter()
            .map(|p| Regex::with_options(p, true).unwrap())
            .collect();
        for input in [
            "device.iot.us-east-1.amazonaws.com.",
            "MYHUB.AZURE-DEVICES.NET.",
            "eu.airvantage.net.",
            "na.airvantage.net.evil.",
            "plant7.eu2.mindsphere.io.",
            "aab",
            "",
            "x.y.z",
        ] {
            let got = set.matches(input);
            for (i, re) in singles.iter().enumerate() {
                assert_eq!(got[i], re.is_match(input), "pattern {i} on {input:?}");
            }
        }
    }

    #[test]
    fn pattern_set_accumulates_across_inputs() {
        let set = PatternSet::new(&["foo", "bar"]).unwrap();
        let mut matched = vec![false; 2];
        set.matches_into("a.foo.example", &mut matched);
        assert_eq!(matched, vec![true, false]);
        set.matches_into("b.bar.example", &mut matched);
        assert_eq!(matched, vec![true, true]);
    }

    #[test]
    fn regex_exposes_anchored_literals() {
        let re = Regex::new(r"(.+)\.iot\.sap\.$").unwrap();
        assert_eq!(re.literal_suffix(), Some(".iot.sap."));
        assert_eq!(re.literal_prefix(), None);
        let re = Regex::new(r"^iot-mqtts\.(.+)").unwrap();
        assert_eq!(re.literal_prefix(), Some("iot-mqtts."));
        assert_eq!(re.literal_suffix(), None);
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a+)+b against a^n — classic catastrophic-backtracking case; the
        // Pike VM must handle it instantly.
        let re = Regex::new("(a+)+b").unwrap();
        let input = "a".repeat(10_000);
        assert!(!re.is_match(&input));
        assert!(re.is_match(&format!("{input}b")));
    }

    /// Inputs per randomized property; case `c` draws from `SimRng::new(c)`.
    const CASES: u64 = 256;

    /// A string of `0..=max` bytes drawn from `alphabet`.
    fn random_string(rng: &mut SimRng, alphabet: &[u8], max: u64) -> String {
        let len = rng.gen_below(max + 1);
        (0..len).map(|_| *rng.choose(alphabet) as char).collect()
    }

    const INPUT_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";

    /// The parser returns Ok/Err but never panics, and anything that
    /// compiles can be executed against arbitrary inputs.
    #[test]
    fn parse_and_match_never_panic() {
        const PATTERN_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.+*?()[]|^$\\{},:-";
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let pattern = random_string(&mut rng, PATTERN_CHARS, 24);
            let input = random_string(&mut rng, INPUT_CHARS, 32);
            let outcome = std::panic::catch_unwind(|| {
                if let Ok(re) = Regex::new(&pattern) {
                    let _ = re.is_match(&input);
                    let _ = re.is_full_match(&input);
                    let _ = re.find(&input);
                }
            });
            assert!(
                outcome.is_ok(),
                "seed {seed}: panicked on pattern {pattern:?} / input {input:?}"
            );
        }
    }

    /// A full match implies a search match; a find implies a search hit.
    #[test]
    fn match_relations() {
        let compiled: Vec<_> = ["[a-z]+", r"^[a-z0-9]+\.", "a.*z", "x|y|z"]
            .iter()
            .map(|p| (p, Regex::new(p).unwrap()))
            .collect();
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let input = random_string(&mut rng, INPUT_CHARS, 32);
            for (pattern, re) in &compiled {
                if re.is_full_match(&input) {
                    assert!(re.is_match(&input), "seed {seed}: {pattern} vs {input:?}");
                }
                assert_eq!(
                    re.find(&input).is_some(),
                    re.is_match(&input),
                    "seed {seed}: {pattern} vs {input:?}"
                );
            }
        }
    }
}
