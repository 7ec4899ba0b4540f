//! The single-pass multi-provider matching engine (§3.2/§3.3 hot path).
//!
//! The naive discovery loop asks, for each of the sixteen providers in
//! turn, "which records match this provider's pattern?" — sixteen full
//! scans over every certificate SAN and DNSDB owner name. This module
//! inverts the loop: one pass over the records answers all providers at
//! once.
//!
//! Two mechanisms cooperate, chosen per pattern at build time:
//!
//! * **Literal-suffix index lookups.** Every paper pattern is
//!   end-anchored with a mandatory literal tail (`\.amazonaws\.com$`,
//!   `azure-devices\.net\.$`, …) which
//!   [`iotmap_dregex::Regex::literal_suffix`] extracts. The tail becomes a
//!   [`SuffixQuery`] against a reversed-label [`SuffixIndex`] built over
//!   the corpus, returning a small candidate superset that is then
//!   *verified* with the provider's real regex — the index is a sound
//!   prefilter, never the final word.
//! * **A combined [`PatternSet`] fallback.** Patterns without a usable
//!   literal tail (none of the paper's sixteen, but user-supplied
//!   registries may have them) are compiled into one multi-pattern Pike
//!   VM that reports every matching pattern in a single scan per name.
//!
//! The output is a [`MatchTable`]: one provider-bitmask per record, from
//! which the discovery stage fans evidence back in per provider.

use crate::patterns::{PatternRegistry, ProviderPatterns};
use iotmap_dregex::{PatternSet, Regex};
use iotmap_nettypes::{SuffixIndex, SuffixQuery};

/// How one provider's pattern is evaluated by the engine.
#[derive(Debug)]
enum Plan {
    /// Literal tail extracted: candidates come from the suffix index and
    /// are verified individually.
    Indexed(SuffixQuery),
    /// No usable literal: the pattern rides in the combined fallback set,
    /// scanned once per name.
    Scan,
}

/// A compiled matching plan over one registry, for one name corpus shape
/// (DNSDB owner names or certificate SANs).
#[derive(Debug)]
pub struct MatchEngine {
    plans: Vec<Plan>,
    /// Provider indices riding in `fallback_set`, in registry order.
    fallback: Vec<usize>,
    fallback_set: Option<PatternSet>,
}

impl MatchEngine {
    /// Engine over the providers' DNSDB owner patterns (FQDN presentation,
    /// trailing dot).
    pub fn owners(registry: &PatternRegistry) -> Self {
        Self::build(registry, |p| &p.owner_regex)
    }

    /// Engine over the providers' certificate-name patterns (no trailing
    /// dot, `*.` wildcards allowed).
    pub fn sans(registry: &PatternRegistry) -> Self {
        Self::build(registry, |p| &p.san_regex)
    }

    fn build(registry: &PatternRegistry, select: impl Fn(&ProviderPatterns) -> &Regex) -> Self {
        let mut plans = Vec::with_capacity(registry.len());
        let mut fallback = Vec::new();
        let mut fallback_patterns: Vec<&str> = Vec::new();
        for (i, provider) in registry.providers().iter().enumerate() {
            let regex = select(provider);
            match regex.literal_suffix().and_then(SuffixQuery::parse) {
                Some(query) => plans.push(Plan::Indexed(query)),
                None => {
                    plans.push(Plan::Scan);
                    fallback.push(i);
                    fallback_patterns.push(regex.pattern());
                }
            }
        }
        // The providers' patterns are compiled case-insensitively
        // (`ProviderPatterns::try_new`); the combined set must agree.
        let fallback_set = if fallback_patterns.is_empty() {
            None
        } else {
            Some(
                PatternSet::with_options(&fallback_patterns, true)
                    .expect("patterns already compiled individually"),
            )
        };
        MatchEngine {
            plans,
            fallback,
            fallback_set,
        }
    }

    /// Number of providers.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when the registry was empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// How many providers resolved to index lookups (the rest scan).
    pub fn indexed_count(&self) -> usize {
        self.plans
            .iter()
            .filter(|p| matches!(p, Plan::Indexed(_)))
            .count()
    }

    /// True when every provider's pattern became an index lookup — the
    /// case for the paper registry, where the fallback VM never runs.
    pub fn is_fully_indexed(&self) -> bool {
        self.fallback.is_empty()
    }

    /// Classify `rows` records against every provider in one pass.
    ///
    /// * `index` — suffix index over the corpus names, postings = row ids.
    /// * `verify(provider, row)` — does the row *really* match the
    ///   provider's regex? Called only for index candidates; the closure
    ///   owns any row-validity rules (certificate validity windows,
    ///   passive-DNS observation windows) since the index may be built
    ///   over a superset of the eligible rows.
    /// * `for_each_name(row, f)` — yield each searchable name of a row to
    ///   `f`, for the fallback set. Only called when fallback patterns
    ///   exist; yield nothing for ineligible rows.
    ///
    /// Classification is deliberately serial: the work is proportional to
    /// candidates (near-matches), not the corpus, and a serial pass keeps
    /// every counter and table bit independent of the thread budget.
    pub fn classify(
        &self,
        index: &SuffixIndex,
        rows: usize,
        mut verify: impl FnMut(usize, u32) -> bool,
        mut for_each_name: impl FnMut(u32, &mut dyn FnMut(&str)),
    ) -> MatchTable {
        let _vm_metrics = iotmap_dregex::vm::MetricsBatch::open();
        let mut table = MatchTable::new(rows, self.plans.len());
        let mut candidates = 0u64;
        let mut verified = 0u64;
        for (provider, plan) in self.plans.iter().enumerate() {
            if let Plan::Indexed(query) = plan {
                for row in index.lookup(query) {
                    candidates += 1;
                    if verify(provider, row) {
                        verified += 1;
                        table.set(row as usize, provider);
                    }
                }
            }
        }
        if let Some(set) = &self.fallback_set {
            let mut hits = vec![false; set.len()];
            for row in 0..rows as u32 {
                hits.iter_mut().for_each(|h| *h = false);
                for_each_name(row, &mut |name| set.matches_into(name, &mut hits));
                for (slot, hit) in hits.iter().enumerate() {
                    if *hit {
                        table.set(row as usize, self.fallback[slot]);
                    }
                }
            }
        }
        iotmap_obs::count!("discovery.engine.candidates", candidates);
        iotmap_obs::count!("discovery.engine.verified", verified);
        table
    }
}

/// Which providers matched which rows: a dense `rows × providers` bitmask
/// (one `u64` word per 64 providers — a single word for the paper's 16).
#[derive(Debug, Clone)]
pub struct MatchTable {
    words_per_row: usize,
    providers: usize,
    bits: Vec<u64>,
}

impl MatchTable {
    fn new(rows: usize, providers: usize) -> Self {
        let words_per_row = providers.div_ceil(64).max(1);
        MatchTable {
            words_per_row,
            providers,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        // `words_per_row` is at least 1 by construction.
        self.bits.len() / self.words_per_row
    }

    fn set(&mut self, row: usize, provider: usize) {
        self.bits[row * self.words_per_row + provider / 64] |= 1 << (provider % 64);
    }

    /// Did `provider` match `row`?
    pub fn contains(&self, row: usize, provider: usize) -> bool {
        self.bits[row * self.words_per_row + provider / 64] & (1 << (provider % 64)) != 0
    }

    /// Did any provider match `row`?
    pub fn any(&self, row: usize) -> bool {
        let base = row * self.words_per_row;
        self.bits[base..base + self.words_per_row]
            .iter()
            .any(|w| *w != 0)
    }

    /// Providers matching `row`, ascending.
    pub fn providers(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let base = row * self.words_per_row;
        let words = &self.bits[base..base + self.words_per_row];
        words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Per-provider matched-row counts, registry order — feeds the
    /// `discovery.<source>.matches.<provider>` counters.
    pub fn matched_per_provider(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.providers];
        for row in 0..self.rows() {
            for provider in self.providers(row) {
                counts[provider] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::RegionHint;

    fn owner_index(names: &[&str]) -> SuffixIndex {
        let mut index = SuffixIndex::new();
        for (i, n) in names.iter().enumerate() {
            index.insert(n, i as u32);
        }
        index
    }

    #[test]
    fn paper_registry_is_fully_indexed() {
        let registry = PatternRegistry::paper_defaults();
        for engine in [MatchEngine::owners(&registry), MatchEngine::sans(&registry)] {
            assert_eq!(engine.len(), 16);
            assert_eq!(
                engine.indexed_count(),
                16,
                "all paper patterns have literal tails"
            );
            assert!(engine.is_fully_indexed());
        }
    }

    #[test]
    fn classify_agrees_with_per_provider_loop() {
        let registry = PatternRegistry::paper_defaults();
        let engine = MatchEngine::owners(&registry);
        let names = [
            "t0a1b2c3d.iot.us-east-1.amazonaws.com",
            "hub-112233.azure-devices.net",
            "www.example.com",
            "mqtt.googleapis.com",
            "azure-devices.net.evil.com", // lookalike: index may offer it, verify must reject
            "eu.airvantage.net",
            "hub-778899.iot.sap",
        ];
        let index = owner_index(&names);
        let mut fqdn = String::new();
        let table = engine.classify(
            &index,
            names.len(),
            |p, row| {
                fqdn.clear();
                fqdn.push_str(names[row as usize]);
                fqdn.push('.');
                registry.providers()[p].owner_regex.is_match(&fqdn)
            },
            |_row, _f| unreachable!("fully indexed: fallback never consulted"),
        );
        for (row, name) in names.iter().enumerate() {
            let domain: iotmap_nettypes::DomainName = name.parse().unwrap();
            for (p, provider) in registry.providers().iter().enumerate() {
                assert_eq!(
                    table.contains(row, p),
                    provider.matches_owner(&domain),
                    "{name} vs {}",
                    provider.name
                );
            }
        }
        assert!(!table.any(2), "www.example.com matches nobody");
        assert!(!table.any(4), "lookalike rejected by verification");
        let counts = table.matched_per_provider();
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn fallback_set_handles_patterns_without_literal_tails() {
        // A pattern whose mandatory tail is a character class has no
        // literal suffix — the engine must route it through the combined
        // set and still agree with the individual regex.
        let custom = PatternRegistry::new(vec![
            ProviderPatterns::try_new(
                "numeric",
                "Numeric Tail",
                r"device-[0-9]+\.$",
                r"device-[0-9]+$",
                RegionHint::None,
                vec![],
                false,
            )
            .unwrap(),
            ProviderPatterns::try_new(
                "classic",
                "Classic",
                r"(.+\.|^)iotbackend\.example\.$",
                r"(.+\.|^)iotbackend\.example$",
                RegionHint::None,
                vec![],
                false,
            )
            .unwrap(),
        ]);
        let engine = MatchEngine::owners(&custom);
        assert_eq!(engine.indexed_count(), 1);
        assert!(!engine.is_fully_indexed());

        let names = ["device-42", "a.iotbackend.example", "device-x"];
        let index = owner_index(&names);
        let table = engine.classify(
            &index,
            names.len(),
            |p, row| {
                custom.providers()[p]
                    .owner_regex
                    .is_match(&format!("{}.", names[row as usize]))
            },
            |row, f| f(&format!("{}.", names[row as usize])),
        );
        assert!(table.contains(0, 0));
        assert!(table.contains(1, 1));
        assert!(!table.any(2));
    }

    #[test]
    fn match_table_bit_operations() {
        let mut table = MatchTable::new(3, 70); // forces two words per row
        table.set(0, 0);
        table.set(0, 69);
        table.set(2, 64);
        assert!(table.contains(0, 0) && table.contains(0, 69) && table.contains(2, 64));
        assert!(!table.contains(1, 0));
        assert_eq!(table.providers(0).collect::<Vec<_>>(), vec![0, 69]);
        assert_eq!(table.providers(2).collect::<Vec<_>>(), vec![64]);
        assert!(table.any(0) && !table.any(1));
        assert_eq!(table.rows(), 3);
        let counts = table.matched_per_provider();
        assert_eq!((counts[0], counts[64], counts[69]), (1, 1, 1));
    }
}
