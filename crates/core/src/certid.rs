//! Certificate-identity interning: classify each *distinct* certificate
//! once, not once per scan record.
//!
//! Scan corpora share certificates heavily — a gateway fleet presents
//! one cert from thousands of IPs, and replicated/scaled corpora repeat
//! the same `Arc<Certificate>` across millions of rows. The discovery
//! hot path only ever asks two questions of a record's certificate:
//! *does it match provider P?* (verification behind the suffix-index
//! prefilter) and *what evidence do its names contribute?* (region
//! hint plus matched names). Both are pure functions of the cert, so a
//! [`CertSet`] dedupes rows to unique certs by `Arc` pointer identity
//! and the answers are computed once per `(provider, cert)` pair:
//!
//! * [`CertVerifyMemo`] caches verification verdicts, so the regex runs
//!   once per unique cert instead of once per candidate row;
//! * [`evidence_memos`] precomputes each matched pair's
//!   [`CertEvidence`] — the minimum region hint and the
//!   lexicographically smallest matched names (the same capped
//!   semilattice that `IpEvidence::join` joins), which the per-record
//!   fold replays with order-insensitive joins. Replaying the memo is
//!   byte-identical to re-walking the cert's names for every record.

use crate::discovery::{join_hint, note_smallest};
use crate::matcher::MatchTable;
use crate::patterns::ProviderPatterns;
use iotmap_tls::Certificate;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Unique certificates of a corpus, in first-row order, plus the
/// row → cert mapping.
#[derive(Debug, Default)]
pub struct CertSet {
    row_cert: Vec<u32>,
    certs: Vec<Arc<Certificate>>,
}

impl CertSet {
    /// Dedupe a row-ordered certificate stream by pointer identity.
    /// Identical certificates behind distinct allocations stay distinct —
    /// the memo layer is an optimization for shared `Arc`s, never a
    /// semantic dedupe.
    pub fn dedupe<'a>(rows: impl Iterator<Item = &'a Arc<Certificate>>) -> CertSet {
        let mut ids: HashMap<*const Certificate, u32> = HashMap::new();
        let mut set = CertSet::default();
        for cert in rows {
            let next = set.certs.len() as u32;
            let id = *ids.entry(Arc::as_ptr(cert)).or_insert_with(|| {
                set.certs.push(Arc::clone(cert));
                next
            });
            set.row_cert.push(id);
        }
        set
    }

    /// Unique-cert id of a row.
    pub fn cert_of_row(&self, row: usize) -> u32 {
        self.row_cert[row]
    }

    /// A unique certificate by id.
    pub fn cert(&self, id: u32) -> &Certificate {
        &self.certs[id as usize]
    }

    /// Number of unique certificates.
    pub fn unique(&self) -> usize {
        self.certs.len()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_cert.len()
    }
}

/// Lazily-filled per-`(provider, cert)` verification cache for
/// [`MatchEngine::classify`](crate::MatchEngine::classify) closures.
#[derive(Debug)]
pub struct CertVerifyMemo {
    /// 0 = unknown, 1 = no, 2 = yes; indexed `provider * certs + cert`.
    cache: Vec<u8>,
    certs: usize,
}

impl CertVerifyMemo {
    /// Memo over `certs` unique certificates × `providers` providers.
    pub fn new(certs: usize, providers: usize) -> CertVerifyMemo {
        CertVerifyMemo {
            cache: vec![0; certs * providers],
            certs,
        }
    }

    /// The memoized verdict for `(provider, cert)`, computing it on first
    /// use.
    pub fn check(&mut self, provider: usize, cert: u32, compute: impl FnOnce() -> bool) -> bool {
        let slot = provider * self.certs + cert as usize;
        match self.cache[slot] {
            0 => {
                let verdict = compute();
                self.cache[slot] = if verdict { 2 } else { 1 };
                verdict
            }
            v => v == 2,
        }
    }
}

/// What one certificate contributes to a provider's per-IP evidence:
/// the minimum region hint and the smallest matched names, exactly the
/// joins the per-record loop would have produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CertEvidence {
    /// Min-join of the region hints extracted from matching names.
    pub hint: Option<String>,
    /// The lexicographically smallest matching names (capped like
    /// `IpEvidence::matched_names` — the cap is lossless under joins).
    pub names: BTreeSet<String>,
}

/// Evidence one certificate contributes toward one provider.
pub fn cert_evidence(certificate: &Certificate, patterns: &ProviderPatterns) -> CertEvidence {
    let mut ev = CertEvidence::default();
    let mut buf = String::new();
    certificate.for_each_name(&mut buf, |name| {
        if patterns.matches_san(name) {
            join_hint(&mut ev.hint, patterns.region_hint.extract(name));
            note_smallest(&mut ev.names, name);
        }
    });
    ev
}

/// Precompute [`CertEvidence`] for every `(provider, cert)` pair the
/// match table actually produced, sharded over the pairs. The result is
/// independent of shard count — each memo is a pure function of one
/// certificate and one pattern set. Each shard batches its VM counters,
/// so they are recorded once per shard rather than per execution.
pub fn evidence_memos(
    set: &CertSet,
    table: &MatchTable,
    providers: &[ProviderPatterns],
) -> HashMap<(usize, u32), CertEvidence> {
    let mut pairs: BTreeSet<(usize, u32)> = BTreeSet::new();
    for row in 0..set.rows() {
        if !table.any(row) {
            continue;
        }
        let cert = set.cert_of_row(row);
        for p in table.providers(row) {
            pairs.insert((p, cert));
        }
    }
    let pairs: Vec<(usize, u32)> = pairs.into_iter().collect();
    let memos = iotmap_par::shard_chunks(&pairs, |_ctx, chunk| {
        let _vm_metrics = iotmap_dregex::vm::MetricsBatch::open();
        chunk
            .iter()
            .map(|&(p, cert)| cert_evidence(set.cert(cert), &providers[p]))
            .collect::<Vec<_>>()
    });
    pairs.into_iter().zip(memos.into_iter().flatten()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::IpEvidence;
    use crate::patterns::PatternRegistry;
    use iotmap_nettypes::{Date, StudyPeriod};
    use iotmap_tls::SanName;

    fn cert(names: &[&str]) -> Arc<Certificate> {
        Arc::new(Certificate::new(
            names[0],
            names.iter().map(|n| SanName::parse(n).unwrap()).collect(),
            StudyPeriod::from_dates(Date::new(2021, 6, 1), Date::new(2023, 6, 1)),
        ))
    }

    #[test]
    fn dedupe_is_by_pointer_in_first_row_order() {
        let a = cert(&["a.example.com"]);
        let b = cert(&["b.example.com"]);
        let rows = [&a, &b, &a, &a, &b];
        let set = CertSet::dedupe(rows.into_iter());
        assert_eq!(set.unique(), 2);
        assert_eq!(set.rows(), 5);
        assert_eq!(
            (0..5).map(|r| set.cert_of_row(r)).collect::<Vec<_>>(),
            vec![0, 1, 0, 0, 1]
        );
        // An identical cert behind a different Arc stays distinct.
        let a2 = cert(&["a.example.com"]);
        let set = CertSet::dedupe([&a, &a2].into_iter());
        assert_eq!(set.unique(), 2);
    }

    #[test]
    fn verify_memo_computes_once() {
        let mut memo = CertVerifyMemo::new(3, 2);
        let mut calls = 0;
        for _ in 0..10 {
            assert!(memo.check(1, 2, || {
                calls += 1;
                true
            }));
        }
        assert_eq!(calls, 1);
        assert!(!memo.check(0, 2, || false));
        // A cached false is never recomputed either.
        assert!(!memo.check(0, 2, || panic!("cached")));
    }

    #[test]
    fn memo_replay_equals_per_record_walk() {
        let registry = PatternRegistry::paper_defaults();
        let amazon = registry
            .providers()
            .iter()
            .find(|p| p.name == "amazon")
            .unwrap();
        let c = cert(&[
            "t1.iot.eu-west-1.amazonaws.com",
            "t1.iot.us-east-1.amazonaws.com",
            "unrelated.example.com",
        ]);
        let memo = cert_evidence(&c, amazon);

        // The per-record path: walk every name, join into the evidence.
        let mut direct = IpEvidence::default();
        let mut buf = String::new();
        c.for_each_name(&mut buf, |name| {
            if amazon.matches_san(name) {
                direct.note_hint(amazon.region_hint.extract(name));
                direct.note_name(name);
            }
        });

        // The memoized path: replay hint + names.
        let mut replayed = IpEvidence::default();
        replayed.note_hint(memo.hint.clone());
        for name in &memo.names {
            replayed.note_name(name);
        }
        assert_eq!(replayed.domain_hint, direct.domain_hint);
        assert_eq!(replayed.matched_names, direct.matched_names);
        assert!(memo.hint.is_some(), "region hint extracted");
    }
}
