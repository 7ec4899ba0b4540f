//! Pins the synthesized passive-DNS table: an FNV-1a digest over every
//! entry (owner, rdata, first/last-seen times, count) in table order, at
//! several thread counts, plus a check that the cache-restore path
//! (`PassiveDnsDb::from_entries` over a dump of the entries) answers every
//! index lookup exactly as the built database does.
//!
//! The small preset runs in tier-1; the paper-preset variant is
//! `#[ignore]`d and run by CI's `paper-equivalence` job.

use iotmap::dns::{PassiveDnsDb, RData};
use iotmap::nettypes::{Date, StudyPeriod, SuffixQuery};
use iotmap::prelude::*;
use std::collections::BTreeSet;

/// FNV-1a over a byte stream, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent fields cannot run into each other.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn table_digest(db: &PassiveDnsDb) -> u64 {
    let mut h = Fnv::new();
    h.u64(db.len() as u64);
    for e in db.entries() {
        h.str(e.owner.as_str());
        match &e.rdata {
            RData::A(a) => {
                h.u64(1);
                h.bytes(&a.octets());
            }
            RData::Aaaa(a) => {
                h.u64(2);
                h.bytes(&a.octets());
            }
            RData::Cname(n) => {
                h.u64(3);
                h.str(n.as_str());
            }
            RData::Ptr(n) => {
                h.u64(4);
                h.str(n.as_str());
            }
        }
        h.u64(e.time_first.unix());
        h.u64(e.time_last.unix());
        h.u64(e.count);
    }
    h.0
}

/// Every index of `restored` answers like `built`'s: the inverse (rdata)
/// lookup for every address, the owner lookup for every owner, and the
/// owner suffix index for every registrable suffix, both label-aligned
/// and as a partial first label.
fn assert_indexes_agree(built: &PassiveDnsDb, restored: &PassiveDnsDb) {
    let all_time = StudyPeriod::from_dates(Date::new(2000, 1, 1), Date::new(2100, 1, 1));
    assert_eq!(built.len(), restored.len());
    let ips: BTreeSet<_> = built.entries().filter_map(|e| e.rdata.ip()).collect();
    for ip in ips {
        assert!(
            built
                .domains_for_ip(ip, all_time)
                .eq(restored.domains_for_ip(ip, all_time)),
            "domains_for_ip({ip}) differs"
        );
    }
    let owners: BTreeSet<_> = built.entries().map(|e| e.owner.clone()).collect();
    let mut suffixes = BTreeSet::new();
    for owner in &owners {
        assert!(
            built
                .entries_for_owner(owner, all_time)
                .eq(restored.entries_for_owner(owner, all_time)),
            "entries_for_owner({owner}) differs"
        );
        let labels: Vec<&str> = owner.as_str().rsplit('.').take(2).collect();
        if let [tld, sld] = labels[..] {
            suffixes.insert(format!(".{sld}.{tld}."));
            suffixes.insert(format!("{}.{tld}.", &sld[sld.len() / 2..]));
        }
    }
    assert_eq!(
        built.owner_suffix_index().len(),
        restored.owner_suffix_index().len()
    );
    for literal in suffixes {
        let q = SuffixQuery::parse(&literal).expect("non-empty literal");
        assert_eq!(
            built.owner_suffix_index().lookup(&q),
            restored.owner_suffix_index().lookup(&q),
            "suffix lookup {literal} differs"
        );
    }
}

fn check(config: &WorldConfig, threads: &[usize], expected: u64) {
    for &t in threads {
        let world = with_threads(t, || World::generate(config));
        let db = &world.passive_dns;
        assert_eq!(
            table_digest(db),
            expected,
            "passive-DNS table digest changed at threads {t} ({} entries)",
            db.len()
        );
        if t == threads[0] {
            let restored = PassiveDnsDb::from_entries(db.entries().cloned().collect());
            assert_eq!(table_digest(&restored), expected);
            assert_indexes_agree(db, &restored);
        }
    }
}

#[test]
fn small_table_digest_is_pinned() {
    check(&WorldConfig::small(42), &[1, 2, 4], 0xc1f4_b0f3_48c5_ff28);
}

#[test]
#[ignore = "paper preset; run by the paper-equivalence CI job"]
fn paper_table_digest_is_pinned() {
    check(&WorldConfig::paper(42), &[1, 2], 0xf1f8_3df0_290c_8e70);
}
