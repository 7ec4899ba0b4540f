//! Property-based tests over the core data structures and invariants,
//! spanning crates through the facade.
//!
//! Two tiers live here:
//!
//! * **Seeded fault-layer properties** (always on, std-only): the
//!   fault-injection contract — a zero-fault plan is byte-identical to
//!   not having the fault layer at all, and heavier plans only ever
//!   *remove* observations (discovered IPs, exported traffic), never
//!   add them.
//! * **Randomized structure properties** (always on, std-only):
//!   prefixes, the LPM trie, interval sets, ECDFs, the two regex
//!   engines, domain names, civil dates and RNG forks, each checked over
//!   a fixed number of `SimRng`-seeded cases.

use iotmap::faults::FaultPlan;
use iotmap::netflow::CountingFold;
use iotmap::prelude::*;
use iotmap::world::TrafficSimulator;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::IpAddr;

/// A canonical text dump of a run's discovered facts (maps sorted, so
/// two dumps are byte-identical iff the runs agree).
fn canonical_artifacts(a: &RunArtifacts) -> String {
    let mut out = String::new();
    for (name, disc) in a.discovery.per_provider() {
        writeln!(out, "provider {name}").unwrap();
        for d in &disc.domains {
            writeln!(out, "  domain {d}").unwrap();
        }
        let mut ips: Vec<_> = disc.ips.iter().collect();
        ips.sort_by_key(|(ip, _)| **ip);
        for (ip, evidence) in ips {
            writeln!(out, "  ip {ip} {evidence:?}").unwrap();
        }
    }
    let mut footprints: Vec<_> = a.footprints.iter().collect();
    footprints.sort_by_key(|(name, _)| name.as_str());
    for (name, fp) in footprints {
        writeln!(out, "footprint {name} {fp:?}").unwrap();
    }
    let mut shared: Vec<_> = a.shared_ips.iter().collect();
    shared.sort();
    writeln!(out, "shared {shared:?}").unwrap();
    writeln!(out, "index len {}", a.index.len()).unwrap();
    out
}

fn run_with_plan(plan: FaultPlan) -> RunArtifacts {
    Pipeline::new(WorldConfig::small(42))
        .threads(1)
        .faults(plan)
        .run()
        .expect("pipeline")
}

fn all_ips(a: &RunArtifacts) -> BTreeSet<IpAddr> {
    a.discovery.all_ips().into_iter().collect()
}

/// An explicit [`FaultPlan::none`] must be byte-identical to never
/// touching the fault API at all — the layer's "zero-cost when unused"
/// contract, down to every discovered fact.
#[test]
fn zero_fault_plan_is_byte_identical_to_no_fault_layer() {
    let bare = Pipeline::new(WorldConfig::small(42))
        .threads(1)
        .run()
        .expect("pipeline");
    let zeroed = run_with_plan(FaultPlan::none());
    assert_eq!(canonical_artifacts(&bare), canonical_artifacts(&zeroed));
}

/// A heavier fault plan never *adds* observations: the discovered IP
/// sets nest (heavy ⊆ light ⊆ none), because every fault decision is a
/// pure seeded hash compared against the rate — raising the rate only
/// grows the drop set.
#[test]
fn fault_monotonicity_discovered_ips_nest() {
    assert!(FaultPlan::heavy().dominates(&FaultPlan::light()));
    assert!(FaultPlan::light().dominates(&FaultPlan::none()));

    let none = all_ips(&run_with_plan(FaultPlan::none()));
    let light = all_ips(&run_with_plan(FaultPlan::light()));
    let heavy = all_ips(&run_with_plan(FaultPlan::heavy()));
    assert!(!heavy.is_empty(), "heavy faults must degrade, not destroy");
    assert!(
        light.is_subset(&none),
        "light plan discovered IPs outside the fault-free set"
    );
    assert!(
        heavy.is_subset(&light),
        "heavy plan discovered IPs outside the light set"
    );
}

/// NetFlow export loss is monotone in the plan: the same world simulated
/// under none/light/heavy fault plans exports a non-increasing record
/// count and byte volume.
#[test]
fn fault_monotonicity_traffic_volume_never_increases() {
    let artifacts = run_with_plan(FaultPlan::none());
    let period = artifacts.world.config.study_period;
    let volume = |plan: FaultPlan| {
        let sim = TrafficSimulator::with_faults(&artifacts.world, plan.seed, plan.netflow);
        let (totals, _) = sim.run_fold(period, &CountingFold);
        (totals.records, totals.bytes)
    };
    let none = volume(FaultPlan::none());
    let light = volume(FaultPlan::light());
    let heavy = volume(FaultPlan::heavy());
    assert!(none.0 > 0 && none.1 > 0);
    assert!(heavy.0 > 0, "heavy faults must degrade, not destroy");
    assert!(light.0 <= none.0 && light.1 <= none.1);
    assert!(heavy.0 <= light.0 && heavy.1 <= light.1);
}

/// Randomized hostnames for the matching-engine differential: a mix of
/// junk labels, genuine provider names, and adversarial lookalikes
/// (provider suffixes glued without a label boundary, or buried before
/// an extra tail), with random case flips to exercise case folding.
fn random_hostnames(seed: u64, registry: &PatternRegistry, count: usize) -> Vec<String> {
    let mut rng = SimRng::new(seed);
    let labels = [
        "device",
        "mqtt",
        "iot",
        "cloud",
        "a1b2",
        "eu-west-1",
        "x9",
        "edge",
    ];
    let known = [
        "a1b2.iot.eu-west-1.amazonaws.com",
        "thing.iot.us-east-1.amazonaws.com",
        "device.azure-devices.net",
        "mqtt.googleapis.com",
        "na.airvantage.net",
    ];
    let mut suffixes: Vec<String> = Vec::new();
    for p in registry.providers() {
        for re in [&p.owner_regex, &p.san_regex] {
            if let Some(s) = re.literal_suffix() {
                suffixes.push(s.trim_end_matches('.').to_string());
            }
        }
    }
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        let mut name = match rng.gen_below(5) {
            0 => {
                let n = rng.gen_range(1, 5) as usize;
                (0..n)
                    .map(|_| *rng.choose(&labels))
                    .collect::<Vec<_>>()
                    .join(".")
            }
            1 => format!("{}{}", rng.choose(&labels), rng.choose(&suffixes)),
            2 => {
                let s = rng.choose(&suffixes);
                if rng.chance(0.5) {
                    format!("x{}", s.trim_start_matches('.'))
                } else {
                    format!("a{s}.evil.example")
                }
            }
            3 => (*rng.choose(&known)).to_string(),
            _ => format!("{}.{}", rng.choose(&labels), rng.choose(&known)),
        };
        if rng.chance(0.25) {
            name = name
                .chars()
                .map(|c| {
                    if rng.chance(0.3) {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
        }
        names.push(name);
    }
    names
}

/// The single-pass matching engine (literal-suffix index prefilter +
/// per-candidate Pike-VM verification, combined-set fallback) must agree
/// with a naive oracle — every provider's pattern run as a backtracking
/// regex over every name — on randomized hostnames. This pins both
/// halves of the engine: the suffix index may never *drop* a true match
/// (completeness) and verification may never *admit* a lookalike
/// (soundness). Std-only and always on.
#[test]
fn match_engine_agrees_with_backtracking_oracle() {
    use iotmap::core::MatchEngine;
    use iotmap::dregex::backtrack::BacktrackRegex;
    use iotmap::nettypes::SuffixIndex;

    let registry = PatternRegistry::paper_defaults();
    let providers = registry.providers();
    let mut positives = 0usize;

    for seed in [1u64, 7, 42, 1337] {
        let names = random_hostnames(seed, &registry, 250);

        for owners in [false, true] {
            // Owner rows are FQDNs (trailing dot), SAN rows are bare —
            // mirroring how discovery feeds the engine.
            let rows: Vec<String> = names
                .iter()
                .map(|n| if owners { format!("{n}.") } else { n.clone() })
                .collect();
            let engine = if owners {
                MatchEngine::owners(&registry)
            } else {
                MatchEngine::sans(&registry)
            };
            let mut index = SuffixIndex::new();
            for (row, name) in rows.iter().enumerate() {
                index.insert(name, row as u32);
            }
            let table = engine.classify(
                &index,
                rows.len(),
                |pi, row| {
                    let re = if owners {
                        &providers[pi].owner_regex
                    } else {
                        &providers[pi].san_regex
                    };
                    re.is_match(&rows[row as usize])
                },
                |row, f| f(&rows[row as usize]),
            );

            // Oracle: backtracking engine, case-folded by hand (the
            // production regexes compile case-insensitive).
            for (pi, provider) in providers.iter().enumerate() {
                let pattern = if owners {
                    provider.owner_regex.pattern()
                } else {
                    provider.san_regex.pattern()
                };
                let oracle = BacktrackRegex::new(pattern).expect("paper pattern");
                for (row, name) in rows.iter().enumerate() {
                    let expected = oracle.is_match(&name.to_ascii_lowercase());
                    assert_eq!(
                        table.contains(row, pi),
                        expected,
                        "engine vs backtracking oracle disagree: \
                         name={name:?} provider={} owners={owners}",
                        provider.name
                    );
                    positives += expected as usize;
                }
            }
        }
    }
    assert!(
        positives > 0,
        "no generated name matched any provider; differential is vacuous"
    );
}

/// The delta algebra's inverse law: applying a day's [`WorldDelta`] to a
/// corpus and then unapplying it restores the corpus and the period
/// byte-for-byte — and both directions reject a misaligned or tampered
/// corpus instead of corrupting it. Std-only and always on.
#[test]
fn delta_apply_then_unapply_is_identity() {
    use iotmap::delta::DeltaError;

    let prepared = Pipeline::new(WorldConfig::small(42))
        .threads(1)
        .prepare()
        .expect("prepare");
    let period = prepared.world.config.study_period;
    let faults = FaultPlan::none();
    let delta = WorldDelta::next_day(&prepared.world, period, &faults);
    assert_eq!(delta.from_end, period.end);
    assert!(!delta.snapshots.is_empty());

    let mut scans = prepared.scans.clone();
    let extended = delta.apply(&mut scans, period).expect("apply");
    assert_eq!(extended.start, period.start);
    assert_eq!(extended.end, delta.to_end);
    assert_ne!(scans, prepared.scans, "apply must extend the corpus");

    // Re-applying to the already-extended corpus is misaligned.
    assert!(matches!(
        delta.apply(&mut scans.clone(), extended),
        Err(DeltaError::Misaligned { .. })
    ));
    // Unapplying a tampered tail must be refused, corpus untouched.
    let mut tampered = scans.clone();
    tampered
        .censys
        .last_mut()
        .expect("one appended snapshot")
        .records
        .clear();
    assert!(matches!(
        delta.unapply(&mut tampered, extended),
        Err(DeltaError::TailMismatch)
    ));

    let restored = delta.unapply(&mut scans, extended).expect("unapply");
    assert_eq!(restored.start, period.start);
    assert_eq!(restored.end, period.end);
    assert_eq!(scans, prepared.scans, "unapply must restore the corpus");
    // Unapplying again: the corpus no longer ends at `to_end`.
    assert!(matches!(
        delta.unapply(&mut scans, restored),
        Err(DeltaError::Misaligned { .. })
    ));
}

/// The delta algebra's composition law: chaining the per-day deltas of a
/// span equals the merged delta generated over that span in one shot —
/// under an active fault plan too, because sweep faults key on the
/// absolute date. Std-only and always on.
#[test]
fn composing_day_deltas_equals_the_merged_span() {
    use iotmap::delta::DeltaError;

    let prepared = Pipeline::new(WorldConfig::small(42))
        .threads(1)
        .prepare()
        .expect("prepare");
    let period = prepared.world.config.study_period;
    let faults = FaultPlan::light();

    let d1 = WorldDelta::next_day(&prepared.world, period, &faults);
    let p1 = StudyPeriod::new(period.start, d1.to_end);
    let d2 = WorldDelta::next_day(&prepared.world, p1, &faults);
    let p2 = StudyPeriod::new(period.start, d2.to_end);
    let d3 = WorldDelta::next_day(&prepared.world, p2, &faults);

    // Out-of-order composition is rejected.
    assert!(matches!(
        d2.clone().compose(d1.clone()),
        Err(DeltaError::Misaligned { .. })
    ));

    let composed = d1
        .compose(d2)
        .expect("adjacent compose")
        .compose(d3)
        .expect("adjacent compose");
    let merged = WorldDelta::span(&prepared.world, period, 3, &faults);
    assert_eq!(composed, merged);
    assert_eq!(merged.snapshots.len(), 3);
}

// ---------------------------------------------------------------------
// Randomized structure properties. Each runs `CASES` inputs, case `c`
// drawn from `SimRng::new(c)`, so a failure names its seed and input
// and reruns identically.

/// Inputs per randomized structure property.
const CASES: u64 = 256;

/// A string of `lo..=hi` bytes drawn from `alphabet`.
fn random_string(rng: &mut SimRng, alphabet: &[u8], lo: u64, hi: u64) -> String {
    let len = rng.gen_range(lo, hi + 1);
    (0..len).map(|_| *rng.choose(alphabet) as char).collect()
}

const HOST_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";

/// Prefix parse/display roundtrip and containment bounds.
#[test]
fn prefix_roundtrip_and_bounds() {
    use iotmap::nettypes::Ipv4Prefix;
    use std::net::Ipv4Addr;

    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let addr = rng.next_u32();
        let len = rng.gen_below(33) as u8;
        let ctx = format!("seed {seed}: addr={addr} len={len}");
        let p = Ipv4Prefix::new(Ipv4Addr::from(addr), len);
        let reparsed: Ipv4Prefix = p.to_string().parse().unwrap();
        assert_eq!(p, reparsed, "{ctx}");
        assert!(p.contains(p.first()), "{ctx}");
        assert!(p.contains(p.last()), "{ctx}");
        assert!(p.contains(Ipv4Addr::from(addr)), "{ctx}");
        // One past the end is outside (when representable).
        if let Some(next) = u32::from(p.last()).checked_add(1) {
            assert!(!p.contains(Ipv4Addr::from(next)), "{ctx}");
        }
        assert_eq!(
            u64::from(u32::from(p.last()) - u32::from(p.first())) + 1,
            p.size(),
            "{ctx}"
        );
    }
}

/// Longest-prefix match agrees with a brute-force scan.
#[test]
fn trie_matches_linear_scan() {
    use iotmap::nettypes::{Ipv4Prefix, PrefixMap};
    use std::net::Ipv4Addr;

    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let entries: Vec<(u32, u8)> = (0..rng.gen_range(1, 20))
            .map(|_| (rng.next_u32(), rng.gen_range(8, 29) as u8))
            .collect();
        // Half the probes land inside an entry so the match is exercised,
        // not just the miss path.
        let probe = if rng.chance(0.5) {
            rng.choose(&entries).0 ^ (rng.next_u32() >> 28)
        } else {
            rng.next_u32()
        };
        let ctx = format!("seed {seed}: entries={entries:?} probe={probe}");
        let mut map = PrefixMap::new();
        let mut list = Vec::new();
        for (i, (addr, len)) in entries.iter().enumerate() {
            let p = Ipv4Prefix::new(Ipv4Addr::from(*addr), *len);
            map.insert_v4(p, i);
            list.push((p, i));
        }
        let probe_addr = Ipv4Addr::from(probe);
        let expected = list
            .iter()
            .filter(|(p, _)| p.contains(probe_addr))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, _)| *p);
        let got = map.lookup_v4(probe_addr).map(|(p, _)| p);
        // Note: duplicate prefixes keep the last value but the same prefix.
        assert_eq!(got, expected, "{ctx}");
    }
}

/// IntervalSet behaves like a set of integers.
#[test]
fn interval_set_models_btreeset() {
    use iotmap::nettypes::interval::IntervalSet;

    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let ranges: Vec<(u64, u64)> = (0..rng.gen_below(20))
            .map(|_| (rng.gen_below(500), rng.gen_range(1, 40)))
            .collect();
        let probes: Vec<u64> = (0..20).map(|_| rng.gen_below(600)).collect();
        let ctx = format!("seed {seed}: ranges={ranges:?}");
        let mut set = IntervalSet::new();
        let mut model = BTreeSet::new();
        for &(start, width) in &ranges {
            set.insert_range(start, start + width);
            model.extend(start..start + width);
        }
        assert_eq!(set.len(), model.len() as u64, "{ctx}");
        for p in probes {
            assert_eq!(set.contains(p), model.contains(&p), "{ctx} probe={p}");
        }
        // Ranges are maximal (no two adjacent ranges).
        let rs: Vec<_> = set.ranges().collect();
        for w in rs.windows(2) {
            assert!(w[0].1 < w[1].0, "{ctx}");
        }
    }
}

/// ECDF is monotone and bounded.
#[test]
fn ecdf_is_monotone() {
    use iotmap::stats::Ecdf;

    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let samples: Vec<f64> = (0..rng.gen_range(1, 200))
            .map(|_| rng.f64_range(0.0, 1e9))
            .collect();
        let ctx = format!("seed {seed}: samples={samples:?}");
        let e = Ecdf::new(samples.clone());
        let mut last = 0.0;
        for x in [0.0, 1.0, 1e3, 1e6, 1e9, 2e9] {
            let f = e.fraction_at_or_below(x);
            assert!((0.0..=1.0).contains(&f), "{ctx}");
            assert!(f + 1e-12 >= last, "{ctx}");
            last = f;
        }
        assert_eq!(e.fraction_at_or_below(2e9), 1.0, "{ctx}");
        let med = e.median();
        assert!(samples.iter().any(|s| (s - med).abs() < 1e-9), "{ctx}");
    }
}

/// The Pike VM and the naive backtracker agree on random inputs.
#[test]
fn regex_engines_agree() {
    use iotmap::dregex::{backtrack::BacktrackRegex, Regex};

    let patterns = [
        r"(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)(\.amazonaws\.com\.$)",
        r"(.+\.|^)(azure-devices\.net\.$)",
        r"^[a-z]+[0-9]*\.",
        r"(ab|ba)+c?",
        r"[^.]+\.[^.]+",
    ];
    let compiled: Vec<_> = patterns
        .iter()
        .map(|pat| {
            (
                pat,
                Regex::new(pat).unwrap(),
                BacktrackRegex::new(pat).unwrap(),
            )
        })
        .collect();
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let input = random_string(&mut rng, HOST_CHARS, 0, 40);
        for (pat, pike, bt) in &compiled {
            assert_eq!(
                pike.is_match(&input),
                bt.is_match(&input),
                "seed {seed}: search disagreement on {pat} / {input:?}"
            );
            assert_eq!(
                pike.is_full_match(&input),
                bt.is_full_match(&input),
                "seed {seed}: full-match disagreement on {pat} / {input:?}"
            );
        }
    }
}

/// Domain parsing is idempotent and case-normalizing.
#[test]
fn domain_parse_idempotent() {
    use iotmap::nettypes::DomainName;

    const LABEL_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let labels: Vec<String> = (0..rng.gen_range(1, 5))
            .map(|_| random_string(&mut rng, LABEL_CHARS, 1, 10))
            .collect();
        let raw = labels.join(".");
        let ctx = format!("seed {seed}: {raw:?}");
        let d1 = DomainName::parse(&raw).unwrap();
        let d2 = DomainName::parse(d1.as_str()).unwrap();
        assert_eq!(&d1, &d2, "{ctx}");
        assert_eq!(d1.as_str(), raw.to_lowercase(), "{ctx}");
        assert_eq!(d1.label_count(), labels.len(), "{ctx}");
        // FQDN form parses back to the same name.
        let d3 = DomainName::parse(&d1.fqdn()).unwrap();
        assert_eq!(&d1, &d3, "{ctx}");
    }
}

/// Civil-date arithmetic roundtrips through SimTime.
#[test]
fn date_time_roundtrip() {
    use iotmap::nettypes::{Date, SimTime};

    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let days = rng.gen_below(40_000) as i64;
        let secs = rng.gen_below(86_400);
        let ctx = format!("seed {seed}: days={days} secs={secs}");
        let date = Date::from_epoch_days(days);
        assert_eq!(date.epoch_days(), days, "{ctx}");
        let t = SimTime(days as u64 * 86_400 + secs);
        assert_eq!(t.date(), date, "{ctx}");
        assert_eq!(t.epoch_days(), days, "{ctx}");
        assert_eq!(t.hour_of_day() as u64, secs / 3600, "{ctx}");
        assert_eq!(t.midnight().unix(), days as u64 * 86_400, "{ctx}");
    }
}

/// The deterministic RNG forks are stable and independent of call order.
#[test]
fn rng_forks_are_order_independent() {
    for case in 0..CASES {
        let seed = SimRng::new(case).next_u64();
        let ctx = format!("case {case}: seed={seed}");
        let root = SimRng::new(seed);
        let mut a1 = root.fork("alpha");
        let mut b1 = root.fork("beta");
        // Opposite acquisition order must not change the streams.
        let mut b2 = root.fork("beta");
        let mut a2 = root.fork("alpha");
        assert_eq!(a1.next_u64(), a2.next_u64(), "{ctx}");
        assert_eq!(b1.next_u64(), b2.next_u64(), "{ctx}");
    }
}
