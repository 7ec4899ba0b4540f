//! Authoritative zone data with answer policies.
//!
//! IoT backend providers do not answer DNS queries with a fixed record set:
//! the paper's methodology only works because providers rotate
//! load-balancer pools (so repeated daily resolution discovers more IPs,
//! §3.3) and apply geo-DNS (so vantage points in Europe and the US see
//! different regional gateways — the ≈17% coverage gain). [`Policy`]
//! captures those behaviours.

use crate::record::{RData, RDataRef, RrType};
use crate::resolver::ResolutionContext;
use iotmap_nettypes::{Continent, DomainName, FxHashMap};

/// How an owner name answers queries of one record type.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Always return the full record set (also models anycast fronts,
    /// where one address set is announced everywhere).
    Static(Vec<RData>),
    /// Return `window` records from a pool, rotating deterministically with
    /// time (and weakly with resolver identity) — a DNS load balancer.
    /// Repeated resolution over days walks the pool; different resolvers
    /// see mostly-overlapping slices, so multiple vantage points add a
    /// modest coverage gain (§3.3's ≈17%). `salt` decorrelates different
    /// owner names sharing one pool.
    Rotating {
        pool: Vec<RData>,
        window: usize,
        salt: u64,
    },
    /// Geo-DNS: answer depends on the client's continent; `fallback` covers
    /// continents without an entry.
    Geo {
        by_continent: Vec<(Continent, Vec<RData>)>,
        fallback: Vec<RData>,
    },
    /// Alias to another name (CNAME); resolution follows the chain.
    Alias(DomainName),
}

impl Policy {
    /// Evaluate the policy in a resolution context: the answer records, in
    /// order, borrowed from the policy.
    pub fn answers(&self, ctx: &ResolutionContext) -> impl Iterator<Item = RDataRef<'_>> {
        // Every answer is `take` records of a stored slice starting at
        // `start` and wrapping, or the alias's CNAME.
        let (records, start, take, alias): (&[RData], usize, usize, _) = match self {
            Policy::Static(records) => (records, 0, records.len(), None),
            Policy::Rotating { pool, window, salt } if !pool.is_empty() => {
                let w = (*window).clamp(1, pool.len());
                // Rotate by day; resolver identity only nudges the slice,
                // so vantage points overlap heavily (as in reality).
                let shift = salt
                    .wrapping_add((ctx.time.epoch_days() as u64).wrapping_mul(w as u64 * 2 + 1))
                    .wrapping_add(((ctx.resolver_id >> 1) & 1) * (w as u64 / 2).max(1))
                    % pool.len() as u64;
                (pool, shift as usize, w, None)
            }
            Policy::Rotating { .. } => (&[][..], 0, 0, None),
            Policy::Geo {
                by_continent,
                fallback,
            } => {
                let records = by_continent
                    .iter()
                    .find(|(c, _)| *c == ctx.client_continent)
                    .map_or(&fallback[..], |(_, r)| r);
                (records, 0, records.len(), None)
            }
            Policy::Alias(target) => (&[][..], 0, 0, Some(RDataRef::Cname(target))),
        };
        records[start..]
            .iter()
            .chain(&records[..start])
            .take(take)
            .map(RData::view)
            .chain(alias)
    }

    /// All records the policy could ever return — the ground-truth set.
    pub fn all_records(&self) -> Vec<RData> {
        match self {
            Policy::Static(r) => r.clone(),
            Policy::Rotating { pool, .. } => pool.clone(),
            Policy::Geo {
                by_continent,
                fallback,
            } => {
                let mut out: Vec<RData> = by_continent
                    .iter()
                    .flat_map(|(_, r)| r.iter().cloned())
                    .collect();
                out.extend(fallback.iter().cloned());
                out
            }
            Policy::Alias(t) => vec![RData::Cname(t.clone())],
        }
    }
}

/// Authoritative data for the whole simulated namespace.
///
/// Owner names map to per-rrtype policies. This is the structure the world
/// builder fills in and both resolution paths (devices in the traffic
/// simulator, the measurement pipeline's active campaigns) query.
#[derive(Debug, Clone, Default)]
pub struct ZoneDb {
    entries: FxHashMap<DomainName, FxHashMap<RrTypeKey, Policy>>,
}

/// Policies are stored per address family; CNAMEs apply to both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RrTypeKey {
    A,
    Aaaa,
    Cname,
}

fn key_for(rrtype: RrType) -> Option<RrTypeKey> {
    match rrtype {
        RrType::A => Some(RrTypeKey::A),
        RrType::Aaaa => Some(RrTypeKey::Aaaa),
        RrType::Cname => Some(RrTypeKey::Cname),
        RrType::Ptr => None,
    }
}

impl ZoneDb {
    /// Empty zone database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a policy for `(owner, rrtype)`. Replaces any existing one.
    /// PTR data lives in the reverse-DNS store, not here — a PTR policy
    /// is silently ignored rather than aborting the run.
    pub fn set_policy(&mut self, owner: DomainName, rrtype: RrType, policy: Policy) {
        let Some(key) = key_for(rrtype) else {
            return;
        };
        self.entries.entry(owner).or_default().insert(key, policy);
    }

    /// Convenience: install a static A/AAAA record set. Non-address
    /// records are skipped (use [`ZoneDb::set_policy`] for CNAMEs).
    pub fn set_static(&mut self, owner: DomainName, records: Vec<RData>) {
        let (mut v4, mut v6) = (Vec::new(), Vec::new());
        for r in records {
            match r {
                RData::A(_) => v4.push(r),
                RData::Aaaa(_) => v6.push(r),
                _ => continue,
            }
        }
        if !v4.is_empty() {
            self.set_policy(owner.clone(), RrType::A, Policy::Static(v4));
        }
        if !v6.is_empty() {
            self.set_policy(owner, RrType::Aaaa, Policy::Static(v6));
        }
    }

    /// Answer a single query (no CNAME chasing — see [`crate::resolver`]).
    pub fn query(&self, owner: &DomainName, rrtype: RrType, ctx: &ResolutionContext) -> Vec<RData> {
        self.answers(owner, rrtype, ctx)
            .map(RDataRef::to_rdata)
            .collect()
    }

    /// [`ZoneDb::query`] without cloning: the same records, in the same
    /// order, borrowed from the zone.
    pub fn answers(
        &self,
        owner: &DomainName,
        rrtype: RrType,
        ctx: &ResolutionContext,
    ) -> impl Iterator<Item = RDataRef<'_>> {
        self.policy(owner, rrtype)
            .map(|policy| policy.answers(ctx))
            .into_iter()
            .flatten()
    }

    /// The policy answering `(owner, rrtype)`: the exact type's, otherwise
    /// a CNAME at the owner (which applies to every address type).
    fn policy(&self, owner: &DomainName, rrtype: RrType) -> Option<&Policy> {
        let by_type = self.entries.get(owner)?;
        key_for(rrtype)
            .and_then(|k| by_type.get(&k))
            .or_else(|| match rrtype {
                RrType::Cname => None,
                _ => by_type.get(&RrTypeKey::Cname),
            })
    }

    /// Does the name exist at all?
    pub fn contains(&self, owner: &DomainName) -> bool {
        self.entries.contains_key(owner)
    }

    /// Number of owner names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the database holds no names.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all owner names.
    pub fn owners(&self) -> impl Iterator<Item = &DomainName> {
        self.entries.keys()
    }

    /// Ground truth: every address record a name could ever resolve to.
    pub fn all_addresses(&self, owner: &DomainName) -> Vec<RData> {
        self.entries
            .get(owner)
            .map(|by_type| {
                by_type
                    .values()
                    .flat_map(|p| p.all_records())
                    .filter(|r| matches!(r, RData::A(_) | RData::Aaaa(_)))
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_nettypes::{Date, SimTime};
    use std::net::Ipv4Addr;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn a(last: u8) -> RData {
        RData::A(Ipv4Addr::new(192, 0, 2, last))
    }

    fn ctx(continent: Continent, day: u32, resolver: u64) -> ResolutionContext {
        ResolutionContext {
            client_continent: continent,
            time: Date::new(2022, 3, day).midnight(),
            resolver_id: resolver,
        }
    }

    #[test]
    fn static_policy_always_answers_fully() {
        let mut db = ZoneDb::new();
        db.set_static(d("gw.example.com"), vec![a(1), a(2)]);
        let ans = db.query(
            &d("gw.example.com"),
            RrType::A,
            &ctx(Continent::Europe, 1, 0),
        );
        assert_eq!(ans.len(), 2);
        // No AAAA policy installed.
        assert!(db
            .query(
                &d("gw.example.com"),
                RrType::Aaaa,
                &ctx(Continent::Europe, 1, 0)
            )
            .is_empty());
    }

    #[test]
    fn rotating_policy_walks_pool_over_days() {
        let mut db = ZoneDb::new();
        let pool: Vec<RData> = (1..=10).map(a).collect();
        db.set_policy(
            d("lb.example.com"),
            RrType::A,
            Policy::Rotating {
                pool,
                window: 2,
                salt: 0,
            },
        );
        let mut seen = std::collections::HashSet::new();
        for day in 1..=10 {
            for r in db.query(
                &d("lb.example.com"),
                RrType::A,
                &ctx(Continent::Europe, day, 0),
            ) {
                seen.insert(r);
            }
        }
        // Several days of resolution expose more of the pool than one day.
        let one_day: std::collections::HashSet<_> = db
            .query(
                &d("lb.example.com"),
                RrType::A,
                &ctx(Continent::Europe, 1, 0),
            )
            .into_iter()
            .collect();
        assert_eq!(one_day.len(), 2);
        assert!(seen.len() > one_day.len());
    }

    #[test]
    fn rotating_policy_varies_by_resolver() {
        let mut db = ZoneDb::new();
        let pool: Vec<RData> = (1..=20).map(a).collect();
        db.set_policy(
            d("lb.example.com"),
            RrType::A,
            Policy::Rotating {
                pool,
                window: 3,
                salt: 0,
            },
        );
        let r0: Vec<_> = db.query(
            &d("lb.example.com"),
            RrType::A,
            &ctx(Continent::Europe, 1, 0),
        );
        let r2: Vec<_> = db.query(
            &d("lb.example.com"),
            RrType::A,
            &ctx(Continent::Europe, 1, 2),
        );
        assert_ne!(r0, r2, "resolver groups see shifted slices");
    }

    #[test]
    fn geo_policy_depends_on_continent() {
        let mut db = ZoneDb::new();
        db.set_policy(
            d("geo.example.com"),
            RrType::A,
            Policy::Geo {
                by_continent: vec![
                    (Continent::Europe, vec![a(10)]),
                    (Continent::NorthAmerica, vec![a(20)]),
                ],
                fallback: vec![a(30)],
            },
        );
        let eu = db.query(
            &d("geo.example.com"),
            RrType::A,
            &ctx(Continent::Europe, 1, 0),
        );
        let us = db.query(
            &d("geo.example.com"),
            RrType::A,
            &ctx(Continent::NorthAmerica, 1, 0),
        );
        let asia = db.query(
            &d("geo.example.com"),
            RrType::A,
            &ctx(Continent::Asia, 1, 0),
        );
        assert_eq!(eu, vec![a(10)]);
        assert_eq!(us, vec![a(20)]);
        assert_eq!(asia, vec![a(30)]);
    }

    #[test]
    fn cname_answers_for_address_queries() {
        let mut db = ZoneDb::new();
        db.set_policy(
            d("alias.example.com"),
            RrType::Cname,
            Policy::Alias(d("real.example.com")),
        );
        let ans = db.query(
            &d("alias.example.com"),
            RrType::A,
            &ctx(Continent::Europe, 1, 0),
        );
        assert_eq!(ans, vec![RData::Cname(d("real.example.com"))]);
    }

    #[test]
    fn all_addresses_is_ground_truth() {
        let mut db = ZoneDb::new();
        db.set_policy(
            d("lb.example.com"),
            RrType::A,
            Policy::Rotating {
                pool: (1..=5).map(a).collect(),
                window: 1,
                salt: 9,
            },
        );
        assert_eq!(db.all_addresses(&d("lb.example.com")).len(), 5);
        assert!(db.all_addresses(&d("unknown.example.com")).is_empty());
    }

    #[test]
    fn nonexistent_name_answers_empty() {
        let db = ZoneDb::new();
        assert!(db
            .query(
                &d("nope.example.com"),
                RrType::A,
                &ctx(Continent::Europe, 1, 0)
            )
            .is_empty());
        assert!(!db.contains(&d("nope.example.com")));
    }

    #[test]
    fn simtime_used_for_rotation_is_day_granular() {
        let mut db = ZoneDb::new();
        db.set_policy(
            d("lb.example.com"),
            RrType::A,
            Policy::Rotating {
                pool: (1..=7).map(a).collect(),
                window: 1,
                salt: 3,
            },
        );
        let c = ctx(Continent::Europe, 2, 0);
        let later = ResolutionContext {
            time: SimTime(c.time.unix() + 3600),
            ..c
        };
        assert_eq!(
            db.query(&d("lb.example.com"), RrType::A, &c),
            db.query(&d("lb.example.com"), RrType::A, &later),
            "rotation is stable within a day"
        );
    }
}
