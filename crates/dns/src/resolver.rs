//! Recursive resolution: CNAME chasing over a [`ZoneDb`].

use crate::record::{RDataRef, RrType};
use crate::zone::ZoneDb;
use iotmap_nettypes::{Continent, DomainName, SimTime};
use std::net::IpAddr;

/// Context describing who asks and when — the inputs that authoritative
/// policies (geo-DNS, rotation) depend on.
#[derive(Debug, Clone)]
pub struct ResolutionContext {
    /// Continent of the querying resolver / client.
    pub client_continent: Continent,
    /// Query time (rotation policies are day-granular).
    pub time: SimTime,
    /// Identity of the recursive resolver (different resolvers are served
    /// different load-balancer slices).
    pub resolver_id: u64,
}

impl ResolutionContext {
    /// A fixed context for tests and simple lookups.
    pub fn simple(continent: Continent, time: SimTime) -> Self {
        ResolutionContext {
            client_continent: continent,
            time,
            resolver_id: 0,
        }
    }
}

/// Maximum CNAME chain length (RFC-ish sanity bound).
const MAX_CHAIN: usize = 8;

/// Resolve `name` to addresses of the requested type, following CNAMEs.
///
/// Returns the final address set (possibly empty). Loops and over-long
/// chains resolve to nothing, as a real resolver would SERVFAIL.
pub fn resolve(
    db: &ZoneDb,
    name: &DomainName,
    rrtype: RrType,
    ctx: &ResolutionContext,
) -> Vec<IpAddr> {
    debug_assert!(matches!(rrtype, RrType::A | RrType::Aaaa));
    let mut current = name;
    for _ in 0..MAX_CHAIN {
        // Either all addresses or a CNAME.
        let mut ips = Vec::new();
        let mut alias = None;
        for r in db.answers(current, rrtype, ctx) {
            match r {
                RDataRef::Cname(target) => {
                    alias = Some(target);
                    break;
                }
                r => ips.extend(r.ip()),
            }
        }
        match alias {
            Some(target) => current = target,
            None => return ips,
        }
    }
    Vec::new()
}

/// Resolve both address families and merge.
pub fn resolve_all(db: &ZoneDb, name: &DomainName, ctx: &ResolutionContext) -> Vec<IpAddr> {
    let mut out = resolve(db, name, RrType::A, ctx);
    out.extend(resolve(db, name, RrType::Aaaa, ctx));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RData;
    use crate::zone::Policy;
    use iotmap_nettypes::Date;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn ctx() -> ResolutionContext {
        ResolutionContext::simple(Continent::Europe, Date::new(2022, 3, 1).midnight())
    }

    #[test]
    fn direct_resolution() {
        let mut db = ZoneDb::new();
        db.set_static(
            d("gw.example.com"),
            vec![RData::A("192.0.2.1".parse().unwrap())],
        );
        let ips = resolve(&db, &d("gw.example.com"), RrType::A, &ctx());
        assert_eq!(ips, vec!["192.0.2.1".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn cname_chain_followed() {
        let mut db = ZoneDb::new();
        db.set_policy(
            d("a.example.com"),
            RrType::Cname,
            Policy::Alias(d("b.example.com")),
        );
        db.set_policy(
            d("b.example.com"),
            RrType::Cname,
            Policy::Alias(d("c.example.com")),
        );
        db.set_static(
            d("c.example.com"),
            vec![RData::A("192.0.2.9".parse().unwrap())],
        );
        let ips = resolve(&db, &d("a.example.com"), RrType::A, &ctx());
        assert_eq!(ips, vec!["192.0.2.9".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn cname_loop_resolves_to_nothing() {
        let mut db = ZoneDb::new();
        db.set_policy(
            d("x.example.com"),
            RrType::Cname,
            Policy::Alias(d("y.example.com")),
        );
        db.set_policy(
            d("y.example.com"),
            RrType::Cname,
            Policy::Alias(d("x.example.com")),
        );
        assert!(resolve(&db, &d("x.example.com"), RrType::A, &ctx()).is_empty());
    }

    #[test]
    fn dangling_cname_resolves_to_nothing() {
        let mut db = ZoneDb::new();
        db.set_policy(
            d("a.example.com"),
            RrType::Cname,
            Policy::Alias(d("gone.example.com")),
        );
        assert!(resolve(&db, &d("a.example.com"), RrType::A, &ctx()).is_empty());
    }

    #[test]
    fn resolve_all_merges_families() {
        let mut db = ZoneDb::new();
        db.set_static(
            d("dual.example.com"),
            vec![
                RData::A("192.0.2.1".parse().unwrap()),
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ],
        );
        let ips = resolve_all(&db, &d("dual.example.com"), &ctx());
        assert_eq!(ips.len(), 2);
        assert!(ips.iter().any(|ip| ip.is_ipv4()));
        assert!(ips.iter().any(|ip| ip.is_ipv6()));
    }
}
