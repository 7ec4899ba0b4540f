//! Foundation types shared by every crate in the `iotmap` workspace.
//!
//! This crate deliberately has **no dependencies**: everything here —
//! addressing, prefix tries, interval sets, the geographic model, simulated
//! time, and the deterministic random-number machinery — is implemented on
//! top of `std` so that the whole reproduction is bit-for-bit reproducible
//! from a `(seed, scale)` pair.
//!
//! The types mirror the vocabulary of the paper:
//!
//! * [`prefix::Ipv4Prefix`] / [`prefix::Ipv6Prefix`] — announcement and
//!   aggregation units (Table 1 counts backends in /24s and /56s).
//! * [`trie::PrefixMap`] — longest-prefix matching, used for the
//!   RouteViews-style IP→AS mapping of §4.3.
//! * [`trie::SuffixIndex`] — reversed-label suffix lookups over domain
//!   names, the prefilter behind §3.2's single-pass pattern matching.
//! * [`fxhash`] — a cheap hasher for maps keyed by simulated values that
//!   no outside party chooses (the per-flow traffic accumulators).
//! * [`geo`] — continent/country/city model used for footprints (§4.2) and
//!   region-crossing analyses (§5.7).
//! * [`time`] — civil-date simulated time; study periods of §3.1.
//! * [`rng`] / [`dist`] — seeded PRNG and the distributions that drive the
//!   synthetic workload models.

pub mod asn;
pub mod bgp;
pub mod dist;
pub mod error;
pub mod fxhash;
pub mod geo;
pub mod intern;
pub mod interval;
pub mod kvconf;
pub mod name;
pub mod ports;
pub mod prefix;
pub mod rng;
pub mod time;
pub mod trie;

pub use asn::Asn;
pub use bgp::{BgpOrigin, BgpTable};
pub use error::{Error, ParseError};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use geo::{Continent, CountryCode, Location};
pub use intern::{Interner, Sym};
pub use name::DomainName;
pub use ports::{AppProtocol, PortProto, Transport};
pub use prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};
pub use rng::SimRng;
pub use time::{Date, SimDuration, SimTime, StudyPeriod};
pub use trie::{PrefixMap, SuffixIndex, SuffixQuery};

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Address family of an IP address or prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpFamily {
    V4,
    V6,
}

impl IpFamily {
    /// Family of a concrete address.
    pub fn of(addr: IpAddr) -> Self {
        match addr {
            IpAddr::V4(_) => IpFamily::V4,
            IpAddr::V6(_) => IpFamily::V6,
        }
    }
}

/// Convert an IPv4 address to its numeric form.
pub fn v4_to_u32(addr: Ipv4Addr) -> u32 {
    u32::from(addr)
}

/// Convert a numeric IPv4 address back to `Ipv4Addr`.
pub fn u32_to_v4(value: u32) -> Ipv4Addr {
    Ipv4Addr::from(value)
}

/// Convert an IPv6 address to its numeric form.
pub fn v6_to_u128(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

/// Convert a numeric IPv6 address back to `Ipv6Addr`.
pub fn u128_to_v6(value: u128) -> Ipv6Addr {
    Ipv6Addr::from(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_of_addresses() {
        assert_eq!(IpFamily::of(IpAddr::V4(Ipv4Addr::LOCALHOST)), IpFamily::V4);
        assert_eq!(IpFamily::of(IpAddr::V6(Ipv6Addr::LOCALHOST)), IpFamily::V6);
    }

    #[test]
    fn v4_roundtrip() {
        let a = Ipv4Addr::new(192, 0, 2, 17);
        assert_eq!(u32_to_v4(v4_to_u32(a)), a);
    }

    #[test]
    fn v6_roundtrip() {
        let a: Ipv6Addr = "2001:db8::42".parse().unwrap();
        assert_eq!(u128_to_v6(v6_to_u128(a)), a);
    }
}
