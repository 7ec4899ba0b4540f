//! DNS resource records (the subset the study needs).

use iotmap_nettypes::DomainName;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RrType {
    A,
    Aaaa,
    Cname,
    Ptr,
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RrType::A => "A",
            RrType::Aaaa => "AAAA",
            RrType::Cname => "CNAME",
            RrType::Ptr => "PTR",
        })
    }
}

/// Record data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Cname(DomainName),
    Ptr(DomainName),
}

impl RData {
    /// The record type this data belongs to.
    pub fn rrtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Cname(_) => RrType::Cname,
            RData::Ptr(_) => RrType::Ptr,
        }
    }

    /// The address, for address records.
    pub fn ip(&self) -> Option<IpAddr> {
        match self {
            RData::A(a) => Some(IpAddr::V4(*a)),
            RData::Aaaa(a) => Some(IpAddr::V6(*a)),
            _ => None,
        }
    }

    /// The target name, for CNAME/PTR records.
    pub fn name(&self) -> Option<&DomainName> {
        match self {
            RData::Cname(n) | RData::Ptr(n) => Some(n),
            _ => None,
        }
    }

    /// A borrowed view of this record.
    pub fn view(&self) -> RDataRef<'_> {
        match self {
            RData::A(a) => RDataRef::A(*a),
            RData::Aaaa(a) => RDataRef::Aaaa(*a),
            RData::Cname(n) => RDataRef::Cname(n),
            RData::Ptr(n) => RDataRef::Ptr(n),
        }
    }
}

/// Record data borrowed from wherever it is stored: addresses by value,
/// names by reference. Equal views mean equal records, so a view can key
/// a table without cloning the names it points to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RDataRef<'a> {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Cname(&'a DomainName),
    Ptr(&'a DomainName),
}

impl RDataRef<'_> {
    /// The address, for address records.
    pub fn ip(self) -> Option<IpAddr> {
        match self {
            RDataRef::A(a) => Some(IpAddr::V4(a)),
            RDataRef::Aaaa(a) => Some(IpAddr::V6(a)),
            _ => None,
        }
    }

    /// The owned record.
    pub fn to_rdata(self) -> RData {
        match self {
            RDataRef::A(a) => RData::A(a),
            RDataRef::Aaaa(a) => RData::Aaaa(a),
            RDataRef::Cname(n) => RData::Cname(n.clone()),
            RDataRef::Ptr(n) => RData::Ptr(n.clone()),
        }
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Cname(n) | RData::Ptr(n) => write!(f, "{}", n.fqdn()),
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    pub owner: DomainName,
    pub rdata: RData,
    /// Time-to-live in seconds. IoT gateways typically use short TTLs so
    /// load balancing takes effect quickly.
    pub ttl: u32,
}

impl Record {
    /// Construct a record with a default 300 s TTL.
    pub fn new(owner: DomainName, rdata: RData) -> Self {
        Record {
            owner,
            rdata,
            ttl: 300,
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.owner.fqdn(),
            self.ttl,
            self.rdata.rrtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn rdata_accessors() {
        let a = RData::A("192.0.2.1".parse().unwrap());
        assert_eq!(a.rrtype(), RrType::A);
        assert_eq!(a.ip(), Some("192.0.2.1".parse().unwrap()));
        assert!(a.name().is_none());

        let c = RData::Cname(d("target.example.com"));
        assert_eq!(c.rrtype(), RrType::Cname);
        assert!(c.ip().is_none());
        assert_eq!(c.name().unwrap().as_str(), "target.example.com");
    }

    #[test]
    fn views_round_trip_and_compare_like_records() {
        let records = [
            RData::A("192.0.2.1".parse().unwrap()),
            RData::Aaaa("2001:db8::1".parse().unwrap()),
            RData::Cname(d("target.example.com")),
            RData::Ptr(d("target.example.com")),
        ];
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.view().to_rdata(), *r);
            for (j, other) in records.iter().enumerate() {
                assert_eq!(r.view() == other.view(), i == j);
            }
        }
    }

    #[test]
    fn display_zone_file_style() {
        let r = Record::new(
            d("host.example.com"),
            RData::A("192.0.2.1".parse().unwrap()),
        );
        assert_eq!(r.to_string(), "host.example.com. 300 A 192.0.2.1");
    }

    #[test]
    fn aaaa_record() {
        let r = RData::Aaaa("2001:db8::1".parse().unwrap());
        assert_eq!(r.rrtype(), RrType::Aaaa);
        assert!(r.ip().unwrap().is_ipv6());
    }
}
