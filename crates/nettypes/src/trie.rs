//! Longest-prefix-match tries — and their DNS mirror image, a
//! reversed-label suffix index.
//!
//! §4.3 of the paper maps every discovered backend address to its covering
//! BGP announcement ("We use the RouteViews Prefix to AS mapping dataset from
//! CAIDA to map IP addresses to prefixes and AS numbers"). A binary trie
//! keyed on prefix bits gives the longest-prefix match in `O(len)` and is the
//! canonical data structure for this job.
//!
//! [`SuffixIndex`] applies the same idea to domain names: names are keyed by
//! their labels *in reverse* (`com → amazonaws → iot → …`), so "every name
//! under `.amazonaws.com`" is one trie walk instead of a scan — the lookup
//! shape §3.2's literal-suffixed provider patterns need.

use crate::fxhash::FxHashMap;
use crate::prefix::{Ipv4Prefix, Ipv6Prefix};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::ops::Range;

/// A node of the binary trie. Children are indexed by the next bit.
#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Default for Node<V> {
    fn default() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

/// A binary trie over bit strings of up to 128 bits.
///
/// Keys are `(bits, len)` where `bits` is left-aligned in a `u128` (bit 127
/// is the first bit of the prefix). Values at shorter prefixes are shadowed
/// by more-specific entries during longest-prefix lookups, exactly like a
/// routing table.
#[derive(Debug, Clone)]
pub struct BitTrie<V> {
    root: Node<V>,
    len: usize,
}

impl<V> Default for BitTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BitTrie<V> {
    /// Empty trie.
    pub fn new() -> Self {
        BitTrie {
            root: Node::default(),
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bit(bits: u128, i: u8) -> usize {
        ((bits >> (127 - i)) & 1) as usize
    }

    /// Insert a value at `(bits, plen)`, returning the previous value if any.
    pub fn insert(&mut self, bits: u128, plen: u8, value: V) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..plen {
            let b = Self::bit(bits, i);
            node = node.children[b].get_or_insert_with(Box::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup at `(bits, plen)`.
    pub fn get(&self, bits: u128, plen: u8) -> Option<&V> {
        let mut node = &self.root;
        for i in 0..plen {
            let b = Self::bit(bits, i);
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Longest-prefix match for a full-length key, returning the matched
    /// prefix length and value.
    pub fn longest_match(&self, bits: u128, key_len: u8) -> Option<(u8, &V)> {
        let mut node = &self.root;
        let mut best: Option<(u8, &V)> = None;
        if let Some(v) = node.value.as_ref() {
            best = Some((0, v));
        }
        for i in 0..key_len {
            let b = Self::bit(bits, i);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Visit all `(bits, plen, value)` entries in lexicographic bit order.
    pub fn for_each<F: FnMut(u128, u8, &V)>(&self, mut f: F) {
        fn walk<V, F: FnMut(u128, u8, &V)>(node: &Node<V>, bits: u128, depth: u8, f: &mut F) {
            if let Some(v) = node.value.as_ref() {
                f(bits, depth, v);
            }
            for (b, child) in node.children.iter().enumerate() {
                if let Some(child) = child {
                    let next = bits | ((b as u128) << (127 - depth));
                    walk(child, next, depth + 1, f);
                }
            }
        }
        walk(&self.root, 0, 0, &mut f);
    }
}

/// A map from IP prefixes (both families) to values, with longest-prefix
/// matching — the shape of a RouteViews-derived routing table.
#[derive(Debug, Clone)]
pub struct PrefixMap<V> {
    v4: BitTrie<V>,
    v6: BitTrie<V>,
}

impl<V> Default for PrefixMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixMap<V> {
    /// Empty map.
    pub fn new() -> Self {
        PrefixMap {
            v4: BitTrie::new(),
            v6: BitTrie::new(),
        }
    }

    /// Total number of stored prefixes across both families.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn v4_bits(p: &Ipv4Prefix) -> u128 {
        (p.network_u32() as u128) << 96
    }

    /// Insert an IPv4 prefix.
    pub fn insert_v4(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        self.v4.insert(Self::v4_bits(&prefix), prefix.len(), value)
    }

    /// Insert an IPv6 prefix.
    pub fn insert_v6(&mut self, prefix: Ipv6Prefix, value: V) -> Option<V> {
        self.v6.insert(prefix.network_u128(), prefix.len(), value)
    }

    /// Longest-prefix match for an IPv4 address.
    pub fn lookup_v4(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &V)> {
        iotmap_obs::count!("nettypes.trie.lookups");
        let bits = (u32::from(addr) as u128) << 96;
        self.v4
            .longest_match(bits, 32)
            .map(|(plen, v)| (Ipv4Prefix::new(addr, plen), v))
    }

    /// Longest-prefix match for an IPv6 address.
    pub fn lookup_v6(&self, addr: Ipv6Addr) -> Option<(Ipv6Prefix, &V)> {
        iotmap_obs::count!("nettypes.trie.lookups");
        self.v6
            .longest_match(u128::from(addr), 128)
            .map(|(plen, v)| (Ipv6Prefix::new(addr, plen), v))
    }

    /// Longest-prefix match for an address of either family.
    pub fn lookup(&self, addr: IpAddr) -> Option<&V> {
        match addr {
            IpAddr::V4(a) => self.lookup_v4(a).map(|(_, v)| v),
            IpAddr::V6(a) => self.lookup_v6(a).map(|(_, v)| v),
        }
    }

    /// Exact lookup of a stored IPv4 prefix.
    pub fn get_v4(&self, prefix: &Ipv4Prefix) -> Option<&V> {
        self.v4.get(Self::v4_bits(prefix), prefix.len())
    }

    /// Exact lookup of a stored IPv6 prefix.
    pub fn get_v6(&self, prefix: &Ipv6Prefix) -> Option<&V> {
        self.v6.get(prefix.network_u128(), prefix.len())
    }

    /// Visit all IPv4 entries.
    pub fn for_each_v4<F: FnMut(Ipv4Prefix, &V)>(&self, mut f: F) {
        self.v4.for_each(|bits, plen, v| {
            let addr = Ipv4Addr::from((bits >> 96) as u32);
            f(Ipv4Prefix::new(addr, plen), v);
        });
    }

    /// Visit all IPv6 entries.
    pub fn for_each_v6<F: FnMut(Ipv6Prefix, &V)>(&self, mut f: F) {
        self.v6.for_each(|bits, plen, v| {
            let addr = Ipv6Addr::from(bits);
            f(Ipv6Prefix::new(addr, plen), v);
        });
    }
}

/// One node of the reversed-label trie. `ids` aggregates the whole subtree:
/// every name inserted at or below this node, in insertion order.
#[derive(Debug, Clone, Default)]
struct SuffixNode {
    children: FxHashMap<Box<str>, SuffixNode>,
    ids: Vec<u32>,
}

/// A reversed-label suffix index over domain names.
///
/// Each name is inserted with a caller-chosen `u32` id (typically its row
/// index in some corpus) and its id is recorded at every node along the
/// reversed-label path, so a lookup returns the whole matching subtree's
/// postings without walking it. Ids must be inserted in non-decreasing
/// order; lookups then come back sorted ascending.
///
/// Keys are case-folded and a trailing root dot is ignored, so DNSDB
/// presentation names (`host.example.com.`) and normalized names index
/// identically. Wildcard SAN labels (`*`) are stored as ordinary labels.
#[derive(Debug, Clone, Default)]
pub struct SuffixIndex {
    root: SuffixNode,
    names: usize,
}

/// A parsed suffix-lookup key, derived from a pattern's mandatory literal
/// tail (see `iotmap_dregex::Regex::literal_suffix`). Two shapes exist:
///
/// * label-aligned (`.amazonaws.com.`): the literal starts at a label
///   boundary, so matching names are exactly one trie node's subtree;
/// * partial first label (`azure-devices.net.`): the leading fragment may
///   be the tail of a longer label (`x-azure-devices`), so the lookup
///   unions the matching children of the walked node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixQuery {
    /// Reversed full labels to walk (`["com", "amazonaws"]`).
    labels_rev: Vec<Box<str>>,
    /// Leading fragment that must end a further label, if not label-aligned.
    partial: Option<Box<str>>,
}

impl SuffixQuery {
    /// Parse a literal name suffix into a lookup key. The literal is
    /// case-folded; one trailing root dot is ignored. Returns `None` for
    /// literals that cannot constrain a name (empty, bare `.`, or
    /// containing empty interior labels like `a..b`) — callers fall back
    /// to a full scan.
    pub fn parse(literal: &str) -> Option<SuffixQuery> {
        let mut lit = literal.to_ascii_lowercase();
        if let Some(stripped) = lit.strip_suffix('.') {
            lit.truncate(stripped.len());
        }
        let aligned = lit.starts_with('.');
        let body = if aligned { &lit[1..] } else { &lit[..] };
        if body.is_empty() {
            return None;
        }
        let mut fragments: Vec<&str> = body.split('.').collect();
        if fragments.iter().any(|f| f.is_empty()) {
            return None;
        }
        let partial = if aligned {
            None
        } else {
            Some(Box::from(fragments.remove(0)))
        };
        Some(SuffixQuery {
            labels_rev: fragments.iter().rev().map(|f| Box::from(*f)).collect(),
            partial,
        })
    }
}

impl SuffixIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of names inserted.
    pub fn len(&self) -> usize {
        self.names
    }

    /// True if no names were inserted.
    pub fn is_empty(&self) -> bool {
        self.names == 0
    }

    /// Insert `name` under `id`. Ids must be non-decreasing across calls
    /// (insert corpus rows in order).
    pub fn insert(&mut self, name: &str, id: u32) {
        self.insert_run(name, id..id + 1);
    }

    /// Insert `name` under each of `ids` — a run of consecutive corpus
    /// rows sharing one name, for one walk of the name's labels. Same
    /// ordering contract as [`SuffixIndex::insert`].
    pub fn insert_run(&mut self, name: &str, ids: Range<u32>) {
        let name = name.strip_suffix('.').unwrap_or(name);
        let mut node = &mut self.root;
        node.ids.extend(ids.clone());
        for label in name.rsplit('.') {
            let folded;
            let key = if label.bytes().any(|b| b.is_ascii_uppercase()) {
                folded = label.to_ascii_lowercase();
                &folded[..]
            } else {
                label
            };
            // Look the label up by reference: only a new child allocates.
            if !node.children.contains_key(key) {
                node.children.insert(Box::from(key), SuffixNode::default());
            }
            node = node.children.get_mut(key).expect("child inserted above");
            node.ids.extend(ids.clone());
        }
        self.names += ids.len();
    }

    /// All ids whose names end with the queried suffix, ascending and
    /// deduplicated (a name inserted once appears once).
    pub fn lookup(&self, query: &SuffixQuery) -> Vec<u32> {
        let mut node = &self.root;
        for label in &query.labels_rev {
            match node.children.get(label) {
                Some(child) => node = child,
                None => return Vec::new(),
            }
        }
        match &query.partial {
            // Label-aligned: the node's aggregated subtree is the answer.
            // (An id can appear several times when one record was inserted
            // under several names sharing the suffix; the list is sorted by
            // construction, so dedup is linear.)
            None => {
                let mut hits = node.ids.clone();
                hits.dedup();
                hits
            }
            // The fragment must end one more label: union the matching
            // children's postings (each already sorted by insertion order).
            Some(fragment) => {
                let mut hits: Vec<u32> = node
                    .children
                    .iter()
                    .filter(|(label, _)| label.ends_with(&**fragment))
                    .flat_map(|(_, child)| child.ids.iter().copied())
                    .collect();
                hits.sort_unstable();
                hits.dedup();
                hits
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut m = PrefixMap::new();
        m.insert_v4(p4("10.0.0.0/8"), "big");
        m.insert_v4(p4("10.1.0.0/16"), "mid");
        m.insert_v4(p4("10.1.2.0/24"), "small");

        let (pfx, v) = m.lookup_v4("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(*v, "small");
        assert_eq!(pfx.to_string(), "10.1.2.0/24");

        let (pfx, v) = m.lookup_v4("10.1.9.9".parse().unwrap()).unwrap();
        assert_eq!(*v, "mid");
        assert_eq!(pfx.to_string(), "10.1.0.0/16");

        let (_, v) = m.lookup_v4("10.200.0.1".parse().unwrap()).unwrap();
        assert_eq!(*v, "big");
        assert!(m.lookup_v4("11.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn insert_replaces_and_reports_old_value() {
        let mut m = PrefixMap::new();
        assert!(m.insert_v4(p4("192.0.2.0/24"), 1).is_none());
        assert_eq!(m.insert_v4(p4("192.0.2.0/24"), 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get_v4(&p4("192.0.2.0/24")), Some(&2));
    }

    #[test]
    fn default_route_matches_everything() {
        let mut m = PrefixMap::new();
        m.insert_v4(p4("0.0.0.0/0"), "default");
        let (pfx, v) = m.lookup_v4("8.8.8.8".parse().unwrap()).unwrap();
        assert_eq!(*v, "default");
        assert_eq!(pfx.len(), 0);
    }

    #[test]
    fn v6_longest_match() {
        let mut m = PrefixMap::new();
        m.insert_v6("2001:db8::/32".parse().unwrap(), "site");
        m.insert_v6("2001:db8:1::/48".parse().unwrap(), "pop");
        let (_, v) = m.lookup_v6("2001:db8:1::1".parse().unwrap()).unwrap();
        assert_eq!(*v, "pop");
        let (_, v) = m.lookup_v6("2001:db8:2::1".parse().unwrap()).unwrap();
        assert_eq!(*v, "site");
        assert!(m.lookup_v6("2002::1".parse().unwrap()).is_none());
    }

    #[test]
    fn mixed_family_lookup() {
        let mut m = PrefixMap::new();
        m.insert_v4(p4("10.0.0.0/8"), 4);
        m.insert_v6("2001:db8::/32".parse().unwrap(), 6);
        assert_eq!(m.lookup("10.1.1.1".parse().unwrap()), Some(&4));
        assert_eq!(m.lookup("2001:db8::1".parse().unwrap()), Some(&6));
        assert_eq!(m.lookup("2a00::1".parse().unwrap()), None);
    }

    #[test]
    fn for_each_visits_in_bit_order() {
        let mut m = PrefixMap::new();
        m.insert_v4(p4("128.0.0.0/1"), 'b');
        m.insert_v4(p4("0.0.0.0/1"), 'a');
        m.insert_v4(p4("192.0.0.0/2"), 'c');
        let mut seen = Vec::new();
        m.for_each_v4(|pfx, v| seen.push((pfx.to_string(), *v)));
        assert_eq!(
            seen,
            vec![
                ("0.0.0.0/1".to_string(), 'a'),
                ("128.0.0.0/1".to_string(), 'b'),
                ("192.0.0.0/2".to_string(), 'c'),
            ]
        );
    }

    #[test]
    fn bittrie_root_value() {
        let mut t = BitTrie::new();
        t.insert(0, 0, "root");
        assert_eq!(t.longest_match(u128::MAX, 128), Some((0, &"root")));
        assert_eq!(t.get(0, 0), Some(&"root"));
    }

    fn sample_index() -> SuffixIndex {
        let mut idx = SuffixIndex::new();
        for (id, name) in [
            "device1.iot.us-east-1.amazonaws.com",
            "a.azure-devices.net",
            "x-azure-devices.net", // partial-label lookalike, distinct 2LD
            "azure-devices.net",
            "*.iot.eu-west-1.amazonaws.com.",
            "plant7.eu1.mindsphere.io",
            "unrelated.example.org",
        ]
        .iter()
        .enumerate()
        {
            idx.insert(name, id as u32);
        }
        idx
    }

    #[test]
    fn label_aligned_suffix_lookup() {
        let idx = sample_index();
        let q = SuffixQuery::parse(".amazonaws.com.").unwrap();
        assert_eq!(idx.lookup(&q), vec![0, 4]);
        let q = SuffixQuery::parse(".mindsphere.io").unwrap();
        assert_eq!(idx.lookup(&q), vec![5]);
        let q = SuffixQuery::parse(".nosuch.tld").unwrap();
        assert!(idx.lookup(&q).is_empty());
    }

    #[test]
    fn partial_first_label_unions_matching_children() {
        let idx = sample_index();
        // "azure-devices.net." is not label-aligned: both the exact 2LD and
        // the "x-azure-devices" lookalike label end with the fragment.
        let q = SuffixQuery::parse("azure-devices.net.").unwrap();
        assert_eq!(idx.lookup(&q), vec![1, 2, 3]);
        // A longer fragment excludes the exact label.
        let q = SuffixQuery::parse("-azure-devices.net.").unwrap();
        assert_eq!(idx.lookup(&q), vec![2]);
    }

    #[test]
    fn suffix_index_case_folds_and_strips_root_dot() {
        let mut idx = SuffixIndex::new();
        idx.insert("Device.IoT.Example.COM.", 0);
        let q = SuffixQuery::parse(".example.com").unwrap();
        assert_eq!(idx.lookup(&q), vec![0]);
        let q = SuffixQuery::parse(".EXAMPLE.COM.").unwrap();
        assert_eq!(idx.lookup(&q), vec![0]);
    }

    #[test]
    fn duplicate_ids_from_multi_name_records_dedup() {
        let mut idx = SuffixIndex::new();
        // One record (id 7) carries two SANs under the same suffix.
        idx.insert("a.example.com", 7);
        idx.insert("b.example.com", 7);
        idx.insert("c.example.com", 9);
        let q = SuffixQuery::parse(".example.com").unwrap();
        assert_eq!(idx.lookup(&q), vec![7, 9]);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn degenerate_query_literals_are_rejected() {
        assert_eq!(SuffixQuery::parse(""), None);
        assert_eq!(SuffixQuery::parse("."), None);
        assert_eq!(SuffixQuery::parse(".."), None);
        assert_eq!(SuffixQuery::parse("a..b"), None);
        assert!(SuffixQuery::parse("com").is_some());
        assert!(SuffixQuery::parse(".com.").is_some());
    }

    #[test]
    fn root_partial_query_scans_top_level_labels() {
        let idx = sample_index();
        // No full label at all: fragment matches top-level labels directly.
        let q = SuffixQuery::parse("com").unwrap();
        assert_eq!(idx.lookup(&q), vec![0, 4]);
        let q = SuffixQuery::parse("et").unwrap();
        assert_eq!(idx.lookup(&q), vec![1, 2, 3]);
    }
}
