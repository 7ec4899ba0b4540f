//! World generation: wiring providers, clouds, DNS, scans, ISP and events
//! into one deterministic ground truth.

use crate::clouds::{CloudCatalog, CloudRegion};
use crate::config::WorldConfig;
use crate::events::Events;
use crate::geodb::{CityId, GeoDb};
use crate::isp::{IspModel, TenantHomes};
use crate::providers::{catalog, DomainStyle, ProviderSpec, SiteHosting};
use crate::server::{Server, ServerId};
use iotmap_dns::{
    PassiveDnsDb, Policy, RData, RDataRef, ResolutionContext, RrType, RrsetAggregator, RrsetRows,
    ZoneDb,
};
use iotmap_nettypes::bgp::{BgpOrigin, BgpTable};
use iotmap_nettypes::{
    Asn, Continent, Date, DomainName, Ipv4Prefix, Ipv6Prefix, PortProto, SimDuration, SimRng,
};
use iotmap_scan::Ipv6Hitlist;
use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// One customer/tenant of a provider.
#[derive(Debug, Clone)]
pub struct TenantInfo {
    pub domain: DomainName,
    /// Home site index within the provider.
    pub home_site: usize,
    /// Covered by the passive-DNS sensor network at all (§3.6 coverage
    /// limitation).
    pub in_passive_dns: bool,
}

/// A non-IoT Internet host (scan and DNS background noise).
#[derive(Debug, Clone)]
pub struct BackgroundHost {
    pub ip: Ipv4Addr,
    pub ports: Vec<PortProto>,
    pub domain: DomainName,
    pub city: CityId,
}

/// What providers publish about their own address space (§3.4).
#[derive(Debug, Clone, Default)]
pub struct PublishedTruth {
    pub cisco_ips: Vec<IpAddr>,
    pub siemens_ips: Vec<IpAddr>,
    pub microsoft_prefixes: Vec<Ipv4Prefix>,
}

/// The generated world.
#[derive(Clone)]
pub struct World {
    pub config: WorldConfig,
    pub geo: GeoDb,
    pub clouds: CloudCatalog,
    pub providers: Vec<ProviderSpec>,
    pub servers: Vec<Server>,
    pub server_by_ip: HashMap<IpAddr, ServerId>,
    /// `[provider][site]` → city id.
    pub site_city: Vec<Vec<CityId>>,
    /// `[provider][site]` → *documented* IPv4 servers.
    pub site_pools: Vec<Vec<Vec<ServerId>>>,
    /// `[provider][site]` → *undocumented* IPv4 servers.
    pub site_hidden: Vec<Vec<Vec<ServerId>>>,
    /// `[provider][site]` → IPv6 servers.
    pub site_pools_v6: Vec<Vec<Vec<ServerId>>>,
    /// `[provider]` → tenants.
    pub tenants: Vec<Vec<TenantInfo>>,
    pub zones: ZoneDb,
    pub passive_dns: PassiveDnsDb,
    pub hitlist: Ipv6Hitlist,
    pub bgp: BgpTable,
    pub isp: IspModel,
    pub events: Events,
    /// Compiled scenario timeline (empty by default — a strict no-op).
    pub timeline: crate::events::CompiledTimeline,
    pub background: Vec<BackgroundHost>,
    pub published: PublishedTruth,
    /// Epoch-day range servers may live in (covers both study windows).
    pub sim_days: (i64, i64),
    /// Seed for per-IP geolocation noise in scan views.
    pub geo_noise_seed: u64,
    /// Lazily derived scan-view lookups (site certificates, background
    /// index); never part of the generated identity.
    pub(crate) view_cache: std::sync::OnceLock<crate::view::ViewCache>,
}

impl World {
    /// Generate the world from a configuration. Fully deterministic.
    pub fn generate(config: &WorldConfig) -> World {
        World::generate_with_pdns(config, None)
    }

    /// [`World::generate`] with an optional pre-built passive-DNS
    /// database (the facade's world cache stores one): when `Some`, the
    /// expensive passive-DNS fill is skipped and the supplied database
    /// installed in its place. Every generation phase forks the root RNG
    /// by name, so substituting this one phase leaves every other stream
    /// — and therefore every other artifact — byte-identical.
    pub fn generate_with_pdns(config: &WorldConfig, pdns: Option<PassiveDnsDb>) -> World {
        let _span = iotmap_obs::span!("world.generate");
        let rng = SimRng::new(config.seed);
        let geo = GeoDb::standard();
        let clouds = CloudCatalog::standard(&geo);
        let providers = catalog();

        let sim_days = (
            Date::new(2021, 11, 15).epoch_days(),
            Date::new(2022, 3, 15).epoch_days(),
        );

        let mut b = Builder {
            config: config.clone(),
            geo,
            clouds,
            providers,
            rng,
            sim_days,
            servers: Vec::new(),
            server_by_ip: HashMap::new(),
            site_city: Vec::new(),
            site_pools: Vec::new(),
            site_hidden: Vec::new(),
            site_pools_v6: Vec::new(),
            tenants: Vec::new(),
            zones: ZoneDb::new(),
            passive_dns: PassiveDnsDb::new(),
            hitlist: Ipv6Hitlist::new(),
            bgp: BgpTable::new(),
            background: Vec::new(),
            published: PublishedTruth::default(),
            own_block_counter: 0,
            cloud_slash24_next: HashMap::new(),
            pdns_domains: Vec::new(),
        };

        // Phase spans carry no RNG of their own (every stream below is
        // name-forked), so tracing cannot perturb determinism.
        {
            let _s = iotmap_obs::span!("world.servers");
            b.build_servers();
        }
        {
            let _s = iotmap_obs::span!("world.bgp");
            b.build_bgp();
        }
        {
            let _s = iotmap_obs::span!("world.tenants_zones");
            b.build_tenants_and_zones();
        }
        {
            let _s = iotmap_obs::span!("world.background");
            b.build_background();
        }
        {
            let _s = iotmap_obs::span!("world.hitlist");
            b.build_hitlist();
        }
        {
            let _s = iotmap_obs::span!("world.passive_dns");
            match pdns {
                Some(db) => {
                    iotmap_obs::annotate!("restored", 1u64);
                    b.passive_dns = db;
                }
                None => b.fill_passive_dns(),
            }
        }
        {
            let _s = iotmap_obs::span!("world.published");
            b.build_published();
        }

        // ISP population.
        let isp_span = iotmap_obs::span!("world.isp");
        let tenant_homes: Vec<TenantHomes> = b
            .tenants
            .iter()
            .map(|ts| TenantHomes {
                tenants: ts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i as u32, t.home_site))
                    .collect(),
            })
            .collect();
        let site_continent: Vec<Vec<Continent>> = b
            .site_city
            .iter()
            .map(|cities| {
                cities
                    .iter()
                    .map(|&c| b.geo.location(c).continent)
                    .collect()
            })
            .collect();
        let mut isp_rng = b.rng.fork("isp");
        let isp = IspModel::generate(
            &b.config,
            &b.providers,
            &tenant_homes,
            &site_continent,
            &mut isp_rng,
        );
        drop(isp_span);

        // Events.
        let events_span = iotmap_obs::span!("world.events");
        let provider_asns: HashSet<Asn> = b.servers.iter().map(|s| s.asn).collect();
        let names: Vec<&'static str> = b.providers.iter().map(|p| p.name).collect();
        let candidates: Vec<(usize, Vec<Ipv4Addr>)> = (0..b.providers.len())
            .map(|p| {
                let ips: Vec<Ipv4Addr> = b.site_pools[p]
                    .iter()
                    .flatten()
                    .take(40)
                    .filter_map(|&sid| match b.servers[sid].ip {
                        IpAddr::V4(v4) => Some(v4),
                        IpAddr::V6(_) => None,
                    })
                    .collect();
                (p, ips)
            })
            .collect();
        let mut ev_rng = b.rng.fork("events");
        let events = Events::generate(&mut ev_rng, &provider_asns, &candidates, move |i| names[i]);
        drop(events_span);

        iotmap_obs::gauge!("world.servers", b.servers.len() as i64);
        iotmap_obs::gauge!("world.isp_lines", isp.lines.len() as i64);
        World {
            geo_noise_seed: b.rng.fork("geonoise").next_u64(),
            config: b.config,
            geo: b.geo,
            clouds: b.clouds,
            providers: b.providers,
            servers: b.servers,
            server_by_ip: b.server_by_ip,
            site_city: b.site_city,
            site_pools: b.site_pools,
            site_hidden: b.site_hidden,
            site_pools_v6: b.site_pools_v6,
            tenants: b.tenants,
            zones: b.zones,
            passive_dns: b.passive_dns,
            hitlist: b.hitlist,
            bgp: b.bgp,
            isp,
            events,
            timeline: crate::events::CompiledTimeline::default(),
            background: b.background,
            published: b.published,
            sim_days,
            view_cache: std::sync::OnceLock::new(),
        }
    }

    /// Index of a provider by canonical name.
    pub fn provider_index(&self, name: &str) -> usize {
        self.providers
            .iter()
            .position(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown provider {name:?}"))
    }

    /// Ground truth: all of a provider's server IPs (both families),
    /// documented or not, alive at any point.
    pub fn true_ips(&self, provider: usize) -> HashSet<IpAddr> {
        self.servers
            .iter()
            .filter(|s| s.provider == provider)
            .map(|s| s.ip)
            .collect()
    }

    /// Ground truth: a provider's *documented* IPv4 servers.
    pub fn documented_v4(&self, provider: usize) -> HashSet<IpAddr> {
        self.servers
            .iter()
            .filter(|s| s.provider == provider && s.documented && s.ip.is_ipv4())
            .map(|s| s.ip)
            .collect()
    }

    /// All IPv4 server count (for visibility denominators).
    pub fn v4_server_count(&self) -> usize {
        self.servers.iter().filter(|s| s.ip.is_ipv4()).count()
    }

    /// Servers of a given provider at AWS `us-east-1` (outage blast zone).
    pub fn outage_affected_servers(&self) -> HashSet<ServerId> {
        let ev = &self.events.outage;
        self.servers
            .iter()
            .filter(|s| {
                matches!(
                    &self.providers[s.provider].sites[s.site].hosting,
                    SiteHosting::Cloud { cloud, region } if *cloud == ev.cloud && *region == ev.region
                )
            })
            .map(|s| s.id)
            .collect()
    }
}

/// Internal builder state.
struct Builder {
    config: WorldConfig,
    geo: GeoDb,
    clouds: CloudCatalog,
    providers: Vec<ProviderSpec>,
    rng: SimRng,
    sim_days: (i64, i64),
    servers: Vec<Server>,
    server_by_ip: HashMap<IpAddr, ServerId>,
    site_city: Vec<Vec<CityId>>,
    site_pools: Vec<Vec<Vec<ServerId>>>,
    site_hidden: Vec<Vec<Vec<ServerId>>>,
    site_pools_v6: Vec<Vec<Vec<ServerId>>>,
    tenants: Vec<Vec<TenantInfo>>,
    zones: ZoneDb,
    passive_dns: PassiveDnsDb,
    hitlist: Ipv6Hitlist,
    bgp: BgpTable,
    background: Vec<BackgroundHost>,
    published: PublishedTruth,
    /// Next /16 index inside 60.0.0.0/8 for own-DC sites.
    own_block_counter: u32,
    /// Next /24 index per cloud region block.
    cloud_slash24_next: HashMap<(String, String), u32>,
    /// All domains to feed into passive DNS: (domain, provider or usize::MAX,
    /// popularity, observed).
    pdns_domains: Vec<(DomainName, f64, bool)>,
}

impl Builder {
    /// The full service-port set of a provider's gateways.
    fn provider_ports(spec: &ProviderSpec) -> Vec<PortProto> {
        let mut ports: Vec<PortProto> = spec.profile.ports.iter().map(|s| s.port).collect();
        if let Some(h) = spec.profile.heavy {
            if !ports.contains(&h.port) {
                ports.push(h.port);
            }
        }
        for &p in &spec.client_cert_ports {
            let pp = PortProto::tcp(p);
            if !ports.contains(&pp) {
                ports.push(pp);
            }
        }
        // Every gateway fleet keeps an HTTPS management endpoint.
        if !ports.contains(&PortProto::tcp(443)) {
            ports.push(PortProto::tcp(443));
        }
        ports
    }

    fn build_servers(&mut self) {
        let providers = self.providers.clone();
        let mut rng = self.rng.fork("servers");
        for (pidx, spec) in providers.iter().enumerate() {
            let total_weight: f64 = spec.sites.iter().map(|s| s.weight).sum();
            let total_24s =
                (spec.slash24_target / self.config.ip_scale).max(spec.sites.len() as u32);
            let ports = Self::provider_ports(spec);

            let mut cities = Vec::new();
            let mut pools = Vec::new();
            let mut hidden = Vec::new();
            let mut pools_v6 = Vec::new();

            for (sidx, site) in spec.sites.iter().enumerate() {
                let city = self.geo.id_of(site.city);
                cities.push(city);
                let n24 = ((total_24s as f64 * site.weight / total_weight).round() as u32).max(1);
                let (asn, blocks) = self.site_blocks(site, n24);
                let mut pool = Vec::new();
                let mut hid = Vec::new();
                for block in blocks {
                    // One to three gateways per /24.
                    let n = 1 + rng.gen_below(3);
                    for i in 0..n {
                        let host = 1 + (i * 80 + rng.gen_below(60)) as u32;
                        let ip = IpAddr::V4(block.nth(host as u64 % 255));
                        if self.server_by_ip.contains_key(&ip) {
                            continue;
                        }
                        let id = self.servers.len();
                        let (born, died) = self.churn_window(spec.churn_daily, &mut rng);
                        let documented = !rng.chance(spec.undocumented_frac);
                        let server = Server {
                            id,
                            ip,
                            provider: pidx,
                            site: sidx,
                            asn,
                            ports: ports.clone(),
                            born_day: born,
                            died_day: died,
                            documented,
                            cert_exposed: rng.chance(spec.cert_exposed_frac),
                            shared: spec.shared_https
                                && (spec.name == "oracle"
                                    && matches!(site.hosting, SiteHosting::Cloud { .. })
                                    || spec.name == "google" && rng.chance(0.35)),
                            anycast: site.code == "anycast",
                        };
                        self.server_by_ip.insert(ip, id);
                        if documented {
                            pool.push(id);
                        } else {
                            hid.push(id);
                        }
                        self.servers.push(server);
                    }
                }

                // IPv6 servers: one or two per target /56.
                let mut pool6 = Vec::new();
                if site.v6_slash56 > 0 {
                    let v6_block = self.site_v6_block(pidx, sidx, site);
                    // Providers sharing a cloud region's /48 get disjoint
                    // /56 banks (16 slots each).
                    let bank = (pidx as u128) * 16;
                    for b56 in 0..site.v6_slash56 {
                        let base = Ipv6Prefix::new(
                            Ipv6Addr::from(v6_block.network_u128() + ((bank + b56 as u128) << 72)),
                            56,
                        );
                        let n = 2 + rng.gen_below(3);
                        for i in 0..n {
                            let ip = IpAddr::V6(base.nth(1 + i * 7));
                            if self.server_by_ip.contains_key(&ip) {
                                continue;
                            }
                            let id = self.servers.len();
                            self.server_by_ip.insert(ip, id);
                            self.servers.push(Server {
                                id,
                                ip,
                                provider: pidx,
                                site: sidx,
                                asn,
                                ports: ports
                                    .iter()
                                    .copied()
                                    .filter(|p| p.transport == iotmap_nettypes::Transport::Tcp)
                                    .collect(),
                                born_day: self.sim_days.0,
                                died_day: self.sim_days.1,
                                documented: true,
                                // IPv6 fleets are newer, HTTPS-fronted
                                // deployments: most expose a standard
                                // certificate, which is what makes them
                                // hitlist-discoverable at all.
                                cert_exposed: rng.chance(spec.cert_exposed_frac.max(0.85)),
                                shared: false,
                                anycast: false,
                            });
                            pool6.push(id);
                        }
                    }
                }

                pools.push(pool);
                hidden.push(hid);
                pools_v6.push(pool6);
            }

            self.site_city.push(cities);
            self.site_pools.push(pools);
            self.site_hidden.push(hidden);
            self.site_pools_v6.push(pools_v6);
        }
    }

    /// Allocate `n24` /24 blocks for a site, returning the announcing ASN
    /// and the blocks.
    fn site_blocks(
        &mut self,
        site: &crate::providers::SiteSpec,
        n24: u32,
    ) -> (Asn, Vec<Ipv4Prefix>) {
        match &site.hosting {
            SiteHosting::Own { asn } => {
                // Own /16 blocks carved from 60.0.0.0/8 (one per 256 /24s).
                let mut blocks = Vec::new();
                let mut remaining = n24;
                while remaining > 0 {
                    let slab = self.own_block_counter;
                    self.own_block_counter += 1;
                    let base = 0x3C_00_00_00u32 + slab * 0x1_00_00;
                    let take = remaining.min(256);
                    for i in 0..take {
                        blocks.push(Ipv4Prefix::new(Ipv4Addr::from(base + i * 256), 24));
                    }
                    remaining -= take;
                }
                (*asn, blocks)
            }
            SiteHosting::Cloud { cloud, region } => {
                let (block, asn) = {
                    let c = self.clouds.cloud(cloud);
                    let r: &CloudRegion = c.region(region);
                    (r.v4_block, CloudCatalog::asn_for_region(c, region))
                };
                let key = (cloud.to_string(), region.to_string());
                let next = self.cloud_slash24_next.entry(key).or_insert(0);
                let capacity = (block.size() / 256) as u32;
                let mut blocks = Vec::new();
                for _ in 0..n24 {
                    let idx = *next % capacity;
                    *next += 1;
                    blocks.push(Ipv4Prefix::new(
                        Ipv4Addr::from(block.network_u32() + idx * 256),
                        24,
                    ));
                }
                (asn, blocks)
            }
        }
    }

    /// The IPv6 /48 a site draws its /56s from.
    fn site_v6_block(
        &mut self,
        pidx: usize,
        sidx: usize,
        site: &crate::providers::SiteSpec,
    ) -> Ipv6Prefix {
        match &site.hosting {
            SiteHosting::Cloud { cloud, region } => {
                let c = self.clouds.cloud(cloud);
                let r = c.region(region);
                r.v6_block.unwrap_or_else(|| {
                    // Region without native v6: fall back to a provider /48.
                    Ipv6Prefix::new(
                        Ipv6Addr::from(
                            (0x2a09u128 << 112) | ((pidx as u128) << 96) | ((sidx as u128) << 80),
                        ),
                        48,
                    )
                })
            }
            SiteHosting::Own { .. } => Ipv6Prefix::new(
                Ipv6Addr::from(
                    (0x2a09u128 << 112) | ((pidx as u128) << 96) | ((sidx as u128) << 80),
                ),
                48,
            ),
        }
    }

    /// A server's lifetime given the provider's churn level.
    fn churn_window(&self, churn_daily: f64, rng: &mut SimRng) -> (i64, i64) {
        let (d0, d1) = self.sim_days;
        let ephemeral_frac = (churn_daily * 3.0).min(0.5);
        if churn_daily > 0.0 && rng.chance(ephemeral_frac) {
            let life = 2 + rng.gen_below(4) as i64;
            let born = d0 + rng.gen_below((d1 - d0 - life) as u64) as i64;
            (born, born + life)
        } else {
            (d0, d1)
        }
    }

    fn build_bgp(&mut self) {
        // Cloud region announcements.
        for cloud in &self.clouds.clouds {
            for region in &cloud.regions {
                let origin = BgpOrigin {
                    asn: CloudCatalog::asn_for_region(cloud, &region.code),
                    org: cloud.org.to_string(),
                    location_label: region.code.clone(),
                    location: Some(self.geo.location(region.city).clone()),
                };
                self.bgp.announce_v4(region.v4_block, origin.clone());
                if let Some(v6) = region.v6_block {
                    self.bgp.announce_v6(v6, origin);
                }
            }
        }
        // Own-DC announcements: aggregate each site's /24s into the /16
        // slabs they came from.
        let mut seen_slab: HashSet<u32> = HashSet::new();
        let mut v6_seen: HashSet<Ipv6Prefix> = HashSet::new();
        for s in &self.servers {
            let spec = &self.providers[s.provider];
            let site = &spec.sites[s.site];
            if let SiteHosting::Own { asn } = site.hosting {
                match s.ip {
                    IpAddr::V4(v4) => {
                        let slab = u32::from(v4) >> 16;
                        if seen_slab.insert(slab) {
                            self.bgp.announce_v4(
                                Ipv4Prefix::new(Ipv4Addr::from(slab << 16), 16),
                                BgpOrigin {
                                    asn,
                                    org: spec.display.to_string(),
                                    location_label: site.code.clone(),
                                    location: Some(
                                        self.geo
                                            .location(self.site_city[s.provider][s.site])
                                            .clone(),
                                    ),
                                },
                            );
                        }
                    }
                    IpAddr::V6(v6) => {
                        let p48 = Ipv6Prefix::new(v6, 48);
                        if v6_seen.insert(p48) {
                            self.bgp.announce_v6(
                                p48,
                                BgpOrigin {
                                    asn,
                                    org: spec.display.to_string(),
                                    location_label: site.code.clone(),
                                    location: Some(
                                        self.geo
                                            .location(self.site_city[s.provider][s.site])
                                            .clone(),
                                    ),
                                },
                            );
                        }
                    }
                }
            } else if let IpAddr::V6(v6) = s.ip {
                // Cloud-hosted v6 outside the region block fallback case.
                let p48 = Ipv6Prefix::new(v6, 48);
                if self.bgp.lookup_v6(v6).is_none() && v6_seen.insert(p48) {
                    let SiteHosting::Cloud { cloud, .. } = &site.hosting else {
                        unreachable!()
                    };
                    let c = self.clouds.cloud(cloud);
                    self.bgp.announce_v6(
                        p48,
                        BgpOrigin {
                            asn: c.asn,
                            org: c.org.to_string(),
                            location_label: site.code.clone(),
                            location: Some(
                                self.geo
                                    .location(self.site_city[s.provider][s.site])
                                    .clone(),
                            ),
                        },
                    );
                }
            }
        }
        // Background block.
        self.bgp.announce_v4(
            Ipv4Prefix::new(Ipv4Addr::new(93, 0, 0, 0), 8),
            BgpOrigin {
                asn: Asn(64496),
                org: "Example Hosting Conglomerate".to_string(),
                location_label: String::new(),
                location: None,
            },
        );
    }

    /// Pool of documented A records for `(provider, site)`.
    fn site_rdata(&self, pidx: usize, sidx: usize) -> Vec<RData> {
        self.site_pools[pidx][sidx]
            .iter()
            .filter_map(|&sid| match self.servers[sid].ip {
                IpAddr::V4(a) => Some(RData::A(a)),
                IpAddr::V6(_) => None,
            })
            .collect()
    }

    /// The AAAA pool a site exposes in DNS: only part of the IPv6 fleet
    /// is client-facing; the rest is reachable (and hitlist-scannable) but
    /// never handed to devices — which is why the paper sees only ~51% of
    /// discovered IPv6 backends in ISP traffic while discovering the rest
    /// through scans.
    fn site_rdata_v6(&self, pidx: usize, sidx: usize) -> Vec<RData> {
        let pool: Vec<RData> = self.site_pools_v6[pidx][sidx]
            .iter()
            .filter_map(|&sid| match self.servers[sid].ip {
                IpAddr::V6(a) => Some(RData::Aaaa(a)),
                IpAddr::V4(_) => None,
            })
            .collect();
        let keep = ((pool.len() / 2).max(1)).min(pool.len());
        pool.into_iter().take(keep).collect()
    }

    fn build_tenants_and_zones(&mut self) {
        let providers = self.providers.clone();
        let mut rng = self.rng.fork("tenants");
        for (pidx, spec) in providers.iter().enumerate() {
            let mut tenants = Vec::new();
            let weights: Vec<f64> = spec.sites.iter().map(|s| s.weight).collect();

            match &spec.domain_style {
                DomainStyle::TenantServiceRegion { service, sld } => {
                    for t in 0..spec.tenants {
                        let home = rng.choose_weighted(&weights);
                        let name = format!(
                            "t{:08x}.{service}.{}.{sld}",
                            rng.next_u32(),
                            spec.sites[home].code
                        );
                        let domain: DomainName = name.parse().expect("valid tenant domain");
                        let observed =
                            self.install_tenant_policy(pidx, home, &domain, spec, &mut rng, t);
                        tenants.push(TenantInfo {
                            domain,
                            home_site: home,
                            in_passive_dns: observed,
                        });
                    }
                }
                DomainStyle::TenantSld { sld } => {
                    for t in 0..spec.tenants {
                        let home = rng.choose_weighted(&weights);
                        let name = format!("hub-{:06x}.{sld}", rng.next_u32() & 0xFF_FFFF);
                        let domain: DomainName = name.parse().expect("valid tenant domain");
                        let observed =
                            self.install_tenant_policy(pidx, home, &domain, spec, &mut rng, t);
                        tenants.push(TenantInfo {
                            domain,
                            home_site: home,
                            in_passive_dns: observed,
                        });
                    }
                }
                DomainStyle::TenantRegion { sld } => {
                    for t in 0..spec.tenants {
                        let home = rng.choose_weighted(&weights);
                        let code = Self::region_domain_code(spec, home);
                        let name = format!("t{:06x}.{code}.{sld}", rng.next_u32() & 0xFF_FFFF);
                        let domain: DomainName = name.parse().expect("valid tenant domain");
                        let observed =
                            self.install_tenant_policy(pidx, home, &domain, spec, &mut rng, t);
                        tenants.push(TenantInfo {
                            domain,
                            home_site: home,
                            in_passive_dns: observed,
                        });
                    }
                }
                DomainStyle::ServiceRegion { services, sld } => {
                    // One well-known endpoint per (service, site).
                    for (sidx, site) in spec.sites.iter().enumerate() {
                        for service in *services {
                            let name = format!("{service}.{}.{sld}", site.code);
                            let domain: DomainName = name.parse().expect("valid service domain");
                            let pool = self.site_rdata(pidx, sidx);
                            if !pool.is_empty() {
                                self.zones.set_policy(
                                    domain.clone(),
                                    RrType::A,
                                    Policy::Static(pool),
                                );
                            }
                            let pool6 = self.site_rdata_v6(pidx, sidx);
                            if !pool6.is_empty() {
                                self.zones.set_policy(
                                    domain.clone(),
                                    RrType::Aaaa,
                                    Policy::Static(pool6),
                                );
                            }
                            self.pdns_domains.push((
                                domain,
                                0.9,
                                rng.chance(self.config.passive_dns_coverage),
                            ));
                        }
                    }
                }
                DomainStyle::Fixed { names } => {
                    if spec.name == "google" {
                        self.install_google_zones(pidx, names);
                        // High-visibility domains: always in passive DNS.
                        for n in *names {
                            self.pdns_domains
                                .push((n.parse().expect("fixed name"), 0.97, true));
                        }
                    } else {
                        // Sierra: one regional front per site, in site order.
                        for (sidx, _) in spec.sites.iter().enumerate() {
                            let Some(name) = names.get(sidx) else { break };
                            let domain: DomainName = name.parse().expect("fixed name");
                            let pool = self.site_rdata(pidx, sidx);
                            if !pool.is_empty() {
                                self.zones.set_policy(
                                    domain.clone(),
                                    RrType::A,
                                    Policy::Static(pool),
                                );
                            }
                            let pool6 = self.site_rdata_v6(pidx, sidx);
                            if !pool6.is_empty() {
                                self.zones.set_policy(
                                    domain.clone(),
                                    RrType::Aaaa,
                                    Policy::Static(pool6),
                                );
                            }
                            self.pdns_domains.push((
                                domain,
                                0.9,
                                rng.chance(self.config.passive_dns_coverage),
                            ));
                        }
                    }
                }
            }
            self.tenants.push(tenants);
        }
    }

    /// Mindsphere-style region labels.
    fn region_domain_code(spec: &ProviderSpec, site: usize) -> String {
        if spec.name == "siemens" {
            ["eu1", "us1", "cn1", "eu2"][site.min(3)].to_string()
        } else {
            spec.sites[site].code.clone()
        }
    }

    /// Install DNS answer policies for one tenant domain. Returns whether
    /// the passive-DNS sensor network observes this domain at all (§3.6's
    /// coverage limitation applies per domain).
    fn install_tenant_policy(
        &mut self,
        pidx: usize,
        home: usize,
        domain: &DomainName,
        spec: &ProviderSpec,
        rng: &mut SimRng,
        tenant_idx: u32,
    ) -> bool {
        let is_cloud = matches!(spec.sites[home].hosting, SiteHosting::Cloud { .. });
        let pr_chain = is_cloud
            && matches!(
                spec.name,
                "bosch" | "cisco" | "ptc" | "sap" | "siemens" | "oracle"
            );
        if pr_chain {
            // Cloud tenants sit behind load-balancer CNAMEs; the LB name is
            // shared by many tenants of the same site.
            let SiteHosting::Cloud { cloud, region } = &spec.sites[home].hosting else {
                unreachable!()
            };
            let k = tenant_idx % 3;
            let lb_name: DomainName = format!("lb-{k}.{}.{region}.{cloud}-elb.example", spec.name)
                .parse()
                .expect("valid lb domain");
            self.zones.set_policy(
                domain.clone(),
                RrType::Cname,
                Policy::Alias(lb_name.clone()),
            );
            if !self.zones.contains(&lb_name) {
                let pool = self.site_rdata(pidx, home);
                if !pool.is_empty() {
                    let window = (pool.len() / 4).clamp(1, 6);
                    let salt = rng.next_u64() % 10_000;
                    self.zones.set_policy(
                        lb_name.clone(),
                        RrType::A,
                        Policy::Rotating { pool, window, salt },
                    );
                }
                let pool6 = self.site_rdata_v6(pidx, home);
                if !pool6.is_empty() {
                    self.zones
                        .set_policy(lb_name.clone(), RrType::Aaaa, Policy::Static(pool6));
                }
                self.pdns_domains.push((lb_name, 0.8, true));
            }
        } else {
            let pool = self.site_rdata(pidx, home);
            if !pool.is_empty() {
                let window = (pool.len() / 8).clamp(1, 6);
                let salt = rng.next_u64() % 100_000;
                self.zones.set_policy(
                    domain.clone(),
                    RrType::A,
                    Policy::Rotating { pool, window, salt },
                );
            }
            if rng.chance(0.6) {
                let pool6 = self.site_rdata_v6(pidx, home);
                if !pool6.is_empty() {
                    self.zones
                        .set_policy(domain.clone(), RrType::Aaaa, Policy::Static(pool6));
                }
            }
        }
        let observed = rng.chance(self.config.passive_dns_coverage);
        self.pdns_domains.push((domain.clone(), 0.5, observed));
        observed
    }

    /// Google: one global MQTT front (dedicated IPs) and one HTTPS front
    /// shared with non-IoT Google services (§3.4's "two different sets").
    fn install_google_zones(&mut self, pidx: usize, names: &[&str]) {
        let mut mqtt_pool = Vec::new();
        let mut https_pool = Vec::new();
        let mut mqtt6 = Vec::new();
        for (sidx, pool) in self.site_pools[pidx].iter().enumerate() {
            for &sid in pool {
                let s = &self.servers[sid];
                if let IpAddr::V4(a) = s.ip {
                    if s.shared {
                        https_pool.push(RData::A(a));
                    } else {
                        mqtt_pool.push(RData::A(a));
                    }
                }
            }
            // Same 55% DNS exposure rule as everywhere else (the rest of
            // the v6 fleet is scan-discoverable only).
            let site6 = &self.site_pools_v6[pidx][sidx];
            let keep = (site6.len() / 2).max(1).min(site6.len());
            for &sid in site6.iter().take(keep) {
                if let IpAddr::V6(a) = self.servers[sid].ip {
                    mqtt6.push(RData::Aaaa(a));
                }
            }
        }
        let mqtt: DomainName = names[0].parse().expect("google mqtt name");
        let https: DomainName = names[1].parse().expect("google https name");
        // Google fronts its global fleet behind one name with large,
        // fast-rotating answers — which is why the paper sees almost all
        // of T2's backends in ISP traffic (Fig. 6).
        let mqtt_window = (mqtt_pool.len() / 4).max(8);
        self.zones.set_policy(
            mqtt.clone(),
            RrType::A,
            Policy::Rotating {
                pool: mqtt_pool,
                window: mqtt_window,
                salt: 17,
            },
        );
        if !mqtt6.is_empty() {
            let w6 = (mqtt6.len() / 3).max(4);
            self.zones.set_policy(
                mqtt,
                RrType::Aaaa,
                Policy::Rotating {
                    pool: mqtt6,
                    window: w6,
                    salt: 29,
                },
            );
        }
        if !https_pool.is_empty() {
            let wh = (https_pool.len() / 4).max(8);
            self.zones.set_policy(
                https,
                RrType::A,
                Policy::Rotating {
                    pool: https_pool,
                    window: wh,
                    salt: 41,
                },
            );
        }
    }

    fn build_background(&mut self) {
        let mut rng = self.rng.fork("background");
        let n_cities = self.geo.len();
        for i in 0..self.config.background_hosts {
            let ip = Ipv4Addr::from(0x5D_00_00_00u32 + rng.gen_below(1 << 24) as u32);
            if self.server_by_ip.contains_key(&IpAddr::V4(ip)) {
                continue;
            }
            let domain: DomainName = format!("www.site{i:05}.example")
                .parse()
                .expect("valid background domain");
            let mut ports = vec![PortProto::tcp(443)];
            if rng.chance(0.3) {
                ports.push(PortProto::tcp(80));
            }
            if rng.chance(0.05) {
                ports.push(PortProto::tcp(8883)); // non-IoT MQTT brokers exist
            }
            self.zones.set_policy(
                domain.clone(),
                RrType::A,
                Policy::Static(vec![RData::A(ip)]),
            );
            self.pdns_domains
                .push((domain.clone(), 0.4, rng.chance(0.9)));
            self.background.push(BackgroundHost {
                ip,
                ports,
                domain,
                city: rng.gen_below(n_cities as u64) as usize,
            });
        }

        // Non-IoT domains on Google's shared HTTPS set and on the
        // Akamai-fronted Oracle share — the fuel for §3.4's
        // shared-vs-dedicated classification.
        let google = self.providers.iter().position(|p| p.name == "google");
        if let Some(g) = google {
            let shared: Vec<RData> = self
                .servers
                .iter()
                .filter(|s| s.provider == g && s.shared)
                .filter_map(|s| match s.ip {
                    IpAddr::V4(a) => Some(RData::A(a)),
                    _ => None,
                })
                .collect();
            if !shared.is_empty() {
                for i in 0..150u32 {
                    let domain: DomainName = format!("svc{i:03}.google-web.example")
                        .parse()
                        .expect("valid google service domain");
                    let k = 1 + (i as usize % 3);
                    let picks: Vec<RData> = (0..k)
                        .map(|j| shared[(i as usize * 7 + j * 13) % shared.len()].clone())
                        .collect();
                    self.zones
                        .set_policy(domain.clone(), RrType::A, Policy::Static(picks));
                    self.pdns_domains.push((domain, 0.8, true));
                }
            }
        }
        let oracle = self.providers.iter().position(|p| p.name == "oracle");
        if let Some(o) = oracle {
            let edge: Vec<RData> = self
                .servers
                .iter()
                .filter(|s| s.provider == o && s.shared)
                .filter_map(|s| match s.ip {
                    IpAddr::V4(a) => Some(RData::A(a)),
                    _ => None,
                })
                .collect();
            if !edge.is_empty() {
                for i in 0..200u32 {
                    let domain: DomainName = format!("www.brand{i:03}.example")
                        .parse()
                        .expect("valid akamai customer domain");
                    let picks: Vec<RData> = vec![edge[i as usize % edge.len()].clone()];
                    self.zones
                        .set_policy(domain.clone(), RrType::A, Policy::Static(picks));
                    self.pdns_domains.push((domain, 0.7, true));
                }
            }
        }
    }

    fn build_hitlist(&mut self) {
        let mut rng = self.rng.fork("hitlist");
        for s in &self.servers {
            if let IpAddr::V6(a) = s.ip {
                if rng.chance(self.config.hitlist_coverage) {
                    self.hitlist.add(a);
                }
            }
        }
        // Hitlist noise: responsive hosts that are not IoT backends.
        for i in 0..64u64 {
            self.hitlist.add(Ipv6Addr::from(
                (0x2001_0db8_0bad_u128 << 80) | (i as u128 + 1),
            ));
        }
    }

    /// Simulate the global resolver activity the passive-DNS sensors see.
    ///
    /// Three passes reproduce the serial observation sequence exactly
    /// (DESIGN.md, "Passive-DNS synthesis"):
    ///
    /// 1. *resolve* — block by block, draw every resolution context from
    ///    the `pdns` stream serially in domain order (no draw depends on
    ///    an answer), then resolve the block in parallel against borrowed
    ///    zone answers, aggregating each domain's resolutions locally;
    /// 2. *merge* — absorb the local rows in draw order through one
    ///    table, so rows keep their global first-seen order;
    /// 3. *index* — build the database from the finished table, once.
    fn fill_passive_dns(&mut self) {
        let mut rng = self.rng.fork("pdns");
        let continents = [
            (Continent::Europe, 0.40),
            (Continent::NorthAmerica, 0.35),
            (Continent::Asia, 0.15),
            (Continent::SouthAmerica, 0.05),
            (Continent::Oceania, 0.05),
        ];
        let weights: Vec<f64> = continents.iter().map(|c| c.1).collect();
        let (d0, d1) = self.sim_days;
        let zones = &self.zones;
        let observed: Vec<(&DomainName, f64)> = self
            .pdns_domains
            .iter()
            .filter(|(_, _, observed)| *observed)
            .map(|(domain, popularity, _)| (domain, *popularity))
            .collect();

        let resolve_span = iotmap_obs::span!("world.passive_dns.resolve");
        let mut batches = Vec::new();
        let mut resolutions = 0;
        let mut draws = Vec::new();
        for (i, &(domain, popularity)) in observed.iter().enumerate() {
            for day in d0..d1 {
                if !rng.chance(popularity) {
                    continue;
                }
                let n_obs = 1 + rng.gen_below(2);
                for _ in 0..n_obs {
                    let continent = continents[rng.choose_weighted(&weights)].0;
                    let ctx = ResolutionContext {
                        client_continent: continent,
                        time: Date::from_epoch_days(day).midnight() + SimDuration::hours(12),
                        resolver_id: rng.gen_below(40),
                    };
                    draws.push((domain, ctx));
                }
            }
            if draws.len() >= PDNS_BLOCK_RESOLUTIONS || i + 1 == observed.len() {
                resolutions += draws.len();
                batches.extend(resolve_block(zones, &draws));
                draws.clear();
            }
        }
        iotmap_obs::annotate!("domains", observed.len());
        iotmap_obs::annotate!("resolutions", resolutions);
        drop(resolve_span);

        let merge_span = iotmap_obs::span!("world.passive_dns.merge");
        let rows: usize = batches.iter().map(RrsetRows::len).sum();
        iotmap_obs::annotate!("rows", rows);
        let mut table = RrsetAggregator::with_capacity(rows);
        for batch in batches {
            table.absorb(batch);
        }
        drop(merge_span);

        let index_span = iotmap_obs::span!("world.passive_dns.index");
        iotmap_obs::annotate!("entries", table.len());
        let db = table.into_db();
        drop(index_span);

        iotmap_obs::annotate!("domains", observed.len());
        iotmap_obs::annotate!("resolutions", resolutions);
        iotmap_obs::annotate!("observations", db.entries().map(|e| e.count).sum::<u64>());
        iotmap_obs::annotate!("entries", db.len());
        self.passive_dns = db;
    }

    fn build_published(&mut self) {
        let idx = |n: &str| self.providers.iter().position(|p| p.name == n);
        if let Some(c) = idx("cisco") {
            self.published.cisco_ips = self
                .servers
                .iter()
                .filter(|s| s.provider == c && s.ip.is_ipv4())
                .map(|s| s.ip)
                .collect();
        }
        if let Some(si) = idx("siemens") {
            self.published.siemens_ips = self
                .servers
                .iter()
                .filter(|s| s.provider == si && s.ip.is_ipv4())
                .map(|s| s.ip)
                .collect();
        }
        if let Some(m) = idx("microsoft") {
            // Microsoft publishes a *subset* of its space as prefixes
            // (>12k addresses at full scale; most published addresses host
            // nothing discoverable). The published ranges naturally include
            // the blocks where the undocumented (DNS-less) gateways live —
            // which is how the paper could tell its methodology missed a
            // handful of *active* published IPs.
            let hidden_blocks: Vec<u32> = self
                .servers
                .iter()
                .filter(|s| s.provider == m && !s.documented)
                .filter_map(|s| match s.ip {
                    IpAddr::V4(a) => Some(u32::from(a) >> 8),
                    _ => None,
                })
                .collect();
            let mut blocks: Vec<u32> = self
                .servers
                .iter()
                .filter(|s| s.provider == m)
                .filter_map(|s| match s.ip {
                    IpAddr::V4(a) => Some(u32::from(a) >> 8),
                    _ => None,
                })
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            let take = (blocks.len() / 6).max(2);
            let mut chosen: Vec<u32> = hidden_blocks;
            chosen.sort_unstable();
            chosen.dedup();
            for b in blocks {
                if chosen.len() >= take.max(chosen.len()) && chosen.len() >= take {
                    break;
                }
                if !chosen.contains(&b) {
                    chosen.push(b);
                }
            }
            self.published.microsoft_prefixes = chosen
                .into_iter()
                .map(|b| Ipv4Prefix::new(Ipv4Addr::from(b << 8), 24))
                .collect();
        }
    }
}

/// Resolutions drawn ahead of each parallel resolve: bounds the drawn
/// contexts held at once, and keeps each block's halves of similar cost
/// (domains that create many rows cluster in the domain list).
const PDNS_BLOCK_RESOLUTIONS: usize = 32_768;

/// Resolve one block of drawn resolutions in parallel. Shards split the
/// resolutions, not the domains, so one heavy domain cannot leave a
/// worker with the block. Each domain's run of resolutions aggregates in
/// a small table, flushed when the domain changes; the flushed rows come
/// back in shard order, which is draw order.
fn resolve_block<'a>(
    zones: &'a ZoneDb,
    draws: &[(&'a DomainName, ResolutionContext)],
) -> Vec<RrsetRows<'a>> {
    iotmap_par::shard_chunks(draws, |_, draws| {
        let mut run = RrsetAggregator::new();
        let mut rows = RrsetRows::default();
        let mut current: Option<&DomainName> = None;
        for &(domain, ref ctx) in draws {
            if current.is_some_and(|c| !std::ptr::eq(c, domain)) {
                run.flush_into(&mut rows);
            }
            current = Some(domain);
            observe_resolution(zones, domain, ctx, 0, &mut run);
        }
        run.flush_into(&mut rows);
        rows
    })
}

/// Record what a resolver (and thus the passive-DNS sensor next to it)
/// observes when resolving `domain`: the CNAME chain and the terminal
/// address records, each under its own owner name — exactly how DNSDB
/// stores chains.
fn observe_resolution<'a>(
    zones: &'a ZoneDb,
    domain: &'a DomainName,
    ctx: &ResolutionContext,
    depth: usize,
    table: &mut RrsetAggregator<'a>,
) {
    if depth > 4 {
        return;
    }
    for rrtype in [RrType::A, RrType::Aaaa] {
        for r in zones.answers(domain, rrtype, ctx) {
            table.observe(domain, r, ctx.time);
            if let RDataRef::Cname(target) = r {
                observe_resolution(zones, target, ctx, depth + 1, table);
                // A CNAME is the whole answer to this query. The alias
                // answers the A and the AAAA query alike, so an aliased
                // owner's CNAME is observed, and its target's chain
                // walked, once per address type.
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig::small(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = world();
        let b = world();
        assert_eq!(a.servers.len(), b.servers.len());
        for (x, y) in a.servers.iter().zip(b.servers.iter()) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.provider, y.provider);
            assert_eq!(x.born_day, y.born_day);
        }
        assert_eq!(a.passive_dns.len(), b.passive_dns.len());
        assert_eq!(a.zones.len(), b.zones.len());
    }

    #[test]
    fn slash24_counts_track_table1_ratios() {
        let w = world();
        let count24 = |name: &str| {
            let p = w.provider_index(name);
            let mut s24: HashSet<u32> = HashSet::new();
            for s in &w.servers {
                if s.provider == p {
                    if let IpAddr::V4(a) = s.ip {
                        s24.insert(u32::from(a) >> 8);
                    }
                }
            }
            s24.len()
        };
        // At ip_scale 16: Amazon ≈ 9000/16, SAP ≈ 2929/16, and the small
        // providers are clamped at one /24 per site.
        let amazon = count24("amazon");
        assert!((450..650).contains(&amazon), "amazon {amazon}");
        let sap = count24("sap");
        assert!((140..220).contains(&sap), "sap {sap}");
        assert!(count24("amazon") > count24("microsoft"));
        assert!(count24("microsoft") > count24("fujitsu"));
    }

    #[test]
    fn every_server_has_bgp_origin() {
        let w = world();
        for s in &w.servers {
            let origin = w.bgp.origin(s.ip);
            assert!(
                origin.is_some(),
                "no BGP origin for {} ({:?})",
                s.ip,
                s.provider
            );
            assert_eq!(origin.unwrap().asn, s.asn, "asn mismatch for {}", s.ip);
        }
    }

    #[test]
    fn di_providers_announce_from_own_asns() {
        let w = world();
        let microsoft = w.provider_index("microsoft");
        for s in w.servers.iter().filter(|s| s.provider == microsoft) {
            assert_eq!(s.asn, Asn(8068));
        }
        let bosch = w.provider_index("bosch");
        for s in w.servers.iter().filter(|s| s.provider == bosch) {
            assert_eq!(s.asn, Asn(8987), "bosch is on AWS eu-central-1");
        }
    }

    #[test]
    fn amazon_spans_four_asns() {
        let w = world();
        let amazon = w.provider_index("amazon");
        let asns: HashSet<Asn> = w
            .servers
            .iter()
            .filter(|s| s.provider == amazon)
            .map(|s| s.asn)
            .collect();
        assert_eq!(asns.len(), 4, "{asns:?}");
    }

    #[test]
    fn tenant_domains_resolve_to_provider_ips() {
        let w = world();
        let m = w.provider_index("microsoft");
        let ctx = ResolutionContext::simple(Continent::Europe, Date::new(2022, 3, 1).midnight());
        let mut resolved_any = false;
        for t in w.tenants[m].iter().take(20) {
            for ip in iotmap_dns::resolve(&w.zones, &t.domain, RrType::A, &ctx) {
                resolved_any = true;
                let sid = w.server_by_ip.get(&ip).copied().expect("known server IP");
                assert_eq!(w.servers[sid].provider, m);
            }
        }
        assert!(resolved_any);
    }

    #[test]
    fn pr_tenants_resolve_through_cnames() {
        let w = world();
        let b = w.provider_index("bosch");
        let ctx = ResolutionContext::simple(Continent::Europe, Date::new(2022, 3, 1).midnight());
        let t = &w.tenants[b][0];
        // Direct query yields a CNAME...
        let direct = w.zones.query(&t.domain, RrType::A, &ctx);
        assert!(
            matches!(direct.first(), Some(RData::Cname(_))),
            "{direct:?}"
        );
        // ...and full resolution lands on Bosch's AWS servers.
        let ips = iotmap_dns::resolve(&w.zones, &t.domain, RrType::A, &ctx);
        assert!(!ips.is_empty());
        for ip in ips {
            let sid = w.server_by_ip[&ip];
            assert_eq!(w.servers[sid].provider, b);
        }
    }

    #[test]
    fn google_has_dedicated_and_shared_sets() {
        let w = world();
        let g = w.provider_index("google");
        let dedicated = w
            .servers
            .iter()
            .filter(|s| s.provider == g && !s.shared && s.ip.is_ipv4())
            .count();
        let shared = w
            .servers
            .iter()
            .filter(|s| s.provider == g && s.shared && s.ip.is_ipv4())
            .count();
        assert!(dedicated > 0 && shared > 0);
        // The shared set carries non-IoT domains in passive DNS.
        let week = w.config.study_period;
        let shared_ip = w
            .servers
            .iter()
            .find(|s| s.provider == g && s.shared && s.ip.is_ipv4())
            .unwrap()
            .ip;
        let non_iot = w
            .passive_dns
            .domains_for_ip(shared_ip, week)
            .filter(|e| e.owner.as_str().contains("google-web"))
            .count();
        assert!(non_iot > 0, "shared Google IP should carry web domains");
    }

    #[test]
    fn passive_dns_is_populated_for_study_week() {
        let w = world();
        let week = w.config.study_period;
        let q = iotmap_dregex::query::DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A")
            .unwrap();
        let hits = w.passive_dns.search(&q, week).count();
        assert!(hits > 50, "azure-devices hits {hits}");
    }

    #[test]
    fn one_resolution_walks_an_alias_once_per_address_type() {
        let d = |s: &str| -> DomainName { s.parse().unwrap() };
        let (tenant, lb) = (d("tenant.example.com"), d("lb.cloud.example"));
        let mut zones = ZoneDb::new();
        zones.set_policy(tenant.clone(), RrType::Cname, Policy::Alias(lb.clone()));
        zones.set_static(
            lb,
            vec![
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ],
        );
        let ctx = ResolutionContext {
            client_continent: Continent::Europe,
            time: Date::new(2022, 3, 1).midnight(),
            resolver_id: 0,
        };
        let mut table = RrsetAggregator::new();
        observe_resolution(&zones, &tenant, &ctx, 0, &mut table);
        let db = table.into_db();
        let rows: Vec<(String, String, u64)> = db
            .entries()
            .map(|e| (e.owner.to_string(), e.rdata.to_string(), e.count))
            .collect();
        // The A query and the AAAA query each meet the alias and walk
        // its target: the CNAME and both target records count twice.
        let row = |owner: &str, rdata: &str| (owner.to_string(), rdata.to_string(), 2);
        assert_eq!(
            rows,
            [
                row("tenant.example.com", "lb.cloud.example."),
                row("lb.cloud.example", "192.0.2.1"),
                row("lb.cloud.example", "2001:db8::1"),
            ]
        );
    }

    #[test]
    fn hitlist_covers_most_v6_servers() {
        let w = world();
        let v6_total = w.servers.iter().filter(|s| s.ip.is_ipv6()).count();
        let covered = w
            .servers
            .iter()
            .filter(|s| match s.ip {
                IpAddr::V6(a) => w.hitlist.contains(a),
                _ => false,
            })
            .count();
        assert!(v6_total > 20, "v6 servers {v6_total}");
        let frac = covered as f64 / v6_total as f64;
        assert!((0.6..=0.95).contains(&frac), "coverage {frac}");
    }

    #[test]
    fn microsoft_publishes_prefix_subset() {
        let w = world();
        assert!(!w.published.microsoft_prefixes.is_empty());
        let m = w.provider_index("microsoft");
        // Published prefixes cover some but not all Microsoft servers.
        let inside = w
            .servers
            .iter()
            .filter(|s| s.provider == m)
            .filter(|s| match s.ip {
                IpAddr::V4(a) => w.published.microsoft_prefixes.iter().any(|p| p.contains(a)),
                _ => false,
            })
            .count();
        let total = w
            .servers
            .iter()
            .filter(|s| s.provider == m && s.ip.is_ipv4())
            .count();
        assert!(
            inside > 0 && inside < total,
            "inside {inside} total {total}"
        );
        // Cisco and Siemens publish everything.
        assert!(!w.published.cisco_ips.is_empty());
        assert!(!w.published.siemens_ips.is_empty());
    }

    #[test]
    fn churn_only_for_cloudy_providers() {
        let w = world();
        let (d0, d1) = w.sim_days;
        let m = w.provider_index("microsoft");
        for s in w.servers.iter().filter(|s| s.provider == m) {
            assert_eq!((s.born_day, s.died_day), (d0, d1), "microsoft is stable");
        }
        let amazon = w.provider_index("amazon");
        let ephemeral = w
            .servers
            .iter()
            .filter(|s| s.provider == amazon && (s.born_day, s.died_day) != (d0, d1))
            .count();
        assert!(ephemeral > 0, "amazon should churn");
    }

    #[test]
    fn undocumented_servers_only_microsoft() {
        let w = world();
        let m = w.provider_index("microsoft");
        for s in &w.servers {
            if !s.documented {
                assert_eq!(s.provider, m);
            }
        }
        let hidden = w.servers.iter().filter(|s| !s.documented).count();
        assert!(hidden > 0, "microsoft should have undocumented gateways");
    }
}
