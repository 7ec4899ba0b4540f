//! The ISP traffic simulator: ground-truth flows → border router →
//! analysis folds.
//!
//! For every subscriber line, every device generates sessions according to
//! its provider's traffic profile (diurnal shape, volume, port mix,
//! down/up asymmetry), aimed at the gateway servers its DNS resolution
//! returns that day. Scanner lines probe broad swaths of the backend
//! address space. Everything passes through the ISP's
//! [`iotmap_netflow::BorderRouter`] (sampling, BCP 38, anonymization)
//! before it reaches any [`FlowFold`] — the analyses only ever see what the
//! paper's authors saw.

use crate::build::World;
use crate::isp::{Device, ScannerKind, SubscriberLine};
use crate::providers::{DomainStyle, ProviderSpec, SiteHosting};
use crate::server::ServerId;
use iotmap_dns::{resolve, ResolutionContext, RrType};
use iotmap_faults::NetflowFaults;
use iotmap_netflow::{
    BorderRouter, Direction, FlowFold, FlowRecord, LineId, RouteTally, StoringSink,
};
use iotmap_nettypes::{dist, Continent, Date, DomainName, SimDuration, SimRng, StudyPeriod};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use std::time::Instant;

/// Summary counters from one simulation pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrafficStats {
    /// True flows generated (before sampling).
    pub flows_generated: u64,
    /// Flows exported by the border router.
    pub flows_exported: u64,
    /// Device-days simulated.
    pub device_days: u64,
    /// Sessions drawn on active device-days (each emits at most one
    /// down/up record pair).
    pub sessions: u64,
}

impl std::ops::AddAssign for TrafficStats {
    fn add_assign(&mut self, other: TrafficStats) {
        self.flows_generated += other.flows_generated;
        self.flows_exported += other.flows_exported;
        self.device_days += other.device_days;
        self.sessions += other.sessions;
    }
}

/// One worker's share of a pass: its fold partial, the line buffer it
/// reuses for every line it simulates, its counters, and its time per
/// layer (generate, route, fold, merge).
struct LinePass<P> {
    partial: P,
    flows: Vec<FlowRecord>,
    stats: TrafficStats,
    tally: RouteTally,
    layer_ns: [u64; 4],
    /// End of the last timed layer.
    last: Instant,
}

impl<P> LinePass<P> {
    fn new(partial: P) -> Self {
        LinePass {
            partial,
            flows: Vec::new(),
            stats: TrafficStats::default(),
            tally: RouteTally::default(),
            layer_ns: [0; 4],
            last: Instant::now(),
        }
    }

    /// Charge the time since the last lap to `layer`.
    fn lap(&mut self, layer: usize) {
        let now = Instant::now();
        self.layer_ns[layer] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Merge a later share of the pass into this one, charging the merge
    /// to the merge layer.
    fn absorb<F: FlowFold<Partial = P>>(&mut self, other: LinePass<P>, fold: &F) {
        let start = Instant::now();
        fold.merge(&mut self.partial, other.partial);
        self.stats += other.stats;
        self.tally += other.tally;
        for (mine, theirs) in self.layer_ns.iter_mut().zip(other.layer_ns) {
            *mine += theirs;
        }
        self.layer_ns[3] += start.elapsed().as_nanos() as u64;
    }
}

/// One provider's session draw tables, built once per simulator. They
/// hold the same floats, in the same order, that every device-day used
/// to rebuild, and each total is the same left-to-right sum
/// [`SimRng::choose_weighted`] takes, so every weighted draw is unchanged.
struct ProviderTables {
    /// Port-mix weights: the primary-protocol and secondary-channel draws.
    port_weights: Vec<f64>,
    port_total: f64,
    /// Diurnal activity weight per hour of day.
    hour_weights: [f64; 24],
    hour_total: f64,
    /// Per site: hosted in the outage-struck cloud (any region)? Drives
    /// the cross-region spillover dip.
    outage_cloud: Vec<bool>,
}

impl ProviderTables {
    fn new(spec: &ProviderSpec, outage_cloud: &str) -> Self {
        let profile = &spec.profile;
        let port_weights: Vec<f64> = profile.ports.iter().map(|p| p.weight).collect();
        let hour_weights: [f64; 24] =
            std::array::from_fn(|h| profile.pattern.hour_weight(h as u32));
        ProviderTables {
            port_total: port_weights.iter().sum(),
            port_weights,
            hour_total: hour_weights.iter().sum(),
            hour_weights,
            outage_cloud: spec
                .sites
                .iter()
                .map(|site| match &site.hosting {
                    SiteHosting::Cloud { cloud, .. } => *cloud == outage_cloud,
                    _ => false,
                })
                .collect(),
        }
    }
}

/// A device's DNS answer for one record type, mapped to server ids and
/// resolved once per 7-day resolution epoch. Liveness is not memoised:
/// servers churn mid-epoch, so each day filters the answer afresh.
struct EpochAnswer {
    rrtype: RrType,
    /// First day of the epoch `servers` was resolved for.
    epoch: Option<i64>,
    servers: Vec<ServerId>,
}

impl EpochAnswer {
    fn new(rrtype: RrType) -> Self {
        EpochAnswer {
            rrtype,
            epoch: None,
            servers: Vec::new(),
        }
    }
}

/// The simulator.
pub struct TrafficSimulator<'a> {
    world: &'a World,
    /// Well-known endpoint per `(provider, site)` for tenant-less schemes.
    service_domain: HashMap<(usize, usize), DomainName>,
    /// Per-provider pools of US-site documented v4 servers (secondary-US
    /// contacts).
    us_pools: Vec<Vec<ServerId>>,
    /// Per-provider undocumented (baked-in address) servers.
    hidden_pools: Vec<Vec<ServerId>>,
    /// Per-provider session draw tables.
    tables: Vec<ProviderTables>,
    /// NetFlow export faults applied at the border router.
    netflow_faults: NetflowFaults,
    fault_seed: u64,
}

impl<'a> TrafficSimulator<'a> {
    /// Simulator whose border router applies a NetFlow export-fault
    /// plan. The faults act strictly after packet sampling, so every
    /// flow that survives them is identical to the unfaulted
    /// simulator's.
    pub fn with_faults(world: &'a World, fault_seed: u64, faults: NetflowFaults) -> Self {
        let mut sim = Self::new(world);
        sim.netflow_faults = faults;
        sim.fault_seed = fault_seed;
        sim
    }

    /// Prepare a simulator for a world.
    pub fn new(world: &'a World) -> Self {
        let mut service_domain = HashMap::new();
        for (pidx, spec) in world.providers.iter().enumerate() {
            match &spec.domain_style {
                DomainStyle::ServiceRegion { services, sld } => {
                    for (sidx, site) in spec.sites.iter().enumerate() {
                        let name = format!("{}.{}.{sld}", services[0], site.code);
                        service_domain
                            .insert((pidx, sidx), name.parse().expect("valid service domain"));
                    }
                }
                DomainStyle::Fixed { names } => {
                    for (sidx, _) in spec.sites.iter().enumerate() {
                        let name = if spec.name == "google" {
                            names[0]
                        } else {
                            names[sidx.min(names.len() - 1)]
                        };
                        service_domain
                            .insert((pidx, sidx), name.parse().expect("valid fixed domain"));
                    }
                }
                _ => {}
            }
        }
        let us_pools = (0..world.providers.len())
            .map(|p| {
                world.site_pools[p]
                    .iter()
                    .enumerate()
                    .filter(|(s, _)| {
                        world.geo.location(world.site_city[p][*s]).continent
                            == Continent::NorthAmerica
                    })
                    .flat_map(|(_, pool)| pool.iter().copied())
                    .collect()
            })
            .collect();
        let hidden_pools = (0..world.providers.len())
            .map(|p| world.site_hidden[p].iter().flatten().copied().collect())
            .collect();
        let tables = world
            .providers
            .iter()
            .map(|spec| ProviderTables::new(spec, &world.events.outage.cloud))
            .collect();
        TrafficSimulator {
            world,
            service_domain,
            us_pools,
            hidden_pools,
            tables,
            netflow_faults: NetflowFaults::NONE,
            fault_seed: 0,
        }
    }

    /// Simulate a period, appending the exported flow sequence, in
    /// order, to `store.records` — for tests and small scales; analyses
    /// stream through [`TrafficSimulator::run_fold`] instead.
    pub fn run(&self, period: StudyPeriod, store: &mut StoringSink) -> TrafficStats {
        let (records, stats) = self.run_fold(period, &*store);
        store.records.extend(records);
        stats
    }

    /// Simulate a period, streaming exported flows through a mergeable
    /// [`FlowFold`]. Peak memory is one line's flows per worker plus the
    /// aggregate state — the full flow set is never materialized. Lines
    /// fold into per-shard partials merged in shard order, so the result
    /// is byte-identical to folding the whole export sequence serially,
    /// at any thread count.
    pub fn run_fold<F>(&self, period: StudyPeriod, fold: &F) -> (F::Partial, TrafficStats)
    where
        F: FlowFold + Sync,
    {
        self.run_replicated_fold(period, 1, fold)
    }

    /// [`TrafficSimulator::run_fold`] over a subscriber population
    /// replicated `replicas` times — the scale harness for ISP runs far
    /// beyond the world's materialized line count.
    ///
    /// Replica `r` simulates every line under id `line.id + r * n`
    /// (forking fresh RNG streams, so replicas produce distinct
    /// households, not copies) and the border router anonymizes over the
    /// full `replicas * n` line space. Scanner lines are only simulated
    /// in replica 0: the scanner *population* is a property of the
    /// world's config, not of the scale factor.
    ///
    /// Each replica is one [`iotmap_par::shard_fold`] over the lines: a
    /// worker generates one line's flows into its reused buffer, routes
    /// the buffer in place and folds it while it is still in cache. The
    /// router decides each flow on the flow alone, so routing in the
    /// workers exports what a serial router would.
    pub fn run_replicated_fold<F>(
        &self,
        period: StudyPeriod,
        replicas: u64,
        fold: &F,
    ) -> (F::Partial, TrafficStats)
    where
        F: FlowFold + Sync,
    {
        assert!(replicas >= 1, "at least one replica");
        let _span = iotmap_obs::span!("world.traffic_simulation");
        let world = self.world;
        let n = world.isp.lines.len() as u64;
        let rng = SimRng::new(world.config.seed).fork("traffic");
        let router = BorderRouter::with_faults(
            world.config.sampling_rate,
            replicas * n - 1,
            world.config.seed ^ 0x0150_cafe,
            rng.fork("router").next_u64(),
            self.fault_seed,
            self.netflow_faults.clone(),
        );
        let affected = self.affected_servers(period);

        let flow_span = iotmap_obs::span!("netflow.flow_generation");
        let mut pass = LinePass::new(fold.make());
        for rep in 0..replicas {
            let replica = iotmap_par::shard_fold(
                &world.isp.lines,
                |_| LinePass::new(fold.make()),
                |w, _, line| {
                    w.flows.clear();
                    let scanner = line.scanner.filter(|_| rep == 0);
                    self.line_flows(
                        line,
                        line.id + rep * n,
                        scanner,
                        period,
                        &affected,
                        &rng,
                        &mut w.flows,
                        &mut w.stats,
                    );
                    w.lap(0);
                    router.route(&mut w.flows, &mut w.tally);
                    w.lap(1);
                    w.flows.iter().for_each(|r| fold.fold(&mut w.partial, r));
                    w.lap(2);
                },
                |a, b| a.absorb(b, fold),
            );
            pass.absorb(replica, fold);
        }
        let stats = TrafficStats {
            flows_exported: pass.tally.exported,
            ..pass.stats
        };
        // Item counts and per-layer time on the pass span, so a trace
        // shows ns/flow and ns/session per pass and per layer.
        iotmap_obs::annotate!("flows_generated", stats.flows_generated);
        iotmap_obs::annotate!("flows_exported", stats.flows_exported);
        iotmap_obs::annotate!("device_days", stats.device_days);
        iotmap_obs::annotate!("sessions", stats.sessions);
        for (key, ns) in ["generate_ns", "route_ns", "fold_ns", "merge_ns"]
            .into_iter()
            .zip(pass.layer_ns)
        {
            iotmap_obs::annotate!(key, ns);
        }
        drop(flow_span);
        router.flush_metrics(&pass.tally);
        iotmap_obs::count!("netflow.flows_generated", stats.flows_generated);
        iotmap_obs::count!("world.device_days", stats.device_days);
        (pass.partial, stats)
    }

    /// Outage-affected servers, when the period overlaps the event.
    fn affected_servers(&self, period: StudyPeriod) -> HashSet<ServerId> {
        if period.overlaps(&self.world.events.outage.window) {
            self.world.outage_affected_servers()
        } else {
            HashSet::new()
        }
    }

    /// One line's true flows over the period, appended to `out`: the
    /// scanner's probes when `scanner` is set, then every device's
    /// sessions. `id` is the line's id in the simulated population (its
    /// replica's), and seeds the line's RNG fork, so generation is pure
    /// per line and lines shard freely.
    #[allow(clippy::too_many_arguments)]
    fn line_flows(
        &self,
        line: &SubscriberLine,
        id: u64,
        scanner: Option<ScannerKind>,
        period: StudyPeriod,
        affected: &HashSet<ServerId>,
        rng: &SimRng,
        out: &mut Vec<FlowRecord>,
        stats: &mut TrafficStats,
    ) {
        let mut line_rng = rng.fork_idx(id);
        if let Some(kind) = scanner {
            self.run_scanner(id, kind, period, &mut line_rng, out, stats);
        }
        for (di, device) in line.devices.iter().enumerate() {
            let mut dev_rng = line_rng.fork_idx(di as u64 + 1);
            self.run_device(
                id,
                line.v6_capable,
                device,
                period,
                affected,
                &mut dev_rng,
                out,
                stats,
            );
        }
    }

    /// One device over the whole period, appending its true flows to `out`.
    #[allow(clippy::too_many_arguments)]
    fn run_device(
        &self,
        line_id: u64,
        v6_capable: bool,
        device: &Device,
        period: StudyPeriod,
        affected: &HashSet<ServerId>,
        rng: &mut SimRng,
        out: &mut Vec<FlowRecord>,
        stats: &mut TrafficStats,
    ) {
        let world = self.world;
        let profile = &world.providers[device.provider].profile;
        let tables = &self.tables[device.provider];
        let ev = &world.events.outage;
        let domain = self.device_domain(device);
        let mut v4_answer = EpochAnswer::new(RrType::A);
        let mut v6_answer = EpochAnswer::new(RrType::Aaaa);
        // Whether this device goes silent during an outage (rather than
        // retrying) is a stable property of its firmware.
        let silent_in_outage = rng.chance(ev.silence_prob);
        // Devices speak one primary protocol (a camera does not alternate
        // between CoAP and AMQP): pick it once, with occasional secondary
        // channels. This is what concentrates §5.6's heavy AMQP volumes on
        // a small line population instead of smearing them over everyone.
        let primary_port = profile.ports
            [rng.choose_weighted_with_total(&tables.port_weights, tables.port_total)]
        .port;

        for date in period.days() {
            stats.device_days += 1;
            // Devices are not all active every day.
            if !rng.chance(0.75) {
                continue;
            }
            let Some(domain) = domain else { continue };
            let day = date.epoch_days();
            let v4_today = self.gateway_today(line_id, device, domain, day, &mut v4_answer);
            let v6_today = if device.uses_v6 && v6_capable {
                self.gateway_today(line_id, device, domain, day, &mut v6_answer)
            } else {
                None
            };
            if v4_today.is_none() && v6_today.is_none() {
                continue;
            }
            let midnight = date.midnight();

            // Daily volume budget.
            let heavy = device.heavy;
            let dn_median = if heavy {
                profile
                    .heavy
                    .expect("heavy device implies heavy tail")
                    .dn_bytes_median
            } else {
                profile.dn_bytes_median * device.volume_factor
            };
            let dn_total = dist::log_normal_median(rng, dn_median, profile.sigma);
            let up_total = dn_total / profile.down_up_ratio * rng.f64_range(0.8, 1.25);

            let sessions = dist::poisson(rng, profile.sessions_per_day).max(1);
            stats.sessions += sessions;

            for s in 0..sessions {
                let hour =
                    rng.choose_weighted_with_total(&tables.hour_weights, tables.hour_total) as u64;
                let time =
                    midnight + SimDuration::hours(hour) + SimDuration::seconds(rng.gen_below(3600));

                // Port: heavy devices put most bytes on the heavy port;
                // everyone else mostly sticks to their primary protocol.
                let port = if heavy && rng.chance(0.8) {
                    profile.heavy.expect("heavy tail").port
                } else if rng.chance(0.92) {
                    primary_port
                } else {
                    profile.ports
                        [rng.choose_weighted_with_total(&tables.port_weights, tables.port_total)]
                    .port
                };

                // Server: occasionally the weekly US sync or a baked-in
                // undocumented gateway; normally today's DNS answer.
                let server_id = self.pick_server(line_id, device, day, s, v4_today, v6_today, rng);
                let Some(server_id) = server_id else { continue };
                let server = &world.servers[server_id];

                let mut dn = dn_total / sessions as f64 * rng.f64_range(0.4, 1.6);
                let mut up = up_total / sessions as f64 * rng.f64_range(0.4, 1.6);

                // Outage dynamics (§6.1).
                match ev.session_scaling(
                    time,
                    affected.contains(&server_id),
                    self.tables[server.provider].outage_cloud[server.site],
                    silent_in_outage,
                ) {
                    None => continue,
                    Some((dn_mul, up_mul)) => {
                        dn *= dn_mul;
                        up *= up_mul;
                    }
                }

                self.emit_pair(line_id, server.ip, port, time, dn, up, out, stats);
            }
        }
    }

    /// Pick the target server for one session.
    #[allow(clippy::too_many_arguments)]
    fn pick_server(
        &self,
        line_id: u64,
        device: &Device,
        day: i64,
        session: u64,
        v4: Option<ServerId>,
        v6: Option<ServerId>,
        rng: &mut SimRng,
    ) -> Option<ServerId> {
        let world = self.world;
        // Weekly secondary sync with a US aggregation endpoint.
        if device.secondary_us
            && session == 0
            && (day as u64 + line_id).is_multiple_of(7)
            && !self.us_pools[device.provider].is_empty()
        {
            let pool = &self.us_pools[device.provider];
            let pick = pool[((line_id ^ day as u64) % pool.len() as u64) as usize];
            if world.servers[pick].alive_on(day) {
                return Some(pick);
            }
        }
        // Baked-in undocumented gateways (Microsoft): only a rare firmware
        // line carries hardcoded addresses, so just a handful of hidden
        // gateways ever see ISP traffic — the paper's "missed 4 IPs".
        if !self.hidden_pools[device.provider].is_empty()
            && line_id.is_multiple_of(977)
            && rng.chance(0.3)
        {
            let pool = &self.hidden_pools[device.provider];
            let pick = pool[(line_id % pool.len() as u64) as usize];
            if world.servers[pick].alive_on(day) {
                return Some(pick);
            }
        }
        // IPv6 when available, ~25% of sessions. Each family's answer is
        // one gateway; the uniform draw over it still takes an RNG word,
        // and every later draw of the session depends on that.
        if let Some(v6) = v6 {
            if rng.chance(0.25) {
                return Some(*rng.choose(&[v6]));
            }
        }
        v4.map(|v4| *rng.choose(&[v4]))
    }

    /// Today's gateway for one address family. Long-lived MQTT
    /// connections: a device sticks to one gateway per resolution epoch
    /// rather than spraying the answer set — the `(line_id ^ epoch) %
    /// n`-th of the answer's `n` live servers. With none live, an A
    /// lookup falls back to the first three live documented gateways at
    /// the device's home site.
    fn gateway_today(
        &self,
        line_id: u64,
        device: &Device,
        domain: &DomainName,
        day: i64,
        answer: &mut EpochAnswer,
    ) -> Option<ServerId> {
        let world = self.world;
        // DNS caching / connection reuse: devices hold long-lived MQTT
        // sessions and re-resolve roughly weekly — this keeps a
        // household's weekly contact set small (the paper argues 10
        // backend IPs per line is plausible, not typical).
        let epoch = day - day.rem_euclid(7);
        if answer.epoch != Some(epoch) {
            let ctx = ResolutionContext {
                client_continent: Continent::Europe,
                time: Date::from_epoch_days(epoch).midnight() + SimDuration::hours(6),
                resolver_id: line_id % 97,
            };
            answer.servers.clear();
            answer.servers.extend(
                resolve(&world.zones, domain, answer.rrtype, &ctx)
                    .into_iter()
                    .filter_map(|ip| world.server_by_ip.get(&ip).copied()),
            );
            answer.epoch = Some(epoch);
        }
        let alive = |sid: &ServerId| world.servers[*sid].alive_on(day);
        let key = line_id as usize ^ epoch as usize;
        let live = answer.servers.iter().copied().filter(alive).count();
        if live > 0 {
            return answer.servers.iter().copied().filter(alive).nth(key % live);
        }
        if answer.rrtype != RrType::A {
            return None;
        }
        // Stale DNS / dead pool: fall back to any live documented
        // gateway at the device's home site.
        let fallback = || {
            world.site_pools[device.provider][device.home_site]
                .iter()
                .copied()
                .filter(alive)
                .take(3)
        };
        match fallback().count() {
            0 => None,
            live => fallback().nth(key % live),
        }
    }

    /// The FQDN a device connects to.
    fn device_domain(&self, device: &Device) -> Option<&DomainName> {
        let world = self.world;
        if device.tenant != u32::MAX {
            return world.tenants[device.provider]
                .get(device.tenant as usize)
                .map(|t| &t.domain);
        }
        self.service_domain
            .get(&(device.provider, device.home_site))
    }

    /// Scanner lines: probe flows to broad swaths of the address space.
    #[allow(clippy::too_many_arguments)]
    fn run_scanner(
        &self,
        line_id: u64,
        kind: ScannerKind,
        period: StudyPeriod,
        rng: &mut SimRng,
        out: &mut Vec<FlowRecord>,
        stats: &mut TrafficStats,
    ) {
        let world = self.world;
        for date in period.days() {
            let day = date.epoch_days();
            for server in &world.servers {
                if !server.ip.is_ipv4() || !server.alive_on(day) {
                    continue;
                }
                let probe = match kind {
                    ScannerKind::Full => true,
                    ScannerKind::Partial(f) => {
                        // A stable pseudo-random subset of the space.
                        let h = (line_id ^ (server.id as u64).wrapping_mul(0x9E37_79B9))
                            .wrapping_mul(0x2545_F491_4F6C_DD1D);
                        (h >> 40) as f64 / (1u64 << 24) as f64 % 1.0 < f
                    }
                };
                if !probe {
                    continue;
                }
                let time = date.midnight() + SimDuration::seconds(rng.gen_below(86_400));
                let port = *rng.choose(&server.ports);
                // A probe: one small upstream packet, sometimes answered.
                let up = FlowRecord {
                    time,
                    line: LineId(line_id),
                    remote: server.ip,
                    port,
                    direction: Direction::Upstream,
                    bytes: 60,
                    packets: 1,
                };
                stats.flows_generated += 1;
                if rng.chance(0.7) {
                    let dn = FlowRecord {
                        direction: Direction::Downstream,
                        bytes: 60,
                        ..up
                    };
                    stats.flows_generated += 1;
                    out.push(up);
                    out.push(dn);
                } else {
                    out.push(up);
                }
            }
        }
    }

    /// Emit the down/up record pair for one session.
    #[allow(clippy::too_many_arguments)]
    fn emit_pair(
        &self,
        line_id: u64,
        remote: IpAddr,
        port: iotmap_nettypes::PortProto,
        time: iotmap_nettypes::SimTime,
        dn_bytes: f64,
        up_bytes: f64,
        out: &mut Vec<FlowRecord>,
        stats: &mut TrafficStats,
    ) {
        let dn_bytes = dn_bytes.max(200.0) as u64;
        let up_bytes = up_bytes.max(200.0) as u64;
        let dn = FlowRecord {
            time,
            line: LineId(line_id),
            remote,
            port,
            direction: Direction::Downstream,
            bytes: dn_bytes,
            packets: dn_bytes / 1200 + 1,
        };
        let up = FlowRecord {
            direction: Direction::Upstream,
            bytes: up_bytes,
            packets: up_bytes / 1200 + 1,
            ..dn
        };
        stats.flows_generated += 2;
        out.push(dn);
        out.push(up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::small(42))
    }

    /// The per-day reference for the epoch memo: resolve the epoch's
    /// answer, map it to server ids and keep today's live ones; with none
    /// live, an A lookup falls back to the home site's first three live
    /// documented gateways.
    fn servers_for_device(
        sim: &TrafficSimulator,
        line: &SubscriberLine,
        device: &Device,
        date: Date,
        rrtype: RrType,
    ) -> Vec<ServerId> {
        let world = sim.world;
        let Some(domain) = sim.device_domain(device) else {
            return Vec::new();
        };
        let day = date.epoch_days();
        let cached_day = day - day.rem_euclid(7);
        let ctx = ResolutionContext {
            client_continent: Continent::Europe,
            time: Date::from_epoch_days(cached_day).midnight() + SimDuration::hours(6),
            resolver_id: line.id % 97,
        };
        let mut out: Vec<ServerId> = resolve(&world.zones, domain, rrtype, &ctx)
            .into_iter()
            .filter_map(|ip| world.server_by_ip.get(&ip).copied())
            .filter(|&sid| world.servers[sid].alive_on(day))
            .collect();
        if out.is_empty() && rrtype == RrType::A {
            out = world.site_pools[device.provider][device.home_site]
                .iter()
                .copied()
                .filter(|&sid| world.servers[sid].alive_on(day))
                .take(3)
                .collect();
        }
        out
    }

    /// The memoised gateway equals the per-day reference's
    /// `(line.id ^ epoch) % len`-th server on every device-day of both
    /// study weeks, for both record types. Both weeks cross an epoch
    /// boundary, and some answered servers die mid-epoch: the test counts
    /// both kinds of device-day and requires some of each.
    #[test]
    fn epoch_memo_picks_the_per_day_reference_gateway() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let (mut refreshed, mut died) = (0u64, 0u64);
        for period in [StudyPeriod::main_week(), StudyPeriod::outage_week()] {
            for line in &w.isp.lines {
                for device in &line.devices {
                    let Some(domain) = sim.device_domain(device) else {
                        continue;
                    };
                    for rrtype in [RrType::A, RrType::Aaaa] {
                        let mut answer = EpochAnswer::new(rrtype);
                        for date in period.days() {
                            let day = date.epoch_days();
                            let epoch = day - day.rem_euclid(7);
                            let previous = answer.epoch;
                            let got = sim.gateway_today(line.id, device, domain, day, &mut answer);
                            let reference = servers_for_device(&sim, line, device, date, rrtype);
                            let want = (!reference.is_empty()).then(|| {
                                reference[(line.id as usize ^ epoch as usize) % reference.len()]
                            });
                            assert_eq!(got, want, "line {} {rrtype:?} {date:?}", line.id);
                            refreshed += previous.is_some_and(|p| p != epoch) as u64;
                            died += answer.servers.iter().any(|&sid| {
                                let server = &w.servers[sid];
                                server.alive_on(epoch) && !server.alive_on(day)
                            }) as u64;
                        }
                    }
                }
            }
        }
        assert!(refreshed > 0, "no device-day crossed an epoch boundary");
        assert!(died > 0, "no answered server died mid-epoch");
    }

    #[test]
    fn week_of_traffic_has_sane_shape() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let mut store = StoringSink::new();
        let stats = sim.run(w.config.study_period, &mut store);
        assert!(stats.flows_generated > 10_000, "{stats:?}");
        assert_eq!(stats.flows_exported as usize, store.records.len());

        // Distinct active lines ≈ 15% of the population (2.32M of 15M in
        // the paper).
        let mut lines: HashSet<LineId> = HashSet::new();
        for r in &store.records {
            lines.insert(r.line);
        }
        let frac = lines.len() as f64 / w.isp.lines.len() as f64;
        assert!((0.10..0.25).contains(&frac), "active line fraction {frac}");

        // All remotes are known servers.
        for r in store.records.iter().take(2000) {
            assert!(w.server_by_ip.contains_key(&r.remote));
        }
    }

    #[test]
    fn traffic_is_deterministic() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let run = || {
            let mut store = StoringSink::new();
            sim.run(w.config.study_period, &mut store);
            store.records.len()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn downstream_and_upstream_both_present() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let mut store = StoringSink::new();
        sim.run(w.config.study_period, &mut store);
        let dn: u64 = store
            .records
            .iter()
            .filter(|r| r.direction == Direction::Downstream)
            .map(|r| r.bytes)
            .sum();
        let up: u64 = store
            .records
            .iter()
            .filter(|r| r.direction == Direction::Upstream)
            .map(|r| r.bytes)
            .sum();
        assert!(dn > 0 && up > 0);
        let ratio = dn as f64 / up as f64;
        assert!((0.3..5.0).contains(&ratio), "global dn/up {ratio}");
    }

    #[test]
    fn outage_reduces_us_east_downstream() {
        let w = World::generate(&WorldConfig {
            study_period: iotmap_nettypes::StudyPeriod::outage_week(),
            ..WorldConfig::small(42)
        });
        let sim = TrafficSimulator::new(&w);
        let mut store = StoringSink::new();
        sim.run(w.config.study_period, &mut store);
        let affected = w.outage_affected_servers();
        let affected_ips: HashSet<IpAddr> = affected.iter().map(|&sid| w.servers[sid].ip).collect();
        let window = w.events.outage.window;
        // Downstream bytes per hour to affected servers, inside vs outside
        // the outage window (same hours of other days).
        let mut in_window = 0.0f64;
        let mut in_hours = 0u32;
        let mut out_window = 0.0f64;
        let mut out_hours = 0u32;
        let mut by_hour: HashMap<u64, u64> = HashMap::new();
        for r in &store.records {
            if r.direction == Direction::Downstream && affected_ips.contains(&r.remote) {
                *by_hour.entry(r.time.epoch_hours()).or_default() += r.bytes;
            }
        }
        for h in w.config.study_period.hours() {
            let hour_total: u64 = by_hour.get(&h.epoch_hours()).copied().unwrap_or(0);
            let hod = h.hour_of_day();
            // Compare like-for-like hours of day (15:30–22:30 UTC).
            if !(15..=22).contains(&hod) {
                continue;
            }
            if window.contains(h) {
                in_window += hour_total as f64;
                in_hours += 1;
            } else {
                out_window += hour_total as f64;
                out_hours += 1;
            }
        }
        assert!(in_hours > 0 && out_hours > 0);
        let in_rate = in_window / in_hours as f64;
        let out_rate = out_window / out_hours as f64;
        assert!(
            in_rate < out_rate * 0.6,
            "outage should cut downstream: {in_rate} vs {out_rate}"
        );
    }

    #[test]
    fn scanners_touch_far_more_servers_than_households() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let mut store = StoringSink::new();
        sim.run(w.config.study_period, &mut store);
        let mut per_line: HashMap<LineId, HashSet<IpAddr>> = HashMap::new();
        for r in &store.records {
            per_line.entry(r.line).or_default().insert(r.remote);
        }
        let max_contact = per_line.values().map(|s| s.len()).max().unwrap_or(0);
        let median = {
            let mut v: Vec<usize> = per_line.values().map(|s| s.len()).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(median <= 12, "median household contact set {median}");
        if w.isp.scanner_count() > 0 {
            assert!(
                max_contact > 20 * median.max(1),
                "max {max_contact} median {median}"
            );
        }
    }

    #[test]
    fn v6_capable_devices_generate_v6_flows() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let mut store = StoringSink::new();
        sim.run(w.config.study_period, &mut store);
        let v6_flows = store.records.iter().filter(|r| r.remote.is_ipv6()).count();
        assert!(v6_flows > 0, "dual-stack devices must produce AAAA traffic");
        // …but v6 remains a small minority (§5.2: 202k v6 vs 2.32M v4
        // daily lines).
        let frac = v6_flows as f64 / store.records.len() as f64;
        assert!(frac < 0.2, "v6 flow share {frac}");
    }

    #[test]
    fn secondary_us_devices_reach_us_servers() {
        let w = world();
        // Find a line hosting an EU-homed device with the weekly-US flag.
        let has_secondary = w
            .isp
            .lines
            .iter()
            .any(|l| l.devices.iter().any(|d| d.secondary_us));
        assert!(
            has_secondary,
            "population should contain secondary-US devices"
        );
        let sim = TrafficSimulator::new(&w);
        let mut store = StoringSink::new();
        sim.run(w.config.study_period, &mut store);
        // At least some flows must land on North-American servers.
        let us_flows = store
            .records
            .iter()
            .filter(|r| {
                w.server_by_ip.get(&r.remote).is_some_and(|&sid| {
                    let s = &w.servers[sid];
                    w.geo.location(w.site_city[s.provider][s.site]).continent
                        == iotmap_nettypes::Continent::NorthAmerica
                })
            })
            .count();
        assert!(us_flows > 0);
    }

    #[test]
    fn fold_run_is_thread_invariant() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let serial = iotmap_par::with_threads(1, || {
            sim.run_fold(w.config.study_period, &iotmap_netflow::CountingFold)
        });
        let sharded = iotmap_par::with_threads(4, || {
            sim.run_fold(w.config.study_period, &iotmap_netflow::CountingFold)
        });
        assert_eq!(serial.0, sharded.0);
        assert_eq!(serial.1.flows_exported, sharded.1.flows_exported);
    }

    #[test]
    fn replicated_fold_scales_the_population() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let (one, one_stats) =
            sim.run_replicated_fold(w.config.study_period, 1, &iotmap_netflow::CountingFold);
        let (three, three_stats) =
            sim.run_replicated_fold(w.config.study_period, 3, &iotmap_netflow::CountingFold);
        // Replicas 1..3 carry no scanner lines, so growth is roughly — not
        // exactly — linear in the household population.
        assert!(three.records > one.records * 2, "{three:?} vs {one:?}");
        assert!(three_stats.device_days > one_stats.device_days * 2);
        // Replica 0 is the unreplicated population: byte-identical stats.
        assert_eq!(one_stats.flows_exported, {
            let (_, s) = sim.run_fold(w.config.study_period, &iotmap_netflow::CountingFold);
            s.flows_exported
        });
    }

    #[test]
    fn heavy_bosch_devices_move_big_volumes_on_5671() {
        let w = world();
        let sim = TrafficSimulator::new(&w);
        let mut store = StoringSink::new();
        sim.run(w.config.study_period, &mut store);
        let amqp_bytes: u64 = store
            .records
            .iter()
            .filter(|r| r.port.port == 5671 && r.direction == Direction::Downstream)
            .map(|r| r.bytes)
            .sum();
        let total: u64 = store
            .records
            .iter()
            .filter(|r| r.direction == Direction::Downstream)
            .map(|r| r.bytes)
            .sum();
        assert!(amqp_bytes > 0);
        // The heavy AMQP class is a visible share of total downstream.
        assert!(
            amqp_bytes as f64 > total as f64 * 0.02,
            "amqp {amqp_bytes} of {total}"
        );
    }
}
