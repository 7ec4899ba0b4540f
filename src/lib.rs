//! # iotmap — the IoT backend ecosystem, reproduced
//!
//! A full reproduction of *"Deep Dive into the IoT Backend Ecosystem"*
//! (Saidi, Matic, Gasser, Smaragdakis, Feldmann — ACM IMC 2022) as a Rust
//! workspace: the paper's multi-source IoT-backend discovery methodology,
//! every substrate it depends on (TLS scanning, passive/active DNS, NetFlow,
//! BGP, geolocation), and a deterministic synthetic Internet to run it
//! against.
//!
//! This facade crate re-exports the workspace members under stable module
//! names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`nettypes`] | `iotmap-nettypes` | addressing, prefixes, geo, time, RNG |
//! | [`dregex`] | `iotmap-dregex` | the domain-pattern regex engine |
//! | [`dns`] | `iotmap-dns` | zones, resolution, passive & active DNS |
//! | [`tls`] | `iotmap-tls` | certificates and handshake behaviour |
//! | [`scan`] | `iotmap-scan` | Censys-like scanning, hitlists, looking glasses |
//! | [`netflow`] | `iotmap-netflow` | flow records, sampling, collectors |
//! | [`stats`] | `iotmap-stats` | ECDFs, histograms, time series |
//! | [`world`] | `iotmap-world` | the synthetic Internet ground truth |
//! | [`core`] | `iotmap-core` | the paper's discovery & characterization pipeline |
//! | [`traffic`] | `iotmap-traffic` | the ISP-side traffic analyses |
//! | [`par`] | `iotmap-par` | deterministic std-only parallel execution |
//! | [`supervisor`] | `iotmap-super` | supervised stage runtime: retries, deadlines, checkpoint/resume |
//!
//! and adds the front door itself: [`Pipeline`], which wires world-build →
//! discovery → footprint inference → shared-IP classification behind one
//! builder, and [`prelude`] for the types a typical caller needs.
//!
//! ## Quickstart
//!
//! ```no_run
//! use iotmap::prelude::*;
//!
//! // Build a deterministic synthetic Internet and run the paper's
//! // methodology over it — on 4 worker threads, byte-identical to a
//! // serial run.
//! let artifacts = Pipeline::new(WorldConfig::small(42))
//!     .threads(4)
//!     .run()
//!     .expect("pipeline");
//! for (provider, discovery) in artifacts.discovery.per_provider() {
//!     println!("{provider}: {} backend IPs", discovery.ips.len());
//! }
//! // Traffic passes ride on the prepared artifacts (§5).
//! let period = artifacts.world.config.study_period;
//! let (report, excluded) = artifacts.full_traffic_analysis(period);
//! println!("{} scanner lines excluded", excluded.len());
//! # let _ = report;
//! ```
//!
//! See `examples/` for complete, runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment-by-experiment reproduction notes.

pub use iotmap_core as core;
pub use iotmap_delta as delta;
pub use iotmap_dns as dns;
pub use iotmap_dregex as dregex;
pub use iotmap_faults as faults;
pub use iotmap_netflow as netflow;
pub use iotmap_nettypes as nettypes;
pub use iotmap_par as par;
pub use iotmap_scan as scan;
pub use iotmap_scenario as scenario;
pub use iotmap_stats as stats;
pub use iotmap_tls as tls;
pub use iotmap_traffic as traffic;
pub use iotmap_world as world;
// `super` is a keyword, so the supervised runtime re-exports as
// `supervisor`.
pub use iotmap_super as supervisor;

mod cache;
pub mod recover;

use crate::cache::WorldCache;
use iotmap_core::{
    DataSources, DiscoveryPipeline, DiscoveryResult, Footprint, FootprintInference,
    IncrementalDiscovery, PatternRegistry, SharedIpClassifier,
};
use iotmap_delta::WorldDelta;
use iotmap_dns::PassiveDnsDb;
use iotmap_faults::FaultPlan;
use iotmap_netflow::LineId;
use iotmap_nettypes::{Error, StudyPeriod};
use iotmap_scenario::Scenario;
use iotmap_super::{CheckpointStore, StageArtifact, StagePolicy, Supervisor};
use iotmap_traffic::{
    AnalysisFold, AnalysisReport, ContactFold, Contacts, IpIndex, ScannerAnalysis,
};
use iotmap_world::{CollectedScans, TrafficSimulator, World, WorldConfig};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use std::path::{Path, PathBuf};

/// The scanner-exclusion threshold the paper settles on (§5.2).
pub const SCANNER_THRESHOLD: usize = 100;

/// The pipeline front door: configure once, run every prepared stage.
///
/// `Pipeline` wires the §3 + §4 part of the study — world generation,
/// the measurement instruments, multi-source discovery, footprint
/// inference, and shared-IP classification — behind one builder:
///
/// ```no_run
/// # use iotmap::prelude::*;
/// let artifacts = Pipeline::new(WorldConfig::small(42)).threads(4).run()?;
/// # Ok::<(), Error>(())
/// ```
///
/// The thread count feeds `iotmap-par`; any value produces byte-identical
/// artifacts (the engine's determinism contract), so `threads(n)` is purely
/// a wall-clock knob. `0` means "all available cores". The default comes
/// from the `IOTMAP_THREADS` environment variable when set, otherwise from
/// the calling thread's current `iotmap_par` budget (serial unless raised).
pub struct Pipeline {
    config: WorldConfig,
    threads: usize,
    faults: FaultPlan,
    policy: StagePolicy,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    cache_dir: Option<PathBuf>,
    with_scenario: Option<Scenario>,
    /// `IOTMAP_THREADS` was set but unparsable — surfaced in the run
    /// report rather than silently falling back.
    threads_env_unparsable: bool,
}

impl Pipeline {
    /// A pipeline over one world configuration.
    pub fn new(config: WorldConfig) -> Pipeline {
        let mut threads_env_unparsable = false;
        let threads = match std::env::var("IOTMAP_THREADS") {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    // Fall back exactly as if unset, but leave a trace:
                    // the run report gets a note, and operators see it
                    // immediately instead of wondering why one thread
                    // ran.
                    eprintln!(
                        "# IOTMAP_THREADS={raw:?} is not a thread count; \
                         using the default ({})",
                        iotmap_par::threads()
                    );
                    threads_env_unparsable = true;
                    iotmap_par::threads()
                }
            },
            Err(_) => iotmap_par::threads(),
        };
        Pipeline {
            config,
            threads,
            faults: FaultPlan::none(),
            policy: StagePolicy::default(),
            checkpoint_dir: None,
            resume: false,
            cache_dir: std::env::var_os("IOTMAP_CACHE").map(PathBuf::from),
            with_scenario: None,
            threads_env_unparsable,
        }
    }

    /// Set the worker-thread budget (`0` = all available cores).
    pub fn threads(mut self, n: usize) -> Pipeline {
        self.threads = n;
        self
    }

    /// Write a checkpoint into `dir` after each completed stage. The
    /// directory is created if needed; files are bound to this run's
    /// fingerprint (config + data faults + seed), so a different run
    /// refuses them.
    pub fn checkpoints(mut self, dir: impl Into<PathBuf>) -> Pipeline {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Resume from (and keep checkpointing into) `dir`: stages whose
    /// checkpoints verify against this run's fingerprint are restored
    /// or replay-verified; corrupted or mismatched checkpoints are
    /// reported, discarded, and recomputed.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Pipeline {
        self.checkpoint_dir = Some(dir.into());
        self.resume = true;
        self
    }

    /// Memoize prepared artifacts in `dir`: the world's passive-DNS
    /// table, the synthesized scan datasets, and the engine's derived
    /// artifacts are written on first computation and reloaded —
    /// fingerprint-verified — on every later run with the same config and
    /// data-fault plan. Corrupted or stale entries are detected, counted
    /// (`cache.invalidated`), and silently regenerated. Defaults to the
    /// `IOTMAP_CACHE` environment variable when set; calling this wins
    /// over the env var.
    ///
    /// **Precedence** when several run-reuse mechanisms are configured
    /// together (this is the one place it's spelled out):
    ///
    /// 1. [`resume`](Pipeline::resume) checkpoints are consulted first —
    ///    the supervisor restores a verified checkpoint before the stage
    ///    body (and with it the cache lookup) ever runs;
    /// 2. the cache fills any stage the checkpoints didn't;
    /// 3. recomputed results are written back to *both* the cache and —
    ///    when [`checkpoints`](Pipeline::checkpoints) is set — the
    ///    checkpoint store.
    ///
    /// Checkpoints bind to one run's fingerprint in one directory; the
    /// cache keys every entry by fingerprint in its file name, so many
    /// configurations can share one cache directory.
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Pipeline {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Override the supervisor's retry/deadline policy.
    pub fn stage_policy(mut self, policy: StagePolicy) -> Pipeline {
        self.policy = policy;
        self
    }

    /// Run under a declarative scenario: the compiled event timeline
    /// installs into the generated world (inside the world stage, before
    /// any scan is synthesized), so migrations, fronting flips, cert
    /// storms, planted blocklist entries, and re-declared outages shape
    /// everything the instruments observe — and every longitudinal
    /// [`advance`](PreparedWorld::advance), since day deltas read the
    /// same world views. The scenario's fingerprint is folded into the
    /// run identity, so caches and checkpoints never alias an
    /// event-free run.
    pub fn scenario(mut self, scenario: Scenario) -> Pipeline {
        self.with_scenario = Some(scenario);
        self
    }

    /// Run under a fault plan: every data source the methodology
    /// consumes — Censys sweeps, the ZGrab campaign, passive DNS, the
    /// active-DNS campaigns, and NetFlow export — suffers the plan's
    /// seeded faults, and the run degrades gracefully instead of
    /// failing (each source contributes what it has; the run report
    /// gains a `degraded_sources` section). [`FaultPlan::none`] — the
    /// default — is byte-identical to not calling this at all.
    pub fn faults(mut self, plan: FaultPlan) -> Pipeline {
        self.faults = plan;
        self
    }

    /// Run the full study: [`prepare`](Pipeline::prepare) the world and
    /// scan datasets, then [`execute`](PreparedWorld::execute) the engine
    /// over them — world-build → scan collection → discovery → footprints
    /// → shared-IP classification, producing the [`RunArtifacts`] every
    /// experiment and traffic pass builds on.
    ///
    /// Every stage runs under a [`Supervisor`]: panics are contained
    /// and retried under the stage policy, the fault plan's `crash`
    /// family is armed around each attempt, and — when
    /// [`checkpoints`](Pipeline::checkpoints) /
    /// [`resume`](Pipeline::resume) are configured — completed stages
    /// persist to disk and verified checkpoints short-circuit a rerun.
    /// Without crashes or checkpoints the supervised run is
    /// byte-identical to the unsupervised one.
    pub fn run(self) -> Result<RunArtifacts, Error> {
        self.prepare()?.execute_owned()
    }

    /// Phase one of [`run`](Pipeline::run): generate the world and
    /// synthesize the scan datasets, returning a [`PreparedWorld`] that
    /// can be [executed](PreparedWorld::execute) — repeatedly — into full
    /// [`RunArtifacts`].
    ///
    /// Preparation is the expensive half of a run and is a pure function
    /// of the config and data-fault plan, which is what makes the
    /// [`cache`](Pipeline::cache) effective: a warm prepare is mostly
    /// deserialization.
    pub fn prepare(self) -> Result<PreparedWorld, Error> {
        let mut supervisor = Supervisor::new(self.faults.seed)
            .policy(self.policy.clone())
            .crash(self.faults.crash.clone());
        let scenario_fp = self.with_scenario.as_ref().map(Scenario::fingerprint);
        if let Some(dir) = &self.checkpoint_dir {
            let fingerprint =
                recover::run_fingerprint_with(&self.config, &self.faults, scenario_fp);
            let store = CheckpointStore::open(dir, fingerprint).map_err(|e| {
                Error::stage("checkpoint", format!("cannot open {}: {e}", dir.display()))
            })?;
            supervisor = supervisor.store(store, self.resume);
        }
        let cache = match &self.cache_dir {
            Some(dir) => Some(WorldCache::open(
                dir,
                &self.config,
                &self.faults,
                scenario_fp,
            )?),
            None => None,
        };
        let (world, scans) = iotmap_par::with_threads(self.threads, || {
            Pipeline::prepare_stages(
                &self.config,
                &self.faults,
                self.with_scenario.as_ref(),
                &mut supervisor,
                cache.as_ref(),
                self.threads_env_unparsable,
            )
        })?;
        Ok(PreparedWorld {
            world,
            scans,
            faults: self.faults,
            with_scenario: self.with_scenario,
            policy: self.policy,
            threads: self.threads,
            checkpoint_dir: self.checkpoint_dir,
            // A witness mismatch during prepare invalidates trust in the
            // whole checkpoint directory; the execute phase then
            // recomputes instead of restoring.
            resume: supervisor.resume_trusted(),
            cache_dir: self.cache_dir,
            rolled: None,
        })
    }

    /// Borrow fresh data sources over a prepared world + scan set —
    /// the one place the source wiring (including the latency prober)
    /// is spelled out.
    fn data_sources<'a>(world: &'a World, scans: &'a CollectedScans) -> DataSources<'a> {
        DataSources {
            censys: &scans.censys,
            zgrab_v6: &scans.zgrab_v6,
            passive_dns: &world.passive_dns,
            zones: &world.zones,
            routeviews: &world.bgp,
            latency: Some(world),
        }
    }

    /// The generative stages: world build and scan synthesis. Cache
    /// lookups happen *inside* the stage bodies, so the supervisor's
    /// resume checkpoints keep precedence (a verified checkpoint restores
    /// before the body runs) and a retried stage re-reads the same disk
    /// state.
    fn prepare_stages(
        config: &WorldConfig,
        faults: &FaultPlan,
        scenario: Option<&Scenario>,
        sup: &mut Supervisor,
        cache: Option<&WorldCache>,
        threads_env_unparsable: bool,
    ) -> Result<(World, CollectedScans), Error> {
        let _span = iotmap_obs::span!("experiment.prepare");
        if threads_env_unparsable {
            iotmap_obs::count!("notes.config.iotmap_threads_unparsable");
        }
        let period = config.study_period;

        // Generative stages: pure functions of the fingerprinted config,
        // checkpointed as replay witnesses (recomputed and verified on
        // resume rather than serialized). The passive-DNS table — the
        // single most expensive world phase — is the cacheable unit:
        // every other phase forks the root RNG by name, so substituting a
        // cached table leaves the rest of the build byte-identical.
        let world = sup.run_stage(
            "world",
            StageArtifact::Replay {
                witness: recover::world_witness,
            },
            || {
                let mut world = match cache.and_then(WorldCache::load_passive_dns) {
                    Some(db) => World::generate_with_pdns(config, Some(db)),
                    None => {
                        let world = World::generate(config);
                        if let Some(cache) = cache {
                            cache.save_passive_dns(&world.passive_dns);
                        }
                        world
                    }
                };
                // The timeline installs after generation (so the cached
                // pristine passive-DNS table stays scenario-independent)
                // but before any scan synthesis, so every instrument
                // observes the post-event world. Installation never
                // fails: unknown names degrade to a skip counter.
                if let Some(sc) = scenario {
                    world.install_timeline(&sc.timeline, &sc.name);
                }
                world
            },
        )?;
        let scans = {
            let world = &world;
            sup.run_stage(
                "scans",
                StageArtifact::Replay {
                    witness: recover::scans_witness,
                },
                move || match cache.and_then(WorldCache::load_scans) {
                    Some(scans) => scans,
                    None => {
                        let scans = world.collect_scan_data_with(period, faults);
                        if let Some(cache) = cache {
                            cache.save_scans(&scans);
                        }
                        scans
                    }
                },
            )?
        };
        Ok((world, scans))
    }

    /// The engine: passive-DNS degradation, discovery, footprints,
    /// shared-IP classification, and the IP index, over an
    /// already-prepared world.
    fn engine_stages(
        mut world: World,
        scans: CollectedScans,
        registry: PatternRegistry,
        faults: &FaultPlan,
        sup: &mut Supervisor,
        cache: Option<&WorldCache>,
    ) -> Result<RunArtifacts, Error> {
        let _span = iotmap_obs::span!("experiment.execute");
        let period = world.config.study_period;
        // The passive-DNS sensors degrade before anyone queries them:
        // every consumer (discovery, shared-IP classification, CNAME
        // chasing, later analyses) sees one consistent, already-faulted
        // database. An inactive plan skips the rebuild entirely. This
        // runs outside any stage: rebuilding from an already-degraded
        // database would not be retry-pure.
        if faults.passive_dns.is_active() {
            let _dspan = iotmap_obs::span!("experiment.pdns_degrade");
            world.passive_dns =
                world
                    .passive_dns
                    .degraded(faults.seed, &faults.passive_dns, &period);
        }

        // Derived stages: fully serialized, skipped on a verified
        // resume.
        let pipeline =
            DiscoveryPipeline::new(registry).faults(faults.seed, faults.active_dns.clone());
        let discovery = {
            let sources = Pipeline::data_sources(&world, &scans);
            sup.run_stage(
                "discovery",
                StageArtifact::Bytes {
                    encode: recover::put_discovery,
                    decode: recover::get_discovery,
                },
                || match cache.and_then(WorldCache::load_discovery) {
                    Some(discovery) => discovery,
                    None => {
                        let discovery = pipeline.run(&sources, period);
                        if let Some(cache) = cache {
                            cache.save_discovery(&discovery);
                        }
                        discovery
                    }
                },
            )?
        };

        // Footprints. The span wraps this stage alone, so the shared-IP
        // stage below reports its own time beside it.
        let fp_span = iotmap_obs::span!("experiment.footprints");
        let footprints = {
            let sources = Pipeline::data_sources(&world, &scans);
            let discovery = &discovery;
            sup.run_stage(
                "footprints",
                StageArtifact::Bytes {
                    encode: recover::put_footprints,
                    decode: recover::get_footprints,
                },
                move || match cache.and_then(WorldCache::load_footprints) {
                    Some(footprints) => footprints,
                    None => {
                        let footprints = Pipeline::derive_footprints(discovery, &sources);
                        if let Some(cache) = cache {
                            cache.save_footprints(&footprints);
                        }
                        footprints
                    }
                },
            )?
        };
        fp_span.exit();
        let shared_ips = {
            let registry = pipeline.registry();
            let discovery = &discovery;
            let world = &world;
            sup.run_stage(
                "shared-ip",
                StageArtifact::Bytes {
                    encode: recover::put_shared_ips,
                    decode: recover::get_shared_ips,
                },
                move || match cache.and_then(WorldCache::load_shared_ips) {
                    Some(shared_ips) => shared_ips,
                    None => {
                        let shared_ips = Pipeline::derive_shared_ips(
                            registry,
                            discovery,
                            &world.passive_dns,
                            period,
                        );
                        if let Some(cache) = cache {
                            cache.save_shared_ips(&shared_ips);
                        }
                        shared_ips
                    }
                },
            )?
        };

        // The index borrows nothing and rebuilds in microseconds: never
        // checkpointed.
        let index = sup.run_stage("index", StageArtifact::Volatile, || {
            IpIndex::build(&discovery, &footprints, &shared_ips)
        })?;
        Ok(RunArtifacts {
            world,
            scans,
            discovery,
            footprints,
            shared_ips,
            index,
            faults: faults.clone(),
        })
    }

    /// The footprint stage's body — shared between the supervised engine
    /// run and the incremental roll-forward, so both derive the exact
    /// same artifact from a given discovery result.
    fn derive_footprints(
        discovery: &DiscoveryResult,
        sources: &DataSources<'_>,
    ) -> HashMap<String, Footprint> {
        discovery
            .per_provider()
            .map(|(name, disc)| (name.to_string(), FootprintInference::infer(disc, sources)))
            .collect()
    }

    /// The shared-IP stage's body — see [`Pipeline::derive_footprints`].
    fn derive_shared_ips(
        registry: &PatternRegistry,
        discovery: &DiscoveryResult,
        passive_dns: &PassiveDnsDb,
        period: StudyPeriod,
    ) -> HashSet<IpAddr> {
        let classifier = SharedIpClassifier::new(registry);
        let mut shared_ips = HashSet::new();
        for (_, disc) in discovery.per_provider() {
            let (_, shared) = classifier.split_provider(disc, passive_dns, period);
            shared_ips.extend(shared.keys().copied());
        }
        shared_ips
    }
}

/// A prepared run: the generated world and synthesized scan datasets,
/// plus everything needed to execute the discovery engine over them.
///
/// Produced by [`Pipeline::prepare`]; consumed — repeatedly, if you like —
/// by [`execute`](PreparedWorld::execute). Preparation is the expensive
/// half of a run, so holding a `PreparedWorld` lets callers amortize it
/// across engine runs with different fault plans or thread budgets:
///
/// ```no_run
/// # use iotmap::prelude::*;
/// # use iotmap::faults::FaultPlan;
/// let prepared = Pipeline::new(WorldConfig::small(42)).prepare()?;
/// let clean = prepared.execute()?;
/// let faulted = prepared.execute_with(&FaultPlan::heavy())?;
/// # let _ = (clean, faulted);
/// # Ok::<(), Error>(())
/// ```
///
/// The world here is **pristine**: passive-DNS degradation (a fault-plan
/// effect) is applied by the engine, per execution, on a copy.
///
/// A prepared world is also the anchor of a **longitudinal run**:
/// [`next_delta`](PreparedWorld::next_delta) generates the next day's
/// [`WorldDelta`], and [`advance`](PreparedWorld::advance) rolls the
/// tracked artifacts forward at per-day cost. The pristine corpus is
/// extended in lockstep, so a plain [`execute`](PreparedWorld::execute)
/// at any point is the from-scratch oracle the rolled artifacts must be
/// byte-identical to.
pub struct PreparedWorld {
    /// The generated world, passive DNS not yet degraded.
    pub world: World,
    /// The synthesized scan datasets.
    pub scans: CollectedScans,
    faults: FaultPlan,
    with_scenario: Option<Scenario>,
    policy: StagePolicy,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    cache_dir: Option<PathBuf>,
    /// The incrementally rolled-forward run, once
    /// [`advance`](PreparedWorld::advance) (or
    /// [`rolled`](PreparedWorld::rolled)) has bootstrapped it.
    rolled: Option<RolledRun>,
}

/// The artifacts an incremental run rolls forward, plus the match state
/// (`IncrementalDiscovery`) that makes the next day O(churn).
struct RolledRun {
    artifacts: RunArtifacts,
    tracker: IncrementalDiscovery,
    /// Discovered IPs currently classified dedicated (the complement,
    /// within the discovered set, of `artifacts.shared_ips`). Window
    /// growth only ever adds inverse-lookup rows, so verdicts are
    /// monotone — dedicated can flip to shared, never back — and a day
    /// only needs to re-classify the IPs it touched.
    dedicated: HashSet<IpAddr>,
}

impl PreparedWorld {
    /// Change the worker-thread budget for subsequent executions
    /// (`0` = all available cores).
    pub fn threads(mut self, n: usize) -> PreparedWorld {
        self.threads = n;
        self
    }

    /// The scenario the run was prepared under, if any — its timeline is
    /// already installed in [`world`](PreparedWorld::world).
    pub fn scenario(&self) -> Option<&Scenario> {
        self.with_scenario.as_ref()
    }

    /// Run the engine — passive-DNS degradation, discovery, footprints,
    /// shared-IP classification, index — under the fault plan the world
    /// was prepared with. The prepared world is untouched; each call
    /// works on its own copy, so `execute` can run any number of times.
    pub fn execute(&self) -> Result<RunArtifacts, Error> {
        self.engine(self.world.clone(), self.scans.clone(), &self.faults, true)
    }

    /// [`execute`](PreparedWorld::execute) under a different fault plan —
    /// engine-side families only. The scan datasets were synthesized
    /// under the *prepared* plan, so its Censys/ZGrab faults stay baked
    /// in; the override governs passive-DNS degradation, the active-DNS
    /// campaigns, NetFlow export, and crash injection. Checkpoints bind
    /// to the prepared plan's fingerprint and are not consulted here.
    pub fn execute_with(&self, faults: &FaultPlan) -> Result<RunArtifacts, Error> {
        self.engine(self.world.clone(), self.scans.clone(), faults, false)
    }

    /// The consuming path [`Pipeline::run`] takes: no artifact clones.
    fn execute_owned(self) -> Result<RunArtifacts, Error> {
        let PreparedWorld {
            world,
            scans,
            faults,
            with_scenario,
            policy,
            threads,
            checkpoint_dir,
            resume,
            cache_dir,
            rolled: _,
        } = self;
        Self::engine_inner(
            world,
            scans,
            &faults,
            with_scenario.as_ref().map(Scenario::fingerprint),
            &policy,
            threads,
            checkpoint_dir.as_deref(),
            resume,
            cache_dir.as_deref(),
        )
    }

    fn engine(
        &self,
        world: World,
        scans: CollectedScans,
        faults: &FaultPlan,
        use_checkpoints: bool,
    ) -> Result<RunArtifacts, Error> {
        Self::engine_inner(
            world,
            scans,
            faults,
            self.with_scenario.as_ref().map(Scenario::fingerprint),
            &self.policy,
            self.threads,
            if use_checkpoints {
                self.checkpoint_dir.as_deref()
            } else {
                None
            },
            self.resume,
            self.cache_dir.as_deref(),
        )
    }

    /// Generate the [`WorldDelta`] for the day after the rolled run's
    /// current end (or after the prepared period, before any advance):
    /// the same seeded sweep a from-scratch collection over the extended
    /// period would perform, under the prepared fault plan.
    pub fn next_delta(&self) -> WorldDelta {
        let period = self
            .rolled
            .as_ref()
            .map(|r| r.tracker.period())
            .unwrap_or(self.world.config.study_period);
        iotmap_par::with_threads(self.threads, || {
            WorldDelta::next_day(&self.world, period, &self.faults)
        })
    }

    /// The incrementally rolled-forward artifacts, bootstrapping them
    /// from a fresh [`execute`](PreparedWorld::execute) on first use.
    pub fn rolled(&mut self) -> Result<&RunArtifacts, Error> {
        self.ensure_rolled()?;
        Ok(&self.rolled.as_ref().expect("just bootstrapped").artifacts)
    }

    fn ensure_rolled(&mut self) -> Result<(), Error> {
        if self.rolled.is_some() {
            return Ok(());
        }
        let artifacts = self.execute()?;
        let registry = PatternRegistry::try_paper_defaults()?;
        let pipeline = DiscoveryPipeline::new(registry)
            .faults(self.faults.seed, self.faults.active_dns.clone());
        // The tracker captures the match state of the run it will extend,
        // so it reads the *degraded* database inside the artifacts, not
        // the pristine prepared one.
        let tracker = IncrementalDiscovery::bootstrap(
            &pipeline,
            &artifacts.world.passive_dns,
            artifacts.world.config.study_period,
        );
        let mut dedicated = HashSet::new();
        for (_, disc) in artifacts.discovery.per_provider() {
            for &ip in disc.ips.keys() {
                if !artifacts.shared_ips.contains(&ip) {
                    dedicated.insert(ip);
                }
            }
        }
        self.rolled = Some(RolledRun {
            artifacts,
            tracker,
            dedicated,
        });
        Ok(())
    }

    /// Ingest one [`WorldDelta`]: roll the tracked artifacts forward so
    /// they cover the extended period, at a cost proportional to the
    /// day's churn rather than the corpus. The pristine prepared corpus
    /// is extended in lockstep, so a later
    /// [`execute`](PreparedWorld::execute) re-runs the whole merged
    /// corpus from scratch — the byte-identity oracle
    /// (`tests/incremental_equivalence.rs`) the rolled artifacts are
    /// pinned against.
    pub fn advance(&mut self, delta: &WorldDelta) -> Result<&RunArtifacts, Error> {
        self.ensure_rolled()?;
        let old_period = self
            .rolled
            .as_ref()
            .expect("just bootstrapped")
            .tracker
            .period();
        if delta.from_end != old_period.end {
            return Err(Error::stage(
                "advance",
                format!(
                    "delta does not extend the rolled run: delta starts at {}, run ends at {}",
                    delta.from_end, old_period.end
                ),
            ));
        }
        let new_period = StudyPeriod::new(old_period.start, delta.to_end);

        // Pristine corpus first (short borrows), then the rolled run.
        self.scans.censys.extend(delta.snapshots.iter().cloned());
        self.world.config.study_period = new_period;
        let threads = self.threads;
        let fault_seed = self.faults.seed;
        let active_dns = self.faults.active_dns.clone();

        let registry = PatternRegistry::try_paper_defaults()?;
        let pipeline = DiscoveryPipeline::new(registry).faults(fault_seed, active_dns);
        let rolled = self.rolled.as_mut().expect("just bootstrapped");
        let RunArtifacts {
            world,
            scans,
            discovery,
            footprints,
            shared_ips,
            index,
            ..
        } = &mut rolled.artifacts;
        scans.censys.extend(delta.snapshots.iter().cloned());
        world.config.study_period = new_period;
        let tracker = &mut rolled.tracker;
        let dedicated = &mut rolled.dedicated;
        iotmap_par::with_threads(threads, || {
            let _span = iotmap_obs::span!("experiment.advance");
            let sources = Pipeline::data_sources(world, scans);
            let fresh_ips = tracker.advance(
                &pipeline,
                discovery,
                &sources,
                new_period,
                delta.snapshots.len(),
            );
            // The footprint stage is a pure function of the discovery
            // result and sources: recompute it with the same body the
            // supervised engine runs.
            *footprints = Pipeline::derive_footprints(discovery, &sources);
            // Shared-IP classification is per-IP and monotone under
            // window growth, so only the touched IPs need a verdict: the
            // rdata IPs of newly revealed rows (their inverse lookup
            // changed — a dedicated IP may have flipped) and the newly
            // discovered IPs (never classified).
            let classifier = SharedIpClassifier::new(pipeline.registry());
            let pdns = &world.passive_dns;
            for ip in fresh_ips {
                if dedicated.contains(&ip) && classifier.classify(ip, pdns, new_period).is_shared()
                {
                    dedicated.remove(&ip);
                    shared_ips.insert(ip);
                }
            }
            for (_, disc) in discovery.per_provider() {
                for &ip in disc.ips.keys() {
                    if !dedicated.contains(&ip) && !shared_ips.contains(&ip) {
                        if classifier.classify(ip, pdns, new_period).is_shared() {
                            shared_ips.insert(ip);
                        } else {
                            dedicated.insert(ip);
                        }
                    }
                }
            }
            *index = IpIndex::build(discovery, footprints, shared_ips);
        });
        Ok(&self.rolled.as_ref().expect("just bootstrapped").artifacts)
    }

    #[allow(clippy::too_many_arguments)]
    fn engine_inner(
        world: World,
        scans: CollectedScans,
        faults: &FaultPlan,
        scenario_fp: Option<u64>,
        policy: &StagePolicy,
        threads: usize,
        checkpoint_dir: Option<&Path>,
        resume: bool,
        cache_dir: Option<&Path>,
    ) -> Result<RunArtifacts, Error> {
        let registry = PatternRegistry::try_paper_defaults()?;
        // The engine's stage numbering continues the prepare phase's
        // (world = 00, scans = 01), so a split run writes the same
        // checkpoint files as the old single-supervisor pipeline.
        let mut supervisor = Supervisor::new(faults.seed)
            .policy(policy.clone())
            .crash(faults.crash.clone())
            .start_index(2);
        if let Some(dir) = checkpoint_dir {
            let fingerprint = recover::run_fingerprint_with(&world.config, faults, scenario_fp);
            let store = CheckpointStore::open(dir, fingerprint).map_err(|e| {
                Error::stage("checkpoint", format!("cannot open {}: {e}", dir.display()))
            })?;
            supervisor = supervisor.store(store, resume);
        }
        let cache = match cache_dir {
            Some(dir) => Some(WorldCache::open(dir, &world.config, faults, scenario_fp)?),
            None => None,
        };
        iotmap_par::with_threads(threads, || {
            Pipeline::engine_stages(
                world,
                scans,
                registry,
                faults,
                &mut supervisor,
                cache.as_ref(),
            )
        })
    }
}

/// Everything a [`Pipeline`] run produced: the world, the collected scan
/// data, the discovery result, and the derived analyses. The traffic
/// passes (§5) live here too, because they re-walk the prepared world.
pub struct RunArtifacts {
    pub world: World,
    pub scans: CollectedScans,
    pub discovery: DiscoveryResult,
    pub footprints: HashMap<String, Footprint>,
    pub shared_ips: HashSet<IpAddr>,
    pub index: IpIndex,
    /// The fault plan the run was prepared under; the traffic passes
    /// re-apply its NetFlow component so export loss persists into §5.
    pub faults: FaultPlan,
}

impl RunArtifacts {
    /// A traffic simulator over the prepared world, carrying the run's
    /// NetFlow fault plan (a no-fault plan yields the plain simulator).
    fn simulator(&self) -> TrafficSimulator<'_> {
        TrafficSimulator::with_faults(&self.world, self.faults.seed, self.faults.netflow.clone())
    }

    /// Borrow fresh data sources (for analyses that need them later) —
    /// the same wiring the pipeline itself ran with, latency prober
    /// included.
    pub fn sources(&self) -> DataSources<'_> {
        Pipeline::data_sources(&self.world, &self.scans)
    }

    /// A canonical byte encoding of everything the run computed:
    /// witnesses for the generative stages plus the full serialized
    /// derived artifacts, all in sorted order. Two runs are
    /// artifact-identical iff their dumps are byte-equal — the
    /// instrument the crash-recovery experiment and the resume tests
    /// compare with.
    pub fn canonical_dump(&self) -> Vec<u8> {
        let mut w = iotmap_super::codec::ByteWriter::new();
        w.put_u64(recover::world_witness(&self.world));
        w.put_u64(recover::scans_witness(&self.scans));
        recover::put_discovery(&self.discovery, &mut w);
        recover::put_footprints(&self.footprints, &mut w);
        recover::put_shared_ips(&self.shared_ips, &mut w);
        w.put_u64(self.index.len() as u64);
        w.into_bytes()
    }

    /// First traffic pass: per-line backend contact sets over a period.
    ///
    /// Runs as a streaming fold: per-shard partials merged in shard
    /// order, byte-identical to a serial fold at any thread count.
    pub fn contact_pass(&self, period: StudyPeriod) -> Contacts {
        let _span = iotmap_obs::span!("traffic.contact_pass");
        let sim = self.simulator();
        let fold = ContactFold::new(&self.index);
        fold.into_contacts(sim.run_fold(period, &fold).0)
    }

    /// Scanner exclusion at the paper's threshold.
    pub fn excluded_lines(&self, contacts: &Contacts) -> HashSet<LineId> {
        let _span = iotmap_obs::span!("traffic.scanner_exclusion");
        let analysis = ScannerAnalysis::new(&self.index, contacts);
        let flagged = analysis.flagged_lines(SCANNER_THRESHOLD);
        iotmap_obs::gauge!("traffic.scanner.lines_excluded", flagged.len() as i64);
        flagged
    }

    /// Second traffic pass: the full analysis report with scanners
    /// excluded.
    ///
    /// Runs as a streaming fold like [`contact_pass`](RunArtifacts::contact_pass).
    pub fn analysis_pass(&self, period: StudyPeriod, excluded: &HashSet<LineId>) -> AnalysisReport {
        let _span = iotmap_obs::span!("traffic.analysis_pass");
        let sim = self.simulator();
        let fold = AnalysisFold::new(&self.index, excluded, period);
        let (partial, _) = sim.run_fold(period, &fold);
        fold.into_report(partial)
    }

    /// The analysis pass over a **replicated** subscriber population:
    /// replica `r` clones every line with `id += r × n` (scanners
    /// dropped from clones so exclusion stays a base-population
    /// concept), and the flows stream through the fold block by block —
    /// the §5 analysis at `replicas ×` the world's line count without
    /// ever materializing the scaled flow set. `replicas == 1` is
    /// byte-identical to [`analysis_pass`](RunArtifacts::analysis_pass).
    pub fn scaled_analysis_pass(
        &self,
        period: StudyPeriod,
        replicas: u64,
        excluded: &HashSet<LineId>,
    ) -> AnalysisReport {
        let _span = iotmap_obs::span!("traffic.scaled_analysis_pass");
        let sim = self.simulator();
        let fold = AnalysisFold::new(&self.index, excluded, period);
        let (partial, _) = sim.run_replicated_fold(period, replicas, &fold);
        fold.into_report(partial)
    }

    /// Convenience: contact pass → exclusion → analysis pass.
    pub fn full_traffic_analysis(&self, period: StudyPeriod) -> (AnalysisReport, HashSet<LineId>) {
        let contacts = self.contact_pass(period);
        let excluded = self.excluded_lines(&contacts);
        (self.analysis_pass(period, &excluded), excluded)
    }
}

/// The ~15 types a typical caller needs, in one import:
/// `use iotmap::prelude::*;`.
pub mod prelude {
    pub use crate::{Pipeline, PreparedWorld, RunArtifacts, SCANNER_THRESHOLD};
    pub use iotmap_core::{
        DataSources, DiscoveryPipeline, DiscoveryResult, Footprint, PatternRegistry,
        ProviderDiscovery, Source,
    };
    pub use iotmap_delta::WorldDelta;
    pub use iotmap_nettypes::{Date, DomainName, Error, SimRng, StudyPeriod};
    pub use iotmap_obs::{Registry, RunReport};
    pub use iotmap_par::{set_threads, with_threads};
    pub use iotmap_scenario::Scenario;
    pub use iotmap_super::{CheckpointStore, StagePolicy, Supervisor};
    pub use iotmap_traffic::AnalysisReport;
    pub use iotmap_world::{CollectedScans, World, WorldConfig};
}
