//! The protocol registry: one dispatch seam from the CLI down to the fleet.
//!
//! Every driver layer in the workspace — `co-ring record/replay/shrink/
//! explore`, the fleet harness, the bench tables — needs to turn a protocol
//! *name* into concrete monomorphized code. Before this module each layer
//! kept its own enum and its own match pyramid, so onboarding a protocol
//! meant editing ~8 files. A [`ProtocolSpec`] collapses that to one: the
//! descriptor owns the canonical name, the node-set constructor, the
//! leader extractor and the capability surface, all pre-monomorphized into
//! plain function pointers, and every dispatch site resolves through a
//! [`Registry`] lookup instead of a match.
//!
//! ## Structure
//!
//! * **Definition traits** — [`RingProtocol`] (how to build a node set on a
//!   [`RingSpec`] and classify leaders), [`MonitoredProtocol`] (an invariant
//!   monitor for the shrink hunt) and [`FleetSpec`] (a `Pulse`-message node
//!   factory for `co_net::fleet`). Implement them on a zero-sized marker
//!   type, never on the node itself.
//! * **Drivers** — generic functions (`record`, `replay`, hunt/violates,
//!   fleet shard) instantiated per definition type and stored as `fn`
//!   pointers, so a [`ProtocolSpec`] is a plain `Copy` value with no trait
//!   objects and no allocation.
//! * **Capabilities** — [`Capability`] flags gate what a protocol can do;
//!   [`Registry::require`] turns a missing capability into a typed
//!   [`RegistryError`] whose message lists the protocols that *do* support
//!   it (computed from the registry, so it can never drift).
//!
//! ## Adding a protocol
//!
//! See `DESIGN.md` §12 for the checklist; the short version: define a
//! marker type, implement [`RingProtocol`] (plus [`MonitoredProtocol`] /
//! [`FleetSpec`] where applicable), and append one
//! [`ProtocolSpec::of`] builder chain to the crate's entry list. No
//! command-layer edit is ever required.
//!
//! This module registers the paper's protocols ([`core_entries`]);
//! `co_classic::registry` adds the content-carrying baselines and
//! `co_bench::protocols` assembles the full workspace registry.

use crate::ablation::UngatedAlg2Node;
use crate::election::Role;
use crate::invariants::Alg2MonitorObserver;
use crate::runner::{simulation, RunOptions};
use crate::{Alg1Node, Alg2Node, Alg3Node, IdScheme};
use co_net::explore::{try_explore, ExploreConfig, ExploreReport, ResumeError};
use co_net::fleet::{self, FleetConfig, FleetReport, FleetRingDetail, RingPlan};
use co_net::{
    Budget, Message, Port, Protocol, Pulse, QueueBackend, RingSpec, RunReport, Schedule, Scheduler,
    SchedulerKind, SimObserver, Simulation, Snapshot, StepInfo, UnitMessage,
};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::OnceLock;

/// How to instantiate a protocol on an oriented [`RingSpec`] and read its
/// election outcome.
///
/// Implemented on a zero-sized *definition* type (e.g. [`Alg2Def`]), not
/// on the node: the registry monomorphizes the generic drivers per
/// definition and stores them as function pointers, and
/// [`crate::runner::run`] runs any definition to an election report.
pub trait RingProtocol: 'static {
    /// The protocol's message type (a [`Pulse`] for the content-oblivious
    /// algorithms, content-carrying for the classic baselines).
    type Msg: Message;

    /// The per-node state machine.
    type Node: Protocol<Self::Msg> + Snapshot;

    /// The queue storage a run may pick: [`QueueBackend`] for `Pulse`
    /// protocols, [`Envelopes`] for content-carrying ones.
    type Backend: Backend<Self::Msg>;

    /// Builds the node set for `spec`, position by position. This is the
    /// one place the protocol's nodes are made from a ring.
    fn nodes(spec: &RingSpec) -> Vec<Self::Node>;

    /// The node's output decision so far; a node that has not output one
    /// (an Algorithm 2 node before it terminates) counts as a non-leader.
    fn role(node: &Self::Node) -> Role;

    /// The paper's exact message count on `spec`, when the paper gives one
    /// and it fits in a `u64`.
    fn predicted(_spec: &RingSpec) -> Option<u64> {
        None
    }

    /// Positions (ring indices) of every node currently claiming
    /// leadership.
    fn leader_positions(nodes: &[Self::Node]) -> Vec<usize> {
        (0..nodes.len())
            .filter(|&i| Self::role(&nodes[i]) == Role::Leader)
            .collect()
    }
}

/// Where a run keeps its in-flight messages, chosen per message type: the
/// counter backend needs a unit message, so a content-carrying protocol's
/// only choice is [`Envelopes`] and cannot be handed
/// [`QueueBackend::Counter`].
pub trait Backend<M: Message>: Copy + Default + fmt::Debug + 'static {
    /// A simulation of `nodes` on `spec`'s wiring storing queues this way.
    fn simulation<P: Protocol<M>>(
        self,
        spec: &RingSpec,
        nodes: Vec<P>,
        scheduler: Box<dyn Scheduler>,
    ) -> Simulation<M, P>;
}

impl<M: UnitMessage> Backend<M> for QueueBackend {
    fn simulation<P: Protocol<M>>(
        self,
        spec: &RingSpec,
        nodes: Vec<P>,
        scheduler: Box<dyn Scheduler>,
    ) -> Simulation<M, P> {
        Simulation::with_backend(spec.wiring(), nodes, scheduler, self)
    }
}

/// Per-channel envelope queues ([`QueueBackend::Vec`]'s layout): the one
/// storage every message type supports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Envelopes;

impl<M: Message> Backend<M> for Envelopes {
    fn simulation<P: Protocol<M>>(
        self,
        spec: &RingSpec,
        nodes: Vec<P>,
        scheduler: Box<dyn Scheduler>,
    ) -> Simulation<M, P> {
        Simulation::new(spec.wiring(), nodes, scheduler)
    }
}

/// A [`RingProtocol`] with an invariant monitor the `shrink` hunt can run.
pub trait MonitoredProtocol: RingProtocol {
    /// The observer watching every delivery for an invariant violation.
    type Monitor: SimObserver<Self::Msg, Self::Node>;

    /// A fresh monitor.
    fn monitor() -> Self::Monitor;

    /// Whether the monitor latched a violation.
    fn violated(monitor: &Self::Monitor) -> bool;
}

/// A `Pulse`-message node factory for the fleet harness
/// (`co_net::fleet`), which plans its own rings ([`RingPlan`]) instead of
/// taking a [`RingSpec`].
pub trait FleetSpec: 'static {
    /// The per-node state machine (fleet rings are `Pulse`-only).
    type Node: Protocol<Pulse> + Snapshot;

    /// Builds the node at ring position `pos` of `plan`.
    fn node(plan: &RingPlan, pos: usize) -> Self::Node;

    /// Whether this node currently claims leadership.
    fn is_leader(node: &Self::Node) -> bool;
}

/// Latches a violation when more than one node outputs [`Role::Leader`].
///
/// The protocol-agnostic counterpart of the Algorithm 2 lemma monitors:
/// *unique leadership* is the one safety property every election protocol
/// shares, so any [`RingProtocol`] whose output is a [`Role`] can join the
/// `shrink` toolkit through this observer — which is exactly how the
/// classic baselines are onboarded.
#[derive(Clone, Debug, Default)]
pub struct UniqueLeaderMonitor {
    violation: Option<String>,
}

impl UniqueLeaderMonitor {
    /// A fresh monitor with no violation.
    #[must_use]
    pub fn new() -> UniqueLeaderMonitor {
        UniqueLeaderMonitor::default()
    }

    /// The first violation observed, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }
}

impl<M, P> SimObserver<M, P> for UniqueLeaderMonitor
where
    M: Message,
    P: Protocol<M, Output = Role>,
{
    fn after_step(&mut self, sim: &Simulation<M, P>, _step: &StepInfo) {
        if self.violation.is_some() {
            return;
        }
        let leaders = sim
            .nodes()
            .iter()
            .filter(|n| n.output() == Some(Role::Leader))
            .count();
        if leaders > 1 {
            self.violation = Some(format!("{leaders} nodes claim leadership simultaneously"));
        }
    }
}

/// Outcome of a recorded run: the report, the replayable picks, the final
/// configuration fingerprint and the elected leader positions.
#[derive(Clone, Debug)]
pub struct Recorded {
    /// The run's outcome and counters.
    pub report: RunReport,
    /// The recorded delivery schedule (feed to `replay`).
    pub picks: Schedule,
    /// Stable fingerprint of the final configuration — equal fingerprints
    /// mean byte-identical node states and channel contents.
    pub fingerprint: u64,
    /// Ring positions claiming leadership at the end of the run.
    pub leaders: Vec<usize>,
}

/// Outcome of a deterministic replay (same fields as [`Recorded`], minus
/// the schedule it was driven by).
#[derive(Clone, Debug)]
pub struct Replayed {
    /// The run's outcome and counters.
    pub report: RunReport,
    /// Stable fingerprint of the final configuration.
    pub fingerprint: u64,
    /// Ring positions claiming leadership at the end of the run.
    pub leaders: Vec<usize>,
}

type RecordFn = fn(&RingSpec, &RunOptions<Envelopes>) -> Recorded;
type ReplayFn = fn(&RingSpec, &RunOptions<Envelopes>, &Schedule) -> Replayed;
type ExploreFn = fn(&RingSpec, &ExploreConfig) -> Result<ExploreReport, ResumeError>;
type HuntFn = fn(&RingSpec, SchedulerKind, u64) -> Option<Schedule>;
type ViolatesFn = fn(&RingSpec, &Schedule) -> bool;
type FleetShardFn = fn(&FleetConfig, u64, Range<u64>) -> FleetReport;
type FleetDetailFn = fn(&FleetConfig, u64, u64) -> FleetRingDetail;

fn record_driver<D: RingProtocol>(spec: &RingSpec, opts: &RunOptions<Envelopes>) -> Recorded {
    let mut sim = simulation::<D, _>(spec, D::nodes(spec), opts);
    let (report, picks) = sim.run_recorded(opts.budget);
    Recorded {
        report,
        picks,
        fingerprint: sim.fingerprint(),
        leaders: D::leader_positions(sim.nodes()),
    }
}

fn replay_driver<D: RingProtocol>(
    spec: &RingSpec,
    opts: &RunOptions<Envelopes>,
    schedule: &Schedule,
) -> Replayed {
    // The replay engine overrides the scheduler, but the latency plan
    // shapes the trace and must match the recording's.
    let mut sim = simulation::<D, _>(spec, D::nodes(spec), opts);
    let report = sim.replay(schedule, opts.budget);
    Replayed {
        report,
        fingerprint: sim.fingerprint(),
        leaders: D::leader_positions(sim.nodes()),
    }
}

/// The one seam between the registry and the explorer. The out-of-core
/// machinery (mmap dedup tables, frontier spill, checkpoint/resume) rides
/// entirely inside [`ExploreConfig`], so this signature — and every
/// registered protocol — is untouched by where the visited set lives.
fn explore_driver<D>(spec: &RingSpec, config: &ExploreConfig) -> Result<ExploreReport, ResumeError>
where
    D: RingProtocol<Msg = Pulse>,
    D::Node: Clone + Sync,
    <D::Node as Snapshot>::State: Send,
{
    let nodes = D::nodes(spec);
    try_explore(
        &spec.wiring(),
        move || nodes.clone(),
        |_| Ok(()),
        |_| Ok(()),
        config,
    )
}

fn hunt_driver<D: MonitoredProtocol>(
    spec: &RingSpec,
    kind: SchedulerKind,
    seed: u64,
) -> Option<Schedule> {
    let mut sim = Simulation::new(spec.wiring(), D::nodes(spec), kind.build(seed));
    let mut monitor = D::monitor();
    sim.enable_schedule_recording();
    sim.run_observed(Budget::default(), &mut monitor);
    D::violated(&monitor).then(|| sim.recorded_schedule().expect("recording enabled"))
}

fn violates_driver<D: MonitoredProtocol>(spec: &RingSpec, schedule: &Schedule) -> bool {
    let mut sim = Simulation::new(spec.wiring(), D::nodes(spec), SchedulerKind::Fifo.build(0));
    let mut monitor = D::monitor();
    sim.replay_observed(schedule, Budget::default(), &mut monitor);
    D::violated(&monitor)
}

fn fleet_shard_driver<D: FleetSpec>(
    cfg: &FleetConfig,
    round: u64,
    rings: Range<u64>,
) -> FleetReport {
    fleet::run_shard(cfg, round, rings, &D::node, &D::is_leader)
}

fn fleet_detail_driver<D: FleetSpec>(cfg: &FleetConfig, round: u64, ring: u64) -> FleetRingDetail {
    fleet::run_ring_detailed(cfg, round, ring, &D::node, &D::is_leader)
}

/// The shrink toolkit of one protocol: a violation hunter and a replay
/// oracle, as resolved by [`Registry::shrink`].
#[derive(Copy, Clone)]
pub struct ShrinkDriver {
    hunt: HuntFn,
    violates: ViolatesFn,
}

impl ShrinkDriver {
    /// Runs the protocol under `kind`/`seed` with its monitor attached and
    /// schedule recording on; returns the recorded schedule if the monitor
    /// latched a violation.
    #[must_use]
    pub fn hunt(&self, spec: &RingSpec, kind: SchedulerKind, seed: u64) -> Option<Schedule> {
        (self.hunt)(spec, kind, seed)
    }

    /// Replays `schedule` with the monitor attached; the ddmin predicate.
    #[must_use]
    pub fn violates(&self, spec: &RingSpec, schedule: &Schedule) -> bool {
        (self.violates)(spec, schedule)
    }
}

impl fmt::Debug for ShrinkDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShrinkDriver").finish_non_exhaustive()
    }
}

/// The fleet harness of one protocol, as resolved by [`Registry::fleet`]:
/// shard execution plus the single-ring equivalence probe.
#[derive(Copy, Clone)]
pub struct FleetDriver {
    shard: FleetShardFn,
    detail: FleetDetailFn,
}

impl FleetDriver {
    /// Runs one shard of the fleet (ring indices `rings`). Shards are
    /// independent; merging their reports in index order is byte-identical
    /// at any thread count.
    #[must_use]
    pub fn run_shard(&self, cfg: &FleetConfig, round: u64, rings: Range<u64>) -> FleetReport {
        (self.shard)(cfg, round, rings)
    }

    /// Runs one whole round sequentially (the single-threaded reference).
    #[must_use]
    pub fn run_round(&self, cfg: &FleetConfig, round: u64) -> FleetReport {
        let mut report = FleetReport::new();
        for shard in 0..cfg.shard_count() {
            report.merge(&self.run_shard(cfg, round, cfg.shard_range(shard)));
        }
        report
    }

    /// Runs a single fleet ring with full bookkeeping (report, stats,
    /// fingerprint) for equivalence checks against a plain `Simulation`.
    #[must_use]
    pub fn run_ring_detailed(&self, cfg: &FleetConfig, round: u64, ring: u64) -> FleetRingDetail {
        (self.detail)(cfg, round, ring)
    }
}

impl fmt::Debug for FleetDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetDriver").finish_non_exhaustive()
    }
}

/// The exhaustive-exploration entry point of one protocol, as resolved by
/// [`Registry::explore`].
#[derive(Copy, Clone)]
pub struct ExploreDriver {
    explore: ExploreFn,
}

impl ExploreDriver {
    /// Explores every delivery order of the protocol on `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `config.resume` holds a checkpoint the explorer refuses;
    /// [`ExploreDriver::try_run`] returns the [`ResumeError`] instead.
    #[must_use]
    pub fn run(&self, spec: &RingSpec, config: &ExploreConfig) -> ExploreReport {
        self.try_run(spec, config)
            .unwrap_or_else(|e| panic!("cannot resume the checkpoint: {e}"))
    }

    /// [`ExploreDriver::run`], with a checkpoint the explorer cannot resume
    /// (another dedup backend, or a frontier path that does not replay)
    /// returned as an error.
    pub fn try_run(
        &self,
        spec: &RingSpec,
        config: &ExploreConfig,
    ) -> Result<ExploreReport, ResumeError> {
        (self.explore)(spec, config)
    }
}

impl fmt::Debug for ExploreDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreDriver").finish_non_exhaustive()
    }
}

/// An optional protocol capability, gateable via [`Registry::require`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Capability {
    /// Safe for exhaustive exploration (`Pulse` messages, bounded state).
    Explore,
    /// Has an invariant monitor for the `shrink` hunt.
    Shrink,
    /// Can run under the fleet harness (`Pulse` messages).
    Fleet,
    /// Has an async/await twin over the node facade.
    AsyncTwin,
}

impl Capability {
    /// Every capability, in table-column order.
    pub const ALL: [Capability; 4] = [
        Capability::Explore,
        Capability::Shrink,
        Capability::Fleet,
        Capability::AsyncTwin,
    ];
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Capability::Explore => "explore",
            Capability::Shrink => "shrink",
            Capability::Fleet => "fleet",
            Capability::AsyncTwin => "async-twin",
        })
    }
}

/// A typed registry failure: the name is unknown, or the protocol lacks a
/// required capability. Both messages list the valid alternatives,
/// computed from the registry so they can never drift from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// No entry under this name.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, in registry order.
        known: Vec<&'static str>,
    },
    /// The entry exists but lacks the required capability.
    Unsupported {
        /// The resolved protocol.
        name: &'static str,
        /// The capability it lacks.
        capability: Capability,
        /// Every protocol that does support it, in registry order.
        supported: Vec<&'static str>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Unknown { name, known } => {
                write!(f, "unknown protocol '{name}'; one of: {}", known.join(", "))
            }
            RegistryError::Unsupported {
                name,
                capability,
                supported,
            } => write!(
                f,
                "protocol '{name}' does not support {capability}; protocols that do: {}",
                supported.join(", ")
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A registered protocol: canonical name, capability surface and
/// pre-monomorphized drivers.
///
/// Build one with [`ProtocolSpec::of`] and the `with_*` builders; the
/// definition type parameter is repeated per builder because a spec erases
/// it (the drivers are plain `fn` pointers).
#[derive(Copy, Clone, Debug)]
pub struct ProtocolSpec {
    name: &'static str,
    layer: &'static str,
    summary: &'static str,
    async_twin: bool,
    record: RecordFn,
    replay: ReplayFn,
    explore: Option<ExploreDriver>,
    shrink: Option<ShrinkDriver>,
    fleet: Option<FleetDriver>,
}

impl ProtocolSpec {
    /// A baseline spec for definition `D`: record/replay only, no optional
    /// capabilities. `layer` groups the entry in tables (`"core"` for the
    /// paper's algorithms, `"classic"` for the baselines).
    #[must_use]
    pub fn of<D: RingProtocol>(
        name: &'static str,
        layer: &'static str,
        summary: &'static str,
    ) -> ProtocolSpec {
        ProtocolSpec {
            name,
            layer,
            summary,
            async_twin: false,
            record: record_driver::<D>,
            replay: replay_driver::<D>,
            explore: None,
            shrink: None,
            fleet: None,
        }
    }

    /// Marks the protocol as having an async/await twin.
    #[must_use]
    pub fn with_async_twin(mut self) -> ProtocolSpec {
        self.async_twin = true;
        self
    }

    /// Registers the exhaustive-exploration driver (requires `Pulse`
    /// messages and thread-safe state).
    #[must_use]
    pub fn with_explore<D>(mut self) -> ProtocolSpec
    where
        D: RingProtocol<Msg = Pulse>,
        D::Node: Clone + Sync,
        <D::Node as Snapshot>::State: Send,
    {
        self.explore = Some(ExploreDriver {
            explore: explore_driver::<D>,
        });
        self
    }

    /// Registers the shrink toolkit built from `D`'s invariant monitor.
    #[must_use]
    pub fn with_monitor<D: MonitoredProtocol>(mut self) -> ProtocolSpec {
        self.shrink = Some(ShrinkDriver {
            hunt: hunt_driver::<D>,
            violates: violates_driver::<D>,
        });
        self
    }

    /// Registers the fleet harness built from fleet definition `D`.
    #[must_use]
    pub fn with_fleet<D: FleetSpec>(mut self) -> ProtocolSpec {
        self.fleet = Some(FleetDriver {
            shard: fleet_shard_driver::<D>,
            detail: fleet_detail_driver::<D>,
        });
        self
    }

    /// The canonical name (`--protocol` spelling).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The table grouping (`"core"` or `"classic"`).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.layer
    }

    /// One-line description.
    #[must_use]
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// Whether the protocol has `cap`.
    #[must_use]
    pub fn supports(&self, cap: Capability) -> bool {
        match cap {
            Capability::Explore => self.explore.is_some(),
            Capability::Shrink => self.shrink.is_some(),
            Capability::Fleet => self.fleet.is_some(),
            Capability::AsyncTwin => self.async_twin,
        }
    }

    /// Records one run on `spec` under `opts`.
    #[must_use]
    pub fn record(&self, spec: &RingSpec, opts: &RunOptions<Envelopes>) -> Recorded {
        (self.record)(spec, opts)
    }

    /// Deterministically replays `schedule` on `spec` (`opts`' scheduler
    /// and seed are unused: the schedule decides every delivery).
    #[must_use]
    pub fn replay(
        &self,
        spec: &RingSpec,
        opts: &RunOptions<Envelopes>,
        schedule: &Schedule,
    ) -> Replayed {
        (self.replay)(spec, opts, schedule)
    }

    /// The exploration driver, if [`Capability::Explore`] is supported.
    #[must_use]
    pub fn explore_driver(&self) -> Option<ExploreDriver> {
        self.explore
    }

    /// The shrink toolkit, if [`Capability::Shrink`] is supported.
    #[must_use]
    pub fn shrink_driver(&self) -> Option<ShrinkDriver> {
        self.shrink
    }

    /// The fleet harness, if [`Capability::Fleet`] is supported.
    #[must_use]
    pub fn fleet_driver(&self) -> Option<FleetDriver> {
        self.fleet
    }
}

/// An ordered, duplicate-free collection of [`ProtocolSpec`]s with typed
/// lookup and capability gating.
#[derive(Debug)]
pub struct Registry {
    entries: Vec<ProtocolSpec>,
}

impl Registry {
    /// Builds a registry from `entries`.
    ///
    /// # Panics
    ///
    /// Panics if two entries share a name — registration is a compile-time
    /// decision, so a collision is a programming error, not an input error.
    #[must_use]
    pub fn new(entries: Vec<ProtocolSpec>) -> Registry {
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                assert!(
                    a.name != b.name,
                    "duplicate protocol registration: '{}'",
                    a.name
                );
            }
        }
        Registry { entries }
    }

    /// Every entry, in registration order.
    #[must_use]
    pub fn entries(&self) -> &[ProtocolSpec] {
        &self.entries
    }

    /// Every registered name, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(ProtocolSpec::name).collect()
    }

    /// Names of every protocol supporting `cap`, in registration order.
    #[must_use]
    pub fn supporting(&self, cap: Capability) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|s| s.supports(cap))
            .map(ProtocolSpec::name)
            .collect()
    }

    /// Resolves `name` to its spec.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Unknown`] listing every registered name.
    pub fn get(&self, name: &str) -> Result<&ProtocolSpec, RegistryError> {
        self.entries
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| RegistryError::Unknown {
                name: name.to_owned(),
                known: self.names(),
            })
    }

    /// Resolves `name` and checks it supports `cap`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Unknown`] for an unregistered name;
    /// [`RegistryError::Unsupported`] (listing the protocols that do
    /// support `cap`) otherwise.
    pub fn require(&self, name: &str, cap: Capability) -> Result<&ProtocolSpec, RegistryError> {
        let spec = self.get(name)?;
        if spec.supports(cap) {
            Ok(spec)
        } else {
            Err(RegistryError::Unsupported {
                name: spec.name,
                capability: cap,
                supported: self.supporting(cap),
            })
        }
    }

    /// Resolves `name`'s exploration driver.
    ///
    /// # Errors
    ///
    /// See [`Registry::require`].
    pub fn explore(&self, name: &str) -> Result<ExploreDriver, RegistryError> {
        Ok(self
            .require(name, Capability::Explore)?
            .explore
            .expect("gated"))
    }

    /// Resolves `name`'s shrink toolkit.
    ///
    /// # Errors
    ///
    /// See [`Registry::require`].
    pub fn shrink(&self, name: &str) -> Result<ShrinkDriver, RegistryError> {
        Ok(self
            .require(name, Capability::Shrink)?
            .shrink
            .expect("gated"))
    }

    /// Resolves `name`'s fleet harness.
    ///
    /// # Errors
    ///
    /// See [`Registry::require`].
    pub fn fleet(&self, name: &str) -> Result<FleetDriver, RegistryError> {
        Ok(self.require(name, Capability::Fleet)?.fleet.expect("gated"))
    }

    /// Renders the registry as a fixed-width name × capabilities table
    /// (the `co-ring protocols` output; the README protocol table is
    /// regenerated from it).
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<20} {:<8} {:<8} {:<7} {:<6} {:<11} summary\n",
            "protocol", "layer", "explore", "shrink", "fleet", "async-twin"
        );
        for spec in &self.entries {
            let mark = |cap| if spec.supports(cap) { "yes" } else { "-" };
            out.push_str(&format!(
                "{:<20} {:<8} {:<8} {:<7} {:<6} {:<11} {}\n",
                spec.name,
                spec.layer,
                mark(Capability::Explore),
                mark(Capability::Shrink),
                mark(Capability::Fleet),
                mark(Capability::AsyncTwin),
                spec.summary,
            ));
        }
        out
    }
}

// --- The paper's protocols as registry definitions. ---------------------

/// Algorithm 1 definition (quiescently stabilizing election; Corollary 13
/// predicts `n·ID_max` pulses).
pub struct Alg1Def;

impl RingProtocol for Alg1Def {
    type Msg = Pulse;
    type Node = Alg1Node;
    type Backend = QueueBackend;

    fn nodes(spec: &RingSpec) -> Vec<Alg1Node> {
        (0..spec.len())
            .map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i)))
            .collect()
    }

    fn role(node: &Alg1Node) -> Role {
        node.output().unwrap_or(Role::NonLeader)
    }

    fn predicted(spec: &RingSpec) -> Option<u64> {
        (spec.len() as u64).checked_mul(spec.id_max())
    }
}

impl FleetSpec for Alg1Def {
    type Node = Alg1Node;

    fn node(plan: &RingPlan, pos: usize) -> Alg1Node {
        // Fleet rings are oriented with Port::One as everyone's CW port.
        Alg1Node::new(plan.ids[pos], Port::One)
    }

    fn is_leader(node: &Alg1Node) -> bool {
        node.role() == Role::Leader
    }
}

/// Algorithm 2 definition (quiescently terminating election; Theorem 1
/// predicts `n(2·ID_max + 1)` pulses).
pub struct Alg2Def;

impl RingProtocol for Alg2Def {
    type Msg = Pulse;
    type Node = Alg2Node;
    type Backend = QueueBackend;

    fn nodes(spec: &RingSpec) -> Vec<Alg2Node> {
        (0..spec.len())
            .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
            .collect()
    }

    fn role(node: &Alg2Node) -> Role {
        node.output().unwrap_or(Role::NonLeader)
    }

    fn predicted(spec: &RingSpec) -> Option<u64> {
        let per_node = spec.id_max().checked_mul(2)?.checked_add(1)?;
        per_node.checked_mul(spec.len() as u64)
    }
}

impl MonitoredProtocol for Alg2Def {
    type Monitor = Alg2MonitorObserver;

    fn monitor() -> Alg2MonitorObserver {
        Alg2MonitorObserver::new()
    }

    fn violated(monitor: &Alg2MonitorObserver) -> bool {
        monitor.violation().is_some()
    }
}

impl FleetSpec for Alg2Def {
    type Node = Alg2Node;

    fn node(plan: &RingPlan, pos: usize) -> Alg2Node {
        Alg2Node::new(plan.ids[pos], Port::One)
    }

    fn is_leader(node: &Alg2Node) -> bool {
        node.role() == Role::Leader
    }
}

/// An [`IdScheme`] as a type, so each scheme of Algorithm 3 is its own
/// definition ([`Alg3Def`]).
pub trait SchemeType: 'static {
    /// The scheme this type stands for.
    const SCHEME: IdScheme;
}

/// [`IdScheme::Improved`] (Theorem 2) as a type.
pub struct Improved;

impl SchemeType for Improved {
    const SCHEME: IdScheme = IdScheme::Improved;
}

/// [`IdScheme::Doubled`] (Proposition 15) as a type.
pub struct Doubled;

impl SchemeType for Doubled {
    const SCHEME: IdScheme = IdScheme::Doubled;
}

/// Algorithm 3 definition (election + orientation) under virtual-ID scheme
/// `S`; the registry's `alg3` is the [`Improved`] one.
pub struct Alg3Def<S = Improved>(PhantomData<S>);

impl<S: SchemeType> RingProtocol for Alg3Def<S> {
    type Msg = Pulse;
    type Node = Alg3Node;
    type Backend = QueueBackend;

    fn nodes(spec: &RingSpec) -> Vec<Alg3Node> {
        (0..spec.len())
            .map(|i| Alg3Node::new(spec.id(i), S::SCHEME))
            .collect()
    }

    fn role(node: &Alg3Node) -> Role {
        node.output().map_or(Role::NonLeader, |o| o.role)
    }

    fn predicted(spec: &RingSpec) -> Option<u64> {
        S::SCHEME.predicted_messages(spec.len() as u64, spec.id_max())
    }
}

/// The deliberately broken receive-gate ablation of Algorithm 2.
pub struct UngatedDef;

impl RingProtocol for UngatedDef {
    type Msg = Pulse;
    type Node = UngatedAlg2Node;
    type Backend = QueueBackend;

    fn nodes(spec: &RingSpec) -> Vec<UngatedAlg2Node> {
        (0..spec.len())
            .map(|i| UngatedAlg2Node::new(spec.id(i), spec.cw_port(i)))
            .collect()
    }

    fn role(node: &UngatedAlg2Node) -> Role {
        node.output().unwrap_or(Role::NonLeader)
    }
}

impl MonitoredProtocol for UngatedDef {
    type Monitor = Alg2MonitorObserver;

    fn monitor() -> Alg2MonitorObserver {
        Alg2MonitorObserver::new()
    }

    fn violated(monitor: &Alg2MonitorObserver) -> bool {
        monitor.violation().is_some()
    }
}

/// The paper's protocols as registry entries, in canonical order.
///
/// Capability rationale: all four are explore-safe; `alg2`/`ungated` carry the Lemma 6–12 monitor (`alg1`/
/// `alg3` have no CCW counters to check); `alg1`/`alg2` are the fleet
/// workloads; `alg1` has the async node-facade twin.
#[must_use]
pub fn core_entries() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::of::<Alg1Def>(
            "alg1",
            "core",
            "Algorithm 1: quiescently stabilizing election",
        )
        .with_async_twin()
        .with_explore::<Alg1Def>()
        .with_fleet::<Alg1Def>(),
        ProtocolSpec::of::<Alg2Def>(
            "alg2",
            "core",
            "Algorithm 2: quiescently terminating election",
        )
        .with_explore::<Alg2Def>()
        .with_monitor::<Alg2Def>()
        .with_fleet::<Alg2Def>(),
        ProtocolSpec::of::<Alg3Def>("alg3", "core", "Algorithm 3: election + ring orientation")
            .with_explore::<Alg3Def>(),
        ProtocolSpec::of::<UngatedDef>("ungated", "core", "Algorithm 2 without its receive gate")
            .with_explore::<UngatedDef>()
            .with_monitor::<UngatedDef>(),
    ]
}

/// The registry of the paper's protocols alone (the full workspace
/// registry, including the classic baselines, is `co_bench::protocols`).
#[must_use]
pub fn core_registry() -> &'static Registry {
    static CELL: OnceLock<Registry> = OnceLock::new();
    CELL.get_or_init(|| Registry::new(core_entries()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_net::fleet::RingSizes;
    use co_net::shrink_schedule;

    #[test]
    fn lookup_is_total_over_entries() {
        let reg = core_registry();
        assert_eq!(reg.names(), vec!["alg1", "alg2", "alg3", "ungated"]);
        for name in reg.names() {
            assert_eq!(reg.get(name).unwrap().name(), name);
        }
        let err = reg.get("alg9").unwrap_err();
        assert!(err
            .to_string()
            .contains("one of: alg1, alg2, alg3, ungated"));
    }

    #[test]
    fn capability_gating_is_typed() {
        let reg = core_registry();
        assert_eq!(reg.supporting(Capability::Fleet), vec!["alg1", "alg2"]);
        assert_eq!(reg.supporting(Capability::Shrink), vec!["alg2", "ungated"]);
        let err = reg.fleet("alg3").unwrap_err();
        assert_eq!(
            err,
            RegistryError::Unsupported {
                name: "alg3",
                capability: Capability::Fleet,
                supported: vec!["alg1", "alg2"],
            }
        );
        assert!(err.to_string().contains("protocols that do: alg1, alg2"));
        assert!(reg.fleet("nope").is_err());
    }

    #[test]
    fn record_replay_round_trips_for_every_entry() {
        let spec = RingSpec::oriented(vec![2, 3, 1]);
        for entry in core_registry().entries() {
            let opts = RunOptions::new(SchedulerKind::Random, 5);
            let rec = entry.record(&spec, &opts);
            let rep = entry.replay(&spec, &opts, &rec.picks);
            assert_eq!(rec.report, rep.report, "{}", entry.name());
            assert_eq!(rec.fingerprint, rep.fingerprint, "{}", entry.name());
            assert_eq!(rec.leaders, rep.leaders, "{}", entry.name());
        }
    }

    #[test]
    fn alg1_fleet_matches_corollary_13() {
        let mut cfg = FleetConfig::new(100);
        cfg.sizes = RingSizes::Fixed(5);
        let fleet = core_registry().fleet("alg1").unwrap();
        let report = fleet.run_round(&cfg, 0);
        assert_eq!(report.rings, 100);
        assert_eq!(report.elections, 100);
        assert_eq!(
            report.quiescent, 100,
            "Algorithm 1 stabilizes, never terminates"
        );
        // IDs are 1..=5, so ID_max = 5 and each ring sends n·ID_max = 25.
        assert_eq!(report.total_sent, 100 * 25);
    }

    #[test]
    fn alg2_fleet_matches_theorem_1() {
        let mut cfg = FleetConfig::new(100);
        cfg.sizes = RingSizes::Fixed(4);
        let fleet = core_registry().fleet("alg2").unwrap();
        let report = fleet.run_round(&cfg, 0);
        assert_eq!(report.elections, 100);
        assert_eq!(
            report.quiescent_terminated, 100,
            "Algorithm 2 terminates quiescently"
        );
        // Theorem 1: exactly n·(2·ID_max + 1) pulses per ring.
        assert_eq!(report.total_sent, 100 * 4 * (2 * 4 + 1));
    }

    #[test]
    fn mixed_size_fleets_still_elect_everywhere() {
        let mut cfg = FleetConfig::new(200);
        cfg.sizes = RingSizes::Uniform { min: 1, max: 9 };
        cfg.seed = 3;
        for name in core_registry().supporting(Capability::Fleet) {
            let report = core_registry().fleet(name).unwrap().run_round(&cfg, 0);
            assert_eq!(report.elections, 200, "{name}");
            assert_eq!(report.budget_exhausted, 0, "{name}");
        }
    }

    #[test]
    fn shrink_driver_finds_and_minimizes_the_ablation_violation() {
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let driver = core_registry().shrink("ungated").unwrap();
        let mut found = None;
        'hunt: for kind in SchedulerKind::ALL {
            for seed in 0..16 {
                if let Some(schedule) = driver.hunt(&spec, kind, seed) {
                    found = Some(schedule);
                    break 'hunt;
                }
            }
        }
        let original = found.expect("the ungated ablation violates its invariants");
        assert!(driver.violates(&spec, &original));
        let shrunk = shrink_schedule(&original, |s| driver.violates(&spec, s));
        assert!(driver.violates(&spec, &shrunk));
        assert!(shrunk.len() <= original.len());
    }

    #[test]
    fn the_real_algorithm_2_never_violates() {
        let spec = RingSpec::oriented(vec![1, 2]);
        let driver = core_registry().shrink("alg2").unwrap();
        for kind in SchedulerKind::ALL {
            for seed in 0..16 {
                assert!(driver.hunt(&spec, kind, seed).is_none(), "{kind} {seed}");
            }
        }
    }

    #[test]
    fn table_lists_every_entry() {
        let table = core_registry().table();
        for name in core_registry().names() {
            assert!(table.contains(name), "{name} missing from table");
        }
        assert!(table.starts_with("protocol"));
    }

    #[test]
    fn unique_leader_monitor_latches_on_duplicate_leaders() {
        // Two defective Chang–Roberts-style nodes aren't available here;
        // drive the monitor directly through a simulation of the real
        // Algorithm 2, which never double-elects: the monitor must stay
        // silent over the whole adversary matrix.
        let spec = RingSpec::oriented(vec![3, 1, 2]);
        for kind in SchedulerKind::ALL {
            let mut sim = Simulation::new(spec.wiring(), Alg2Def::nodes(&spec), kind.build(7));
            let mut monitor = UniqueLeaderMonitor::new();
            sim.run_observed(Budget::default(), &mut monitor);
            assert!(monitor.violation().is_none(), "{kind}");
        }
    }
}
