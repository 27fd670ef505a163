//! Argument parsing for `co-ring` (dependency-free by design: the offline
//! crate set justified in DESIGN.md has no CLI parser, and the grammar is
//! small).

use co_bench::parallel::MAX_JOBS;
use co_core::registry::{Capability, ProtocolSpec};
use co_core::IdScheme;
use co_net::{LatencyModel, LatencyPlan, Schedule, SchedulerKind};
use std::fmt;

/// Options shared by every subcommand.
#[derive(Clone, Debug)]
pub struct CommonOpts {
    /// Node IDs in clockwise order (`--ids 5,2,9`), or `--n N` for 1..=N.
    pub ids: Vec<u64>,
    /// Delivery adversary.
    pub scheduler: SchedulerKind,
    /// RNG seed for scheduler / sampling.
    pub seed: u64,
    /// Per-channel latency model (`zero` keeps the untimed fast path).
    pub latency: LatencyModel,
    /// Seed of the per-channel latency streams.
    pub latency_seed: u64,
    /// Emit machine-readable JSON instead of text.
    pub json: bool,
}

impl CommonOpts {
    /// The latency plan these options describe (every channel gets
    /// [`CommonOpts::latency`], seeded by [`CommonOpts::latency_seed`]).
    #[must_use]
    pub fn latency_plan(&self) -> LatencyPlan {
        LatencyPlan::new(self.latency, self.latency_seed)
    }
}

impl Default for CommonOpts {
    fn default() -> CommonOpts {
        CommonOpts {
            ids: (1..=8).collect(),
            scheduler: SchedulerKind::Random,
            seed: 0,
            latency: LatencyModel::Zero,
            latency_seed: 0,
            json: false,
        }
    }
}

/// A parsed `co-ring` invocation.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Shared options.
    pub opts: CommonOpts,
}

/// `co-ring` subcommands.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run Algorithm 2 (quiescently terminating election).
    Elect,
    /// Run Algorithm 1 (stabilizing election).
    Stabilize,
    /// Run Algorithm 3 on a randomly port-scrambled ring.
    Orient {
        /// Virtual-ID scheme.
        scheme: IdScheme,
    },
    /// Run an anonymous-ring election (Algorithm 4 + Algorithm 3).
    Anonymous {
        /// Ring size.
        n: usize,
        /// The paper's `c` parameter.
        c: f64,
        /// Number of trials.
        trials: u64,
    },
    /// Elect, then compute the ring size at every node (Corollary 5).
    Compose,
    /// Print solitude patterns (Definition 21) for a range of IDs.
    Solitude {
        /// Largest ID to extract.
        max_id: u64,
    },
    /// Run a classical baseline for comparison.
    Baseline {
        /// Which baseline.
        which: co_classic::runner::Baseline,
    },
    /// Run the content-oblivious flood-echo wave on a general graph.
    Echo {
        /// Graph description (e.g. `ring:8`, `complete:5`, `path:4`).
        graph: GraphSpec,
        /// Root node of the wave.
        root: usize,
    },
    /// Run a fleet of independent concurrent ring elections (E21 harness).
    Fleet {
        /// Rings per round.
        rings: u64,
        /// Ring-size distribution (`4`, `uniform:3..9`, `mix:3,5,8`).
        sizes: co_net::fleet::RingSizes,
        /// Which election protocol every ring runs (must be
        /// fleet-capable; checked at parse time against the registry).
        protocol: ProtocolChoice,
        /// Probability a ring gets one spurious clockwise pulse.
        fault_rate: f64,
        /// Rounds to run (ignored when `duration_ms` is set).
        rounds: u64,
        /// Soft wall-clock stop: run whole rounds until this elapses.
        duration_ms: Option<u64>,
        /// Worker threads (0 = one per core).
        jobs: usize,
    },
    /// Run a protocol while recording a replayable delivery schedule.
    Record {
        /// Which protocol to drive.
        protocol: ProtocolChoice,
    },
    /// Deterministically replay a recorded schedule.
    Replay {
        /// Which protocol to drive.
        protocol: ProtocolChoice,
        /// The schedule to replay (from `record`, e.g. `0,3,2`).
        schedule: Schedule,
    },
    /// Find a monitor-violating schedule and ddmin-minimize it.
    Shrink {
        /// Which protocol to drive (needs CCW-instance counters:
        /// `alg2` or `ungated`).
        protocol: ProtocolChoice,
    },
    /// Exhaustively explore every delivery order with fingerprint dedup.
    Explore {
        /// Which protocol to drive.
        protocol: ProtocolChoice,
        /// Configuration cap before giving up.
        max_configs: usize,
        /// Worker threads (0 = one per core, 1 = single-threaded).
        jobs: usize,
        /// Fingerprint dedup backend.
        dedup: co_net::DedupKind,
        /// Write resumable checkpoints to this path.
        checkpoint: Option<std::path::PathBuf>,
        /// Admitted configurations between checkpoint writes.
        checkpoint_every: usize,
        /// Resume from a checkpoint previously written by `--checkpoint`.
        resume: Option<std::path::PathBuf>,
        /// Frontier spill-to-disk high-water mark (0 = off).
        spill: usize,
        /// Directory for scratch files (mmap tables, spill files).
        scratch_dir: Option<std::path::PathBuf>,
    },
    /// Print the protocol registry as a name × capabilities table.
    Protocols,
    /// Print usage.
    Help,
}

/// Which registered protocol the `record`/`replay`/`shrink`/`explore`/
/// `fleet` commands drive: a thin handle into the workspace protocol
/// registry ([`co_bench::protocols`]).
///
/// Parsing resolves the name against the registry, so the set of valid
/// spellings — and the list printed on a parse error — extends itself when
/// a protocol is registered, with no CLI edit.
#[derive(Copy, Clone)]
pub struct ProtocolChoice {
    spec: &'static ProtocolSpec,
}

impl ProtocolChoice {
    /// Resolves a name that is statically known to be registered (internal
    /// defaults).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the registry — a programming error, not
    /// an input error (user input goes through [`Cli::parse`]).
    #[must_use]
    pub fn named(name: &str) -> ProtocolChoice {
        ProtocolChoice {
            spec: co_bench::protocols()
                .get(name)
                .expect("default protocol is registered"),
        }
    }

    /// The registry entry behind this choice.
    #[must_use]
    pub fn spec(&self) -> &'static ProtocolSpec {
        self.spec
    }

    /// The canonical protocol name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.spec.name()
    }

    fn parse(s: &str) -> Result<ProtocolChoice, ParseError> {
        co_bench::protocols()
            .get(s)
            .map(|spec| ProtocolChoice { spec })
            .map_err(|e| err(e.to_string()))
    }
}

impl PartialEq for ProtocolChoice {
    fn eq(&self, other: &ProtocolChoice) -> bool {
        self.name() == other.name()
    }
}

impl Eq for ProtocolChoice {}

impl fmt::Debug for ProtocolChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProtocolChoice({})", self.name())
    }
}

impl fmt::Display for ProtocolChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed `--graph` description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// The cycle `C_n`.
    Ring(usize),
    /// The complete graph `K_n`.
    Complete(usize),
    /// The path `P_n` (has bridges — the wave still floods it).
    Path(usize),
}

impl GraphSpec {
    /// Builds the multigraph.
    #[must_use]
    pub fn build(&self) -> co_net::graph::MultiGraph {
        use co_net::graph::MultiGraph;
        match *self {
            GraphSpec::Ring(n) => MultiGraph::ring(n),
            GraphSpec::Complete(n) => {
                let mut g = MultiGraph::new(n);
                for u in 0..n {
                    for v in u + 1..n {
                        g.add_edge(u, v);
                    }
                }
                g
            }
            GraphSpec::Path(n) => MultiGraph::path(n),
        }
    }

    fn parse(s: &str) -> Result<GraphSpec, ParseError> {
        let (kind, n) = s
            .split_once(':')
            .ok_or_else(|| err(format!("bad graph '{s}'; expected kind:N")))?;
        let n: usize = n
            .parse()
            .map_err(|_| err(format!("bad graph size in '{s}'")))?;
        if n == 0 {
            return Err(err("graph needs at least one node"));
        }
        match kind {
            "ring" => Ok(GraphSpec::Ring(n)),
            "complete" | "k" => Ok(GraphSpec::Complete(n)),
            "path" => Ok(GraphSpec::Path(n)),
            other => Err(err(format!("unknown graph kind '{other}'"))),
        }
    }
}

/// A CLI parsing failure (message for the user).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Ceiling on `--n` and on every `--ring-sizes` entry: 10× the largest ring
/// any test, CI job or example runs (n = 100,000). Node tables are
/// allocated up front, so a larger value is refused before any allocation.
const MAX_N: u64 = 1_000_000;

/// Ceiling on `--rings`: 10× the largest fleet any test, CI job or example
/// runs (10⁶ rings).
const MAX_RINGS: u64 = 10_000_000;

/// Ceiling on `solitude --max-id`: every ID up to it is simulated and
/// printed, so the output grows quadratically with it.
const MAX_SOLITUDE_ID: u64 = 1_000;

/// Ceiling on the nodes one fleet shard holds at once (its rings' node and
/// termination arrays): `min(--rings, shard size)` × the largest
/// `--ring-sizes` entry. At the default shard size that admits
/// `--ring-sizes` up to 9,765.
const MAX_FLEET_SHARD_NODES: u64 = 10_000_000;

fn at_most(flag: &str, value: u64, ceiling: u64) -> Result<(), ParseError> {
    if value > ceiling {
        return Err(err(format!(
            "{flag} must be at most {ceiling}, got {value}"
        )));
    }
    Ok(())
}

fn parse_scheduler(s: &str) -> Result<SchedulerKind, ParseError> {
    // `Latency` is deliberately outside `SchedulerKind::ALL` (it models the
    // network, not an adversary), so it is matched by name here.
    if s == SchedulerKind::Latency.to_string() {
        return Ok(SchedulerKind::Latency);
    }
    SchedulerKind::ALL
        .into_iter()
        .find(|k| k.to_string() == s)
        .ok_or_else(|| {
            let mut names: Vec<String> =
                SchedulerKind::ALL.iter().map(ToString::to_string).collect();
            names.push(SchedulerKind::Latency.to_string());
            err(format!(
                "unknown scheduler '{s}'; one of: {}",
                names.join(", ")
            ))
        })
}

impl Cli {
    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the offending argument.
    pub fn parse<I, S>(args: I) -> Result<Cli, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_owned()).collect();
        let mut it = args.iter().peekable();
        let Some(cmd) = it.next() else {
            return Ok(Cli {
                command: Command::Help,
                opts: CommonOpts::default(),
            });
        };

        let mut opts = CommonOpts::default();
        let mut scheme = IdScheme::Improved;
        let mut n: Option<usize> = None;
        let mut c = 1.0f64;
        let mut trials = 100u64;
        let mut max_id = 16u64;
        let mut which = co_classic::runner::Baseline::ChangRoberts;
        let mut graph = GraphSpec::Ring(8);
        let mut root = 0usize;
        let mut jobs: Option<usize> = None;
        let mut rings = 10_000u64;
        let mut sizes = co_net::fleet::RingSizes::Uniform { min: 3, max: 9 };
        let mut fault_rate = 0.0f64;
        let mut rounds = 1u64;
        let mut duration_ms: Option<u64> = None;
        let mut protocol: Option<ProtocolChoice> = None;
        let mut schedule: Option<Schedule> = None;
        let mut max_configs = 2_000_000usize;
        let mut dedup = co_net::DedupKind::Exact;
        let mut checkpoint: Option<std::path::PathBuf> = None;
        let mut checkpoint_every = 100_000usize;
        let mut resume: Option<std::path::PathBuf> = None;
        let mut spill = 0usize;
        let mut scratch_dir: Option<std::path::PathBuf> = None;

        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, ParseError> {
                it.next()
                    .ok_or_else(|| err(format!("{name} requires a value")))
            };
            match flag.as_str() {
                "--ids" => {
                    opts.ids = value("--ids")?
                        .split(',')
                        .map(|p| {
                            p.trim()
                                .parse::<u64>()
                                .map_err(|_| err(format!("bad ID '{p}'")))
                        })
                        .collect::<Result<_, _>>()?;
                    if opts.ids.is_empty() || opts.ids.contains(&0) {
                        return Err(err("--ids needs positive integers"));
                    }
                }
                "--n" => {
                    let parsed: usize = value("--n")?
                        .parse()
                        .map_err(|_| err("--n must be a positive integer"))?;
                    if parsed == 0 {
                        return Err(err("--n must be positive"));
                    }
                    at_most("--n", parsed as u64, MAX_N)?;
                    opts.ids = (1..=parsed as u64).collect();
                    n = Some(parsed);
                }
                "--scheduler" => opts.scheduler = parse_scheduler(value("--scheduler")?)?,
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|_| err("--seed must be an integer"))?;
                }
                "--latency" => {
                    opts.latency = value("--latency")?
                        .parse()
                        .map_err(|e| err(format!("bad --latency: {e}")))?;
                }
                "--latency-seed" => {
                    opts.latency_seed = value("--latency-seed")?
                        .parse()
                        .map_err(|_| err("--latency-seed must be an integer"))?;
                }
                "--json" => opts.json = true,
                "--scheme" => {
                    scheme = match value("--scheme")?.as_str() {
                        "doubled" => IdScheme::Doubled,
                        "improved" => IdScheme::Improved,
                        other => return Err(err(format!("unknown scheme '{other}'"))),
                    };
                }
                "--c" => {
                    c = value("--c")?
                        .parse()
                        .map_err(|_| err("--c must be a float"))?;
                    if !(c.is_finite() && c > 0.0) {
                        return Err(err(format!(
                            "--c must be a positive finite number, got {c}"
                        )));
                    }
                }
                "--trials" => {
                    trials = value("--trials")?
                        .parse()
                        .map_err(|_| err("--trials must be an integer"))?;
                    if trials == 0 {
                        return Err(err("--trials must be at least 1"));
                    }
                }
                "--max-id" => {
                    max_id = value("--max-id")?
                        .parse()
                        .map_err(|_| err("--max-id must be an integer"))?;
                    at_most("--max-id", max_id, MAX_SOLITUDE_ID)?;
                }
                "--jobs" => {
                    let parsed: usize = value("--jobs")?
                        .parse()
                        .map_err(|_| err("--jobs must be a number (0 = one per core)"))?;
                    at_most("--jobs", parsed as u64, MAX_JOBS as u64)?;
                    jobs = Some(parsed);
                }
                "--rings" => {
                    rings = value("--rings")?
                        .parse()
                        .map_err(|_| err("--rings must be a positive integer"))?;
                    if rings == 0 {
                        return Err(err("--rings must be positive"));
                    }
                    at_most("--rings", rings, MAX_RINGS)?;
                }
                "--ring-sizes" => {
                    sizes = value("--ring-sizes")?
                        .parse()
                        .map_err(|e| err(format!("bad --ring-sizes: {e}")))?;
                    // `max_len` covers the `N` form, the `uniform:` max and
                    // every `mix:` entry.
                    at_most("--ring-sizes", sizes.max_len() as u64, MAX_N)?;
                }
                "--fault-rate" => {
                    fault_rate = value("--fault-rate")?
                        .parse()
                        .map_err(|_| err("--fault-rate must be a float"))?;
                    if !(0.0..=1.0).contains(&fault_rate) {
                        return Err(err("--fault-rate must be in 0.0..=1.0"));
                    }
                }
                "--rounds" => {
                    rounds = value("--rounds")?
                        .parse()
                        .map_err(|_| err("--rounds must be a positive integer"))?;
                    if rounds == 0 {
                        return Err(err("--rounds must be positive"));
                    }
                }
                "--duration" => {
                    let secs: f64 = value("--duration")?
                        .parse()
                        .map_err(|_| err("--duration must be seconds (e.g. 10 or 2.5)"))?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err(err("--duration must be positive"));
                    }
                    duration_ms = Some((secs * 1000.0).ceil() as u64);
                }
                "--protocol" => protocol = Some(ProtocolChoice::parse(value("--protocol")?)?),
                "--schedule" => {
                    let text = value("--schedule")?;
                    // A pick in a `batch:` recording could stand for a whole
                    // fused pulse run, so it cannot be replayed per pulse.
                    if text.trim_start().starts_with("batch:") {
                        return Err(err(
                            "batch-mode schedules ('batch:' prefix) are no longer supported: \
                             re-record the run with 'co-ring record'",
                        ));
                    }
                    schedule = Some(
                        text.parse()
                            .map_err(|e| err(format!("bad --schedule: {e}")))?,
                    );
                }
                "--max-configs" => {
                    max_configs = value("--max-configs")?
                        .parse()
                        .map_err(|_| err("--max-configs must be an integer"))?;
                }
                "--dedup" => {
                    // The error lists the valid kinds from the backend
                    // itself (registry style), so a new backend extends the
                    // message with no CLI edit.
                    dedup = value("--dedup")?.parse().map_err(|e| err(format!("{e}")))?;
                }
                "--checkpoint" => checkpoint = Some(value("--checkpoint")?.into()),
                "--checkpoint-every" => {
                    checkpoint_every = value("--checkpoint-every")?
                        .parse()
                        .map_err(|_| err("--checkpoint-every must be an integer"))?;
                    if checkpoint_every == 0 {
                        return Err(err("--checkpoint-every must be positive"));
                    }
                }
                "--resume" => resume = Some(value("--resume")?.into()),
                "--spill" => {
                    spill = value("--spill")?
                        .parse()
                        .map_err(|_| err("--spill must be an integer (0 = off)"))?;
                }
                "--scratch-dir" => scratch_dir = Some(value("--scratch-dir")?.into()),
                "--graph" => graph = GraphSpec::parse(value("--graph")?)?,
                "--root" => {
                    root = value("--root")?
                        .parse()
                        .map_err(|_| err("--root must be a node index"))?;
                }
                "--algo" => {
                    use co_classic::runner::Baseline;
                    which = match value("--algo")?.as_str() {
                        "chang-roberts" | "cr" => Baseline::ChangRoberts,
                        "hirschberg-sinclair" | "hs" => Baseline::HirschbergSinclair,
                        "peterson" => Baseline::Peterson,
                        "franklin" => Baseline::Franklin,
                        other => return Err(err(format!("unknown baseline '{other}'"))),
                    };
                }
                other => return Err(err(format!("unknown flag '{other}'"))),
            }
        }

        let command = match cmd.as_str() {
            "elect" => Command::Elect,
            "stabilize" => Command::Stabilize,
            "orient" => Command::Orient { scheme },
            "anonymous" => Command::Anonymous {
                n: n.unwrap_or(8),
                c,
                trials,
            },
            "compose" => Command::Compose,
            "solitude" => Command::Solitude { max_id },
            "baseline" => Command::Baseline { which },
            "echo" => Command::Echo { graph, root },
            "fleet" => {
                // `fleet` reuses `--protocol`; the capability gate rejects
                // non-fleet-capable choices at parse time, listing the
                // protocols that qualify (from the registry, so the list
                // can never drift).
                let protocol = protocol.unwrap_or_else(|| ProtocolChoice::named("alg1"));
                co_bench::protocols()
                    .require(protocol.name(), Capability::Fleet)
                    .map_err(|e| err(format!("fleet: {e}")))?;
                // One shard holds every node of its rings at once.
                let shard_nodes = rings
                    .min(co_net::fleet::DEFAULT_SHARD_RINGS)
                    .saturating_mul(sizes.max_len() as u64);
                if shard_nodes > MAX_FLEET_SHARD_NODES {
                    return Err(err(format!(
                        "fleet: --rings and --ring-sizes put {shard_nodes} nodes in one \
                         shard; at most {MAX_FLEET_SHARD_NODES} are allowed"
                    )));
                }
                Command::Fleet {
                    rings,
                    sizes,
                    protocol,
                    fault_rate,
                    rounds,
                    duration_ms,
                    // Fleet is a throughput harness: default to one worker
                    // per core (the aggregate report is jobs-invariant).
                    jobs: jobs.unwrap_or(0),
                }
            }
            "record" => Command::Record {
                protocol: protocol.unwrap_or_else(|| ProtocolChoice::named("alg2")),
            },
            "replay" => Command::Replay {
                protocol: protocol.unwrap_or_else(|| ProtocolChoice::named("alg2")),
                schedule: schedule.ok_or_else(|| err("replay requires --schedule"))?,
            },
            "shrink" => Command::Shrink {
                // The broken ablation is the interesting shrink target.
                protocol: protocol.unwrap_or_else(|| ProtocolChoice::named("ungated")),
            },
            "explore" => Command::Explore {
                protocol: protocol.unwrap_or_else(|| ProtocolChoice::named("alg2")),
                max_configs,
                jobs: jobs.unwrap_or(1),
                dedup,
                checkpoint,
                checkpoint_every,
                resume,
                spill,
                scratch_dir,
            },
            "protocols" => Command::Protocols,
            "help" | "--help" | "-h" => Command::Help,
            other => return Err(err(format!("unknown command '{other}'; try 'help'"))),
        };
        // Algorithm 3 runs on virtual IDs derived from the real ones; refuse
        // IDs whose virtual IDs would not fit in a u64.
        let alg3_scheme = match &command {
            Command::Orient { scheme } => Some(*scheme),
            Command::Record { protocol }
            | Command::Replay { protocol, .. }
            | Command::Shrink { protocol }
            | Command::Explore { protocol, .. }
                if protocol.name() == "alg3" =>
            {
                Some(IdScheme::Improved)
            }
            _ => None,
        };
        if let Some(scheme) = alg3_scheme {
            scheme
                .check_ids(&opts.ids)
                .map_err(|e| err(format!("{cmd}: {e}")))?;
        }
        Ok(Cli { command, opts })
    }
}

/// The usage text printed by `co-ring help`. The `--protocol` list is
/// rendered from the registry, so it extends itself on registration.
#[must_use]
pub fn usage() -> String {
    let protocols = co_bench::protocols().names().join("|");
    format!(
        "co-ring — content-oblivious leader election on rings (DISC 2024)

USAGE: co-ring <COMMAND> [OPTIONS]

COMMANDS:
  elect       Algorithm 2: quiescently terminating election (Theorem 1)
  stabilize   Algorithm 1: quiescently stabilizing election
  orient      Algorithm 3: elect + orient a port-scrambled ring (Theorem 2)
  anonymous   Algorithm 4 + 3: anonymous ring, random IDs (Theorem 3)
  compose     Corollary 5: elect, then all nodes learn the ring size
  solitude    Definition 21: print solitude patterns per ID
  baseline    Run a classical content-carrying baseline
  echo        Flood-echo wave on a general graph (§7 groundwork)
  fleet       Run a fleet of independent concurrent ring elections
  record      Run once, printing a replayable delivery schedule
  replay      Deterministically re-execute a recorded schedule
  shrink      Find a monitor-violating schedule, then ddmin-minimize it
  explore     Check the paper's claims on every schedule (exit 2 if broken)
  protocols   Print the protocol registry (names × capabilities)
  help        This text

OPTIONS:
  --ids a,b,c         node IDs clockwise            (default 1..=8)
  --n N               shorthand for --ids 1,...,N     (N <= {max_n})
  --scheduler NAME    fifo|solitude|lifo|random|round-robin|
                      starve-cw|starve-ccw|longest-queue|latency
                                                     (default random)
  --seed S            adversary / sampling seed      (default 0)
  --latency MODEL     per-channel delay: zero | fixed:K | uniform:MIN..MAX
                                                     (default zero)
  --latency-seed S    seed of the latency streams    (default 0)
  --json              machine-readable output
  --scheme S          orient: doubled|improved       (default improved)
  --c X  --trials T   anonymous: parameter and trial count
  --max-id K          solitude: largest ID           (K <= {max_id})
  --algo A            baseline: cr|hs|peterson|franklin
  --graph G --root R  echo: ring:N | complete:N | path:N, wave root
  --jobs N            explore/fleet: worker threads (0 = one per core;
                      default 1, fleet defaults to 0; N <= {max_jobs})
  --rings N           fleet: rings per round  (default 10000; N <= {max_rings})
  --ring-sizes S      fleet: N | uniform:MIN..MAX | mix:a,b,c
                      (default uniform:3..9; every size <= {max_n}, and
                      one shard of min(rings, {shard}) rings <= {shard_nodes} nodes)
  --fault-rate F      fleet: P(one spurious CW pulse per ring) (default 0)
  --rounds R          fleet: rounds to run                 (default 1)
  --duration SECS     fleet: run whole rounds until SECS elapse
                      (overrides --rounds)
  --protocol P        record/replay/shrink/explore/fleet:
                      {protocols}
  --schedule S        replay: schedule from 'record' (channel picks)
  --max-configs N     explore: configuration cap (default 2000000)
  --dedup B           explore: fingerprint backend, exact|mmap[:BUDGET]
                      (default exact; mmap keeps the table in files —
                      BUDGET accepts k/M/G suffixes, e.g. mmap:512M,
                      and is at most {max_budget}G)
  --checkpoint PATH   explore: write a resumable checkpoint to PATH
                      periodically and at the end of the run
  --checkpoint-every N  explore: configurations between checkpoints
                      (default 100000)
  --resume PATH       explore: continue from a checkpoint written by
                      --checkpoint (same protocol/ids/dedup required)
  --spill N           explore: spill frontier items beyond N per worker to
                      disk (default 0 = off)
  --scratch-dir DIR   explore: directory for mmap tables and spill files
                      (default system temp dir)
",
        max_n = MAX_N,
        max_id = MAX_SOLITUDE_ID,
        max_rings = MAX_RINGS,
        max_jobs = MAX_JOBS,
        shard = co_net::fleet::DEFAULT_SHARD_RINGS,
        shard_nodes = MAX_FLEET_SHARD_NODES,
        max_budget = co_net::dedup::MMAP_MAX_BUDGET >> 30,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_elect_with_ids() {
        let cli = Cli::parse([
            "elect",
            "--ids",
            "5,2,9",
            "--scheduler",
            "lifo",
            "--seed",
            "7",
        ])
        .expect("parses");
        assert_eq!(cli.command, Command::Elect);
        assert_eq!(cli.opts.ids, vec![5, 2, 9]);
        assert_eq!(cli.opts.scheduler, SchedulerKind::Lifo);
        assert_eq!(cli.opts.seed, 7);
    }

    #[test]
    fn parses_n_shorthand() {
        let cli = Cli::parse(["stabilize", "--n", "5"]).expect("parses");
        assert_eq!(cli.opts.ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn parses_orient_scheme() {
        let cli = Cli::parse(["orient", "--scheme", "doubled"]).expect("parses");
        assert_eq!(
            cli.command,
            Command::Orient {
                scheme: IdScheme::Doubled
            }
        );
    }

    #[test]
    fn parses_anonymous() {
        let cli =
            Cli::parse(["anonymous", "--n", "16", "--c", "2.0", "--trials", "50"]).expect("parses");
        match cli.command {
            Command::Anonymous { n, c, trials } => {
                assert_eq!((n, trials), (16, 50));
                assert!((c - 2.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tables_is_an_unknown_command() {
        // The experiment catalogue has one front end, the `tables` binary.
        let e = Cli::parse(["tables"]).unwrap_err();
        assert_eq!(e.to_string(), "unknown command 'tables'; try 'help'");
    }

    #[test]
    fn parses_record_replay_shrink_explore() {
        let cli = Cli::parse(["record", "--protocol", "alg1", "--n", "3"]).expect("parses");
        assert_eq!(
            cli.command,
            Command::Record {
                protocol: ProtocolChoice::named("alg1")
            }
        );

        let cli = Cli::parse(["replay", "--schedule", "0,3,2"]).expect("parses");
        match cli.command {
            Command::Replay { protocol, schedule } => {
                assert_eq!(protocol, ProtocolChoice::named("alg2"));
                assert_eq!(schedule.to_string(), "0,3,2");
            }
            other => panic!("unexpected {other:?}"),
        }

        let cli = Cli::parse(["shrink"]).expect("parses");
        assert_eq!(
            cli.command,
            Command::Shrink {
                protocol: ProtocolChoice::named("ungated")
            }
        );

        let cli = Cli::parse(["explore", "--protocol", "ungated", "--max-configs", "500"])
            .expect("parses");
        assert_eq!(
            cli.command,
            Command::Explore {
                protocol: ProtocolChoice::named("ungated"),
                max_configs: 500,
                jobs: 1,
                dedup: co_net::DedupKind::Exact,
                checkpoint: None,
                checkpoint_every: 100_000,
                resume: None,
                spill: 0,
                scratch_dir: None,
            }
        );

        let cli = Cli::parse(["explore", "--jobs", "8", "--dedup", "mmap"]).expect("parses");
        assert_eq!(
            cli.command,
            Command::Explore {
                protocol: ProtocolChoice::named("alg2"),
                max_configs: 2_000_000,
                jobs: 8,
                dedup: co_net::DedupKind::Mmap {
                    budget: co_net::dedup::MMAP_DEFAULT_BUDGET,
                },
                checkpoint: None,
                checkpoint_every: 100_000,
                resume: None,
                spill: 0,
                scratch_dir: None,
            }
        );
        assert!(Cli::parse(["explore", "--dedup", "cuckoo"]).is_err());
    }

    #[test]
    fn parses_explore_out_of_core_flags() {
        let cli = Cli::parse([
            "explore",
            "--dedup",
            "mmap:64M",
            "--checkpoint",
            "/tmp/run.ck",
            "--checkpoint-every",
            "5000",
            "--spill",
            "100000",
            "--scratch-dir",
            "/tmp/scratch",
        ])
        .expect("parses");
        match cli.command {
            Command::Explore {
                dedup,
                checkpoint,
                checkpoint_every,
                resume,
                spill,
                scratch_dir,
                ..
            } => {
                assert_eq!(
                    dedup,
                    co_net::DedupKind::Mmap {
                        budget: 64 * 1024 * 1024
                    }
                );
                assert_eq!(
                    checkpoint.as_deref(),
                    Some(std::path::Path::new("/tmp/run.ck"))
                );
                assert_eq!(checkpoint_every, 5000);
                assert_eq!(resume, None);
                assert_eq!(spill, 100_000);
                assert_eq!(
                    scratch_dir.as_deref(),
                    Some(std::path::Path::new("/tmp/scratch"))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let cli = Cli::parse(["explore", "--resume", "run.ck"]).expect("parses");
        match cli.command {
            Command::Explore { resume, .. } => {
                assert_eq!(resume.as_deref(), Some(std::path::Path::new("run.ck")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Cli::parse(["explore", "--checkpoint-every", "0"]).is_err());
        assert!(Cli::parse(["explore", "--spill", "lots"]).is_err());
    }

    #[test]
    fn dedup_parse_errors_list_the_backends() {
        let e = Cli::parse(["explore", "--dedup", "cuckoo"]).unwrap_err();
        assert!(
            e.to_string().contains("one of: exact, mmap[:BUDGET]"),
            "the error must list exactly the remaining backends: {e}"
        );
    }

    #[test]
    fn every_registry_entry_parses_and_round_trips() {
        for name in co_bench::protocols().names() {
            let cli = Cli::parse(["record", "--protocol", name]).expect("parses");
            match cli.command {
                Command::Record { protocol } => assert_eq!(protocol.to_string(), name),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn protocol_parse_errors_list_the_registry() {
        let e = Cli::parse(["record", "--protocol", "bogus"]).unwrap_err();
        // The list is rendered from the registry, so onboarding a
        // protocol extends this message with no CLI edit.
        for name in co_bench::protocols().names() {
            assert!(e.to_string().contains(name), "{name} missing: {e}");
        }

        let e = Cli::parse(["fleet", "--protocol", "chang-roberts"]).unwrap_err();
        assert!(e.to_string().contains("does not support fleet"), "{e}");
        assert!(e.to_string().contains("alg1, alg2"), "{e}");
    }

    #[test]
    fn parses_protocols_command() {
        let cli = Cli::parse(["protocols"]).expect("parses");
        assert_eq!(cli.command, Command::Protocols);
        assert!(usage().contains("protocols"));
        assert!(usage().contains("chang-roberts"));
    }

    #[test]
    fn parses_fleet() {
        let cli = Cli::parse(["fleet"]).expect("parses");
        assert_eq!(
            cli.command,
            Command::Fleet {
                rings: 10_000,
                sizes: co_net::fleet::RingSizes::Uniform { min: 3, max: 9 },
                protocol: ProtocolChoice::named("alg1"),
                fault_rate: 0.0,
                rounds: 1,
                duration_ms: None,
                jobs: 0,
            }
        );

        let cli = Cli::parse([
            "fleet",
            "--rings",
            "500",
            "--ring-sizes",
            "mix:3,5,8",
            "--protocol",
            "alg2",
            "--fault-rate",
            "0.01",
            "--rounds",
            "3",
            "--jobs",
            "4",
            "--seed",
            "9",
        ])
        .expect("parses");
        assert_eq!(cli.opts.seed, 9);
        match cli.command {
            Command::Fleet {
                rings,
                sizes,
                protocol,
                fault_rate,
                rounds,
                duration_ms,
                jobs,
            } => {
                assert_eq!(rings, 500);
                assert_eq!(sizes, co_net::fleet::RingSizes::Mix(vec![3, 5, 8]));
                assert_eq!(protocol, ProtocolChoice::named("alg2"));
                assert!((fault_rate - 0.01).abs() < 1e-12);
                assert_eq!((rounds, duration_ms, jobs), (3, None, 4));
            }
            other => panic!("unexpected {other:?}"),
        }

        let cli = Cli::parse(["fleet", "--duration", "2.5"]).expect("parses");
        match cli.command {
            Command::Fleet { duration_ms, .. } => assert_eq!(duration_ms, Some(2500)),
            other => panic!("unexpected {other:?}"),
        }

        assert!(Cli::parse(["fleet", "--rings", "0"]).is_err());
        assert!(Cli::parse(["fleet", "--fault-rate", "1.5"]).is_err());
        assert!(Cli::parse(["fleet", "--rounds", "0"]).is_err());
        assert!(Cli::parse(["fleet", "--duration", "-1"]).is_err());
        assert!(Cli::parse(["fleet", "--ring-sizes", "nope"]).is_err());
        assert!(Cli::parse(["fleet", "--protocol", "alg3"]).is_err());
    }

    #[test]
    fn replay_requires_a_schedule() {
        assert!(Cli::parse(["replay"]).is_err());
        assert!(Cli::parse(["replay", "--schedule", "0,x"]).is_err());
        assert!(Cli::parse(["record", "--protocol", "bogus"]).is_err());
    }

    #[test]
    fn batch_flag_is_unknown() {
        // The retired run-batching switch parses like any unknown flag.
        let flag = ["--", "batch"].concat();
        let e = Cli::parse(["elect", flag.as_str(), "on"]).unwrap_err();
        assert_eq!(e.to_string(), format!("unknown flag '{flag}'"));
    }

    #[test]
    fn batch_schedules_are_refused() {
        let e = Cli::parse(["replay", "--schedule", "batch:1,0"]).unwrap_err();
        assert!(e.to_string().contains("no longer supported"), "{e}");
    }

    #[test]
    fn n_above_its_ceiling_is_refused() {
        assert!(Cli::parse(["elect", "--n", &MAX_N.to_string()]).is_ok());
        let e = Cli::parse(["elect", "--n", "18446744073709551615"]).unwrap_err();
        assert!(e.to_string().contains("--n must be at most"), "{e}");
        assert!(Cli::parse(["explore", "--n", "4000000000"]).is_err());
    }

    #[test]
    fn rings_above_their_ceiling_are_refused() {
        assert!(Cli::parse(["fleet", "--rings", &MAX_RINGS.to_string()]).is_ok());
        let e = Cli::parse(["fleet", "--rings", "18446744073709551615"]).unwrap_err();
        assert!(e.to_string().contains("--rings must be at most"), "{e}");
    }

    #[test]
    fn ring_sizes_above_their_ceiling_are_refused() {
        let too_big = (MAX_N + 1).to_string();
        for sizes in [
            too_big.clone(),
            format!("uniform:3..{too_big}"),
            format!("mix:3,{too_big},5"),
        ] {
            let e = Cli::parse(["fleet", "--ring-sizes", &sizes]).unwrap_err();
            assert!(
                e.to_string().contains("--ring-sizes must be at most"),
                "{sizes}: {e}"
            );
        }
        // Within the per-ring ceiling, a full shard of big rings is still
        // too many nodes at once.
        let e = Cli::parse(["fleet", "--ring-sizes", &MAX_N.to_string()]).unwrap_err();
        assert!(e.to_string().contains("nodes in one shard"), "{e}");
        assert!(Cli::parse(["fleet", "--rings", "1", "--ring-sizes", &MAX_N.to_string()]).is_ok());
        // A full default shard admits rings of up to 9,765 nodes.
        assert!(Cli::parse(["fleet", "--ring-sizes", "9765"]).is_ok());
        assert!(Cli::parse(["fleet", "--ring-sizes", "9766"]).is_err());
    }

    #[test]
    fn jobs_above_their_ceiling_are_refused() {
        // Parse-time only: no test may start MAX_JOBS threads.
        let too_many = (MAX_JOBS + 1).to_string();
        for cmd in ["explore", "fleet"] {
            assert!(Cli::parse([cmd, "--jobs", &MAX_JOBS.to_string()]).is_ok());
            let e = Cli::parse([cmd, "--jobs", &too_many]).unwrap_err();
            assert_eq!(e.to_string(), "--jobs must be at most 256, got 257");
        }
        assert!(Cli::parse(["explore", "--jobs", "18446744073709551615"]).is_err());
    }

    #[test]
    fn max_id_above_its_ceiling_is_refused() {
        assert!(Cli::parse(["solitude", "--max-id", &MAX_SOLITUDE_ID.to_string()]).is_ok());
        let e = Cli::parse(["solitude", "--max-id", "18446744073709551615"]).unwrap_err();
        assert!(e.to_string().contains("--max-id must be at most"), "{e}");
    }

    #[test]
    fn mmap_budget_in_gigabytes_above_its_ceiling_is_refused() {
        let e = Cli::parse(["explore", "--dedup", "mmap:16000000G"]).unwrap_err();
        assert!(e.to_string().contains("above the ceiling"), "{e}");
        assert!(Cli::parse(["explore", "--dedup", "mmap:64G"]).is_ok());
    }

    #[test]
    fn mmap_budget_of_u64_max_bytes_is_refused() {
        let e = Cli::parse(["explore", "--dedup", "mmap:18446744073709551615"]).unwrap_err();
        assert!(e.to_string().contains("above the ceiling"), "{e}");
    }

    #[test]
    fn help_states_the_ceilings() {
        let text = usage();
        for ceiling in [
            MAX_N.to_string(),
            MAX_RINGS.to_string(),
            MAX_SOLITUDE_ID.to_string(),
            MAX_FLEET_SHARD_NODES.to_string(),
            MAX_JOBS.to_string(),
            format!("{}G", co_net::dedup::MMAP_MAX_BUDGET >> 30),
        ] {
            assert!(text.contains(&ceiling), "{ceiling} missing from help");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Cli::parse(["elect", "--ids", "0,1"]).is_err());
        assert!(Cli::parse(["elect", "--scheduler", "bogus"]).is_err());
        assert!(Cli::parse(["frobnicate"]).is_err());
        assert!(Cli::parse(["elect", "--seed"]).is_err());
    }

    #[test]
    fn parses_latency_options() {
        let cli = Cli::parse([
            "elect",
            "--latency",
            "uniform:1..9",
            "--latency-seed",
            "42",
            "--scheduler",
            "latency",
        ])
        .expect("parses");
        assert_eq!(cli.opts.latency, LatencyModel::Uniform { min: 1, max: 9 });
        assert_eq!(cli.opts.latency_seed, 42);
        assert_eq!(cli.opts.scheduler, SchedulerKind::Latency);
        assert!(!cli.opts.latency_plan().is_zero());

        let cli = Cli::parse(["elect"]).expect("parses");
        assert_eq!(cli.opts.latency, LatencyModel::Zero);
        assert!(cli.opts.latency_plan().is_zero());

        assert!(Cli::parse(["elect", "--latency", "uniform:9..1"]).is_err());
        assert!(Cli::parse(["elect", "--latency", "sometimes"]).is_err());
    }

    #[test]
    fn refuses_a_non_finite_c_and_zero_trials() {
        for c in ["nan", "NaN", "inf", "-inf", "infinity", "0", "-1"] {
            let e = Cli::parse(["anonymous", "--c", c]).expect_err(c);
            assert!(
                e.to_string().starts_with("--c must be a positive finite"),
                "{c}: {e}"
            );
        }
        let e = Cli::parse(["anonymous", "--trials", "0"]).expect_err("zero trials");
        assert_eq!(e.to_string(), "--trials must be at least 1");
        assert!(Cli::parse(["anonymous", "--c", "0.5", "--trials", "1"]).is_ok());
    }

    #[test]
    fn refuses_ids_whose_alg3_virtual_ids_overflow() {
        let max = u64::MAX.to_string();
        let (improved, doubled) = (format!("1,{max}"), format!("1,{}", 1u64 << 63));
        for args in [
            vec!["orient", "--ids", &improved],
            vec!["orient", "--scheme", "doubled", "--ids", &doubled],
            vec!["record", "--protocol", "alg3", "--ids", &max],
            vec!["explore", "--protocol", "alg3", "--ids", &max],
        ] {
            let e = Cli::parse(args.clone()).expect_err("virtual ID overflows");
            assert!(e.to_string().contains("too large"), "{args:?}: {e}");
        }
        // The largest ID that fits, and other protocols, still parse.
        let fits = (u64::MAX - 1).to_string();
        assert!(Cli::parse(["orient", "--ids", &fits]).is_ok());
        assert!(Cli::parse(["record", "--protocol", "alg2", "--ids", &max]).is_ok());
    }

    #[test]
    fn empty_args_is_help() {
        let cli = Cli::parse(Vec::<String>::new()).expect("parses");
        assert_eq!(cli.command, Command::Help);
        assert!(usage().contains("co-ring"));
    }
}
