//! Argument parsing for `co-ring` (dependency-free by design: the offline
//! crate set justified in DESIGN.md has no CLI parser, and the grammar is
//! small).
//!
//! One table, `FLAGS`, declares every flag once: its value placeholder,
//! its help line, its ceiling, the commands that read it and its parser.
//! Parsing, the refusal of a flag the command does not read, and the
//! OPTIONS block of [`usage`] all come from it. The parser checks syntax
//! and ceilings only; what a protocol can run (its capabilities, the IDs
//! it accepts) is checked once, by the command that runs it.

use co_bench::parallel::MAX_JOBS;
use co_core::registry::ProtocolSpec;
use co_core::IdScheme;
use co_net::fleet::{RingSizes, DEFAULT_SHARD_RINGS};
use co_net::{DedupKind, LatencyModel, LatencyPlan, Schedule, SchedulerKind};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use Command::*;

/// Every flag's value, in the field named after it (`--latency-seed` is
/// `latency_seed`), at its default until the command line sets it. A
/// command reads only the flags whose `FLAGS` row names it; the row's
/// help line documents the field.
#[derive(Clone, Debug)]
pub struct Opts {
    pub(crate) ids: Vec<u64>,
    /// `anonymous`' ring size; `--n` also sets `ids` to `1..=n`.
    pub(crate) n: usize,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) seed: u64,
    pub(crate) latency: LatencyModel,
    pub(crate) latency_seed: u64,
    /// Emit machine-readable JSON instead of text.
    pub json: bool,
    pub(crate) scheme: IdScheme,
    pub(crate) c: f64,
    pub(crate) trials: u64,
    pub(crate) max_id: u64,
    pub(crate) algo: co_classic::runner::Baseline,
    pub(crate) graph: GraphSpec,
    pub(crate) root: usize,
    /// Unset, `explore` runs one worker and `fleet`, a throughput
    /// harness, one per core.
    pub(crate) jobs: Option<usize>,
    pub(crate) rings: u64,
    pub(crate) ring_sizes: RingSizes,
    pub(crate) fault_rate: f64,
    pub(crate) rounds: u64,
    /// `--duration`, in milliseconds.
    pub(crate) duration_ms: Option<u64>,
    /// Unset, each command drives its own default ([`Opts::protocol_or`]).
    pub(crate) protocol: Option<ProtocolChoice>,
    /// Always set for `replay`: [`Cli::parse`] refuses one without it.
    pub(crate) schedule: Option<Schedule>,
    pub(crate) max_configs: usize,
    pub(crate) dedup: DedupKind,
    pub(crate) checkpoint: Option<PathBuf>,
    pub(crate) checkpoint_every: usize,
    pub(crate) resume: Option<PathBuf>,
    pub(crate) spill: usize,
    pub(crate) scratch_dir: Option<PathBuf>,
}

impl Opts {
    /// The latency plan these options describe (every channel gets
    /// `--latency`, seeded by `--latency-seed`).
    #[must_use]
    pub fn latency_plan(&self) -> LatencyPlan {
        LatencyPlan::new(self.latency, self.latency_seed)
    }

    /// The `--protocol` choice, or the registered protocol `default`.
    #[must_use]
    pub fn protocol_or(&self, default: &str) -> ProtocolChoice {
        self.protocol
            .unwrap_or_else(|| ProtocolChoice::named(default))
    }
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            ids: (1..=8).collect(),
            n: 8,
            scheduler: SchedulerKind::Random,
            seed: 0,
            latency: LatencyModel::Zero,
            latency_seed: 0,
            json: false,
            scheme: IdScheme::Improved,
            c: 1.0,
            trials: 100,
            max_id: 16,
            algo: co_classic::runner::Baseline::ChangRoberts,
            graph: GraphSpec::Ring(8),
            root: 0,
            jobs: None,
            rings: 10_000,
            ring_sizes: RingSizes::Uniform { min: 3, max: 9 },
            fault_rate: 0.0,
            rounds: 1,
            duration_ms: None,
            protocol: None,
            schedule: None,
            max_configs: 2_000_000,
            dedup: DedupKind::Exact,
            checkpoint: None,
            checkpoint_every: 100_000,
            resume: None,
            spill: 0,
            scratch_dir: None,
        }
    }
}

/// A parsed `co-ring` invocation.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Every flag's value.
    pub opts: Opts,
}

/// `co-ring` subcommands. A command's name is its variant's, in lower
/// case.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Run Algorithm 2 (quiescently terminating election).
    Elect,
    /// Run Algorithm 1 (stabilizing election).
    Stabilize,
    /// Run Algorithm 3 on a randomly port-scrambled ring.
    Orient,
    /// Run an anonymous-ring election (Algorithm 4 + Algorithm 3).
    Anonymous,
    /// Elect, then compute the ring size at every node (Corollary 5).
    Compose,
    /// Print solitude patterns (Definition 21) for a range of IDs.
    Solitude,
    /// Run a classical baseline for comparison.
    Baseline,
    /// Run the content-oblivious flood-echo wave on a general graph.
    Echo,
    /// Run a fleet of independent concurrent ring elections (E21 harness).
    Fleet,
    /// Run a protocol while recording a replayable delivery schedule.
    Record,
    /// Deterministically replay a recorded schedule.
    Replay,
    /// Find a monitor-violating schedule and ddmin-minimize it.
    Shrink,
    /// Exhaustively explore every delivery order with fingerprint dedup.
    Explore,
    /// Print the protocol registry as a name × capabilities table.
    Protocols,
    /// Print usage.
    Help,
}

impl Command {
    /// Every command, in help order.
    pub const ALL: [Command; 15] = [
        Elect, Stabilize, Orient, Anonymous, Compose, Solitude, Baseline, Echo, Fleet, Record,
        Replay, Shrink, Explore, Protocols, Help,
    ];

    /// The command's name on the command line.
    #[must_use]
    pub fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }

    /// The command's line in `co-ring help`.
    fn about(self) -> &'static str {
        match self {
            Elect => "Algorithm 2: quiescently terminating election (Theorem 1)",
            Stabilize => "Algorithm 1: quiescently stabilizing election",
            Orient => "Algorithm 3: elect + orient a port-scrambled ring (Theorem 2)",
            Anonymous => "Algorithm 4 + 3: anonymous ring, random IDs (Theorem 3)",
            Compose => "Corollary 5: elect, then all nodes learn the ring size",
            Solitude => "Definition 21: print solitude patterns per ID",
            Baseline => "Run a classical content-carrying baseline",
            Echo => "Flood-echo wave on a general graph (§7 groundwork)",
            Fleet => "Run a fleet of independent concurrent ring elections",
            Record => "Run once, printing a replayable delivery schedule",
            Replay => "Deterministically re-execute a recorded schedule",
            Shrink => "Find a monitor-violating schedule, then ddmin-minimize it",
            Explore => "Check the paper's claims on every schedule (exit 2 if broken)",
            Protocols => "Print the protocol registry (names × capabilities)",
            Help => "This text",
        }
    }
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

/// One flag: everything `co-ring` knows about it.
struct Flag {
    /// The flag as typed, then its value's placeholder (none for a switch).
    syntax: &'static str,
    /// Its help text; [`usage`] fills in the `{…}` placeholders, among them
    /// `{ceiling}`, which a row with a ceiling must state.
    help: &'static str,
    /// The largest value it accepts, where the value sizes an allocation
    /// or a thread count.
    ceiling: Option<u64>,
    /// The commands that read it; every other command refuses it.
    read_by: &'static [Command],
    /// Parses its value into the options.
    set: fn(&mut Opts, &Arg<'_>) -> Result<(), ParseError>,
}

/// Every flag, in help order.
const FLAGS: &[Flag] = &[
    Flag {
        syntax: "--ids a,b,c",
        help: "node IDs clockwise (default 1..=8)",
        ceiling: None,
        read_by: &[
            Elect, Stabilize, Orient, Compose, Baseline, Record, Replay, Shrink, Explore,
        ],
        set: |o, a| {
            o.ids = a
                .text
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| err(format!("bad ID '{p}'"))))
                .collect::<Result<_, _>>()?;
            if o.ids.is_empty() || o.ids.contains(&0) {
                return Err(err("--ids needs positive integers"));
            }
            Ok(())
        },
    },
    Flag {
        syntax: "--n N",
        help: "shorthand for --ids 1,...,N, N at most {ceiling}; anonymous: the ring size \
               (default 8)",
        ceiling: Some(MAX_N),
        read_by: &[
            Elect, Stabilize, Orient, Anonymous, Compose, Baseline, Record, Replay, Shrink, Explore,
        ],
        set: |o, a| {
            let n = a.at_most(a.positive()?)?;
            o.ids = (1..=n).collect();
            o.n = n as usize;
            Ok(())
        },
    },
    Flag {
        syntax: "--scheduler NAME",
        help: "delivery adversary: {schedulers} (default random)",
        ceiling: None,
        read_by: &[
            Elect, Stabilize, Orient, Anonymous, Compose, Baseline, Echo, Record,
        ],
        set: |o, a| parse_scheduler(a.text).map(|v| o.scheduler = v),
    },
    Flag {
        syntax: "--seed S",
        help: "adversary / sampling seed (default 0)",
        ceiling: None,
        read_by: &[
            Elect, Stabilize, Orient, Anonymous, Compose, Baseline, Echo, Fleet, Record, Shrink,
        ],
        set: |o, a| a.number("an integer").map(|v| o.seed = v),
    },
    Flag {
        syntax: "--latency MODEL",
        help: "per-channel delay: zero | fixed:K | uniform:MIN..MAX (default zero)",
        ceiling: None,
        read_by: &[
            Elect, Stabilize, Orient, Anonymous, Compose, Baseline, Record, Replay,
        ],
        set: |o, a| a.typed().map(|v| o.latency = v),
    },
    Flag {
        syntax: "--latency-seed S",
        help: "seed of the latency streams (default 0)",
        ceiling: None,
        read_by: &[
            Elect, Stabilize, Orient, Anonymous, Compose, Baseline, Record, Replay,
        ],
        set: |o, a| a.number("an integer").map(|v| o.latency_seed = v),
    },
    Flag {
        syntax: "--json",
        help: "machine-readable output",
        ceiling: None,
        read_by: &[
            Elect, Stabilize, Orient, Anonymous, Compose, Solitude, Baseline, Echo, Fleet, Record,
            Replay, Shrink, Explore, Protocols,
        ],
        set: |o, _| {
            o.json = true;
            Ok(())
        },
    },
    Flag {
        syntax: "--scheme S",
        help: "virtual-ID scheme: doubled | improved (default improved)",
        ceiling: None,
        read_by: &[Orient],
        set: |o, a| {
            o.scheme = match a.text {
                "doubled" => IdScheme::Doubled,
                "improved" => IdScheme::Improved,
                other => return Err(err(format!("unknown scheme '{other}'"))),
            };
            Ok(())
        },
    },
    Flag {
        syntax: "--c X",
        help: "the paper's c parameter, a positive number (default 1)",
        ceiling: None,
        read_by: &[Anonymous],
        set: |o, a| {
            o.c = a.number("a float")?;
            if !(o.c.is_finite() && o.c > 0.0) {
                return Err(err(format!(
                    "--c must be a positive finite number, got {}",
                    o.c
                )));
            }
            Ok(())
        },
    },
    Flag {
        syntax: "--trials T",
        help: "trial count (default 100)",
        ceiling: None,
        read_by: &[Anonymous],
        set: |o, a| {
            o.trials = a.number("an integer")?;
            if o.trials == 0 {
                return Err(err("--trials must be at least 1"));
            }
            Ok(())
        },
    },
    Flag {
        syntax: "--max-id K",
        help: "largest ID, at most {ceiling} (default 16)",
        ceiling: Some(MAX_SOLITUDE_ID),
        read_by: &[Solitude],
        set: |o, a| a.at_most(a.number("an integer")?).map(|v| o.max_id = v),
    },
    Flag {
        syntax: "--algo A",
        help: "cr | hs | peterson | franklin (default cr)",
        ceiling: None,
        read_by: &[Baseline],
        set: |o, a| {
            use co_classic::runner::Baseline as Algo;
            o.algo = match a.text {
                "chang-roberts" | "cr" => Algo::ChangRoberts,
                "hirschberg-sinclair" | "hs" => Algo::HirschbergSinclair,
                "peterson" => Algo::Peterson,
                "franklin" => Algo::Franklin,
                other => return Err(err(format!("unknown baseline '{other}'"))),
            };
            Ok(())
        },
    },
    Flag {
        syntax: "--graph G",
        help: "ring:N | complete:N | path:N (default ring:8)",
        ceiling: None,
        read_by: &[Echo],
        set: |o, a| GraphSpec::parse(a.text).map(|v| o.graph = v),
    },
    Flag {
        syntax: "--root R",
        help: "root node of the wave (default 0)",
        ceiling: None,
        read_by: &[Echo],
        set: |o, a| a.number("a node index").map(|v| o.root = v),
    },
    Flag {
        syntax: "--jobs N",
        help: "worker threads, 0 = one per core, at most {ceiling} (default 1; fleet 0)",
        ceiling: Some(MAX_JOBS as u64),
        read_by: &[Fleet, Explore],
        set: |o, a| {
            let jobs = a.at_most(a.number("a number (0 = one per core)")?)?;
            o.jobs = Some(jobs as usize);
            Ok(())
        },
    },
    Flag {
        syntax: "--rings N",
        help: "rings per round, at most {ceiling} (default 10000)",
        ceiling: Some(MAX_RINGS),
        read_by: &[Fleet],
        set: |o, a| a.at_most(a.positive()?).map(|v| o.rings = v),
    },
    Flag {
        syntax: "--ring-sizes S",
        help: "N | uniform:MIN..MAX | mix:a,b,c, each size at most {ceiling} (default \
               uniform:3..9); one shard of min(rings, {shard}) rings holds at most \
               {shard_nodes} nodes",
        ceiling: Some(MAX_N),
        read_by: &[Fleet],
        set: |o, a| {
            // `max_len` covers the `N` form, the `uniform:` max and every
            // `mix:` entry.
            o.ring_sizes = a.typed()?;
            a.at_most(o.ring_sizes.max_len() as u64)?;
            Ok(())
        },
    },
    Flag {
        syntax: "--fault-rate F",
        help: "P(one spurious CW pulse per ring), in 0..=1 (default 0)",
        ceiling: None,
        read_by: &[Fleet],
        set: |o, a| {
            o.fault_rate = a.number("a float")?;
            if !(0.0..=1.0).contains(&o.fault_rate) {
                return Err(err("--fault-rate must be in 0.0..=1.0"));
            }
            Ok(())
        },
    },
    Flag {
        syntax: "--rounds R",
        help: "rounds to run (default 1)",
        ceiling: None,
        read_by: &[Fleet],
        set: |o, a| a.positive().map(|v| o.rounds = v),
    },
    Flag {
        syntax: "--duration SECS",
        help: "run whole rounds until SECS elapse (overrides --rounds)",
        ceiling: None,
        read_by: &[Fleet],
        set: |o, a| {
            let secs: f64 = a.number("seconds (e.g. 10 or 2.5)")?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(err("--duration must be positive"));
            }
            o.duration_ms = Some((secs * 1000.0).ceil() as u64);
            Ok(())
        },
    },
    Flag {
        syntax: "--protocol P",
        help: "{protocols} (default alg2; fleet alg1, shrink ungated)",
        ceiling: None,
        read_by: &[Fleet, Record, Replay, Shrink, Explore],
        set: |o, a| ProtocolChoice::parse(a.text).map(|v| o.protocol = Some(v)),
    },
    Flag {
        syntax: "--schedule S",
        help: "the channel picks 'record' printed (required)",
        ceiling: None,
        read_by: &[Replay],
        set: |o, a| {
            // A pick in a `batch:` recording could stand for a whole fused
            // pulse run, so it cannot be replayed per pulse.
            if a.text.trim_start().starts_with("batch:") {
                return Err(err(
                    "batch-mode schedules ('batch:' prefix) are no longer supported: \
                     re-record the run with 'co-ring record'",
                ));
            }
            a.typed().map(|v| o.schedule = Some(v))
        },
    },
    Flag {
        syntax: "--max-configs N",
        help: "configuration cap (default 2000000)",
        ceiling: None,
        read_by: &[Explore],
        set: |o, a| a.number("an integer").map(|v| o.max_configs = v),
    },
    Flag {
        syntax: "--dedup B",
        help: "fingerprint backend: exact | mmap[:BUDGET], where mmap keeps the table in \
               files and BUDGET (e.g. 512M) is at most {budget} (default exact)",
        ceiling: None,
        read_by: &[Explore],
        // The refusal lists the backends, so a new one extends it.
        set: |o, a| a.typed().map(|v| o.dedup = v),
    },
    Flag {
        syntax: "--checkpoint PATH",
        help: "write a resumable checkpoint to PATH periodically and at the end of the run",
        ceiling: None,
        read_by: &[Explore],
        set: |o, a| a.typed().map(|path| o.checkpoint = Some(path)),
    },
    Flag {
        syntax: "--checkpoint-every N",
        help: "configurations between checkpoints (default 100000)",
        ceiling: None,
        read_by: &[Explore],
        set: |o, a| a.positive().map(|v| o.checkpoint_every = v),
    },
    Flag {
        syntax: "--resume PATH",
        help: "continue from a --checkpoint file (same protocol, IDs and dedup)",
        ceiling: None,
        read_by: &[Explore],
        set: |o, a| a.typed().map(|path| o.resume = Some(path)),
    },
    Flag {
        syntax: "--spill N",
        help: "spill frontier items beyond N per worker to disk (default 0 = off)",
        ceiling: None,
        read_by: &[Explore],
        set: |o, a| a.number("an integer (0 = off)").map(|v| o.spill = v),
    },
    Flag {
        syntax: "--scratch-dir DIR",
        help: "directory for mmap tables and spill files (default system temp dir)",
        ceiling: None,
        read_by: &[Explore],
        set: |o, a| a.typed().map(|path| o.scratch_dir = Some(path)),
    },
];

/// A flag's value as given, with the row that parses it.
struct Arg<'a> {
    flag: &'static Flag,
    text: &'a str,
}

impl Flag {
    /// The flag as typed.
    fn name(&self) -> &'static str {
        self.syntax.split(' ').next().unwrap_or(self.syntax)
    }

    /// Whether the flag takes a value (it is not a switch).
    fn takes_value(&self) -> bool {
        self.syntax.contains(' ')
    }
}

impl Arg<'_> {
    /// The value as a number, refused as "--flag must be `what`".
    fn number<T: FromStr>(&self, what: &str) -> Result<T, ParseError> {
        self.text
            .parse()
            .map_err(|_| err(format!("{} must be {what}", self.flag.name())))
    }

    /// The value as a positive integer.
    fn positive<T: FromStr + Default + PartialEq>(&self) -> Result<T, ParseError> {
        let value = self.number("a positive integer")?;
        if value == T::default() {
            return Err(err(format!("{} must be positive", self.flag.name())));
        }
        Ok(value)
    }

    /// The value as a `T`, refused as "bad --flag: <why>".
    fn typed<T: FromStr>(&self) -> Result<T, ParseError>
    where
        T::Err: fmt::Display,
    {
        self.text
            .parse()
            .map_err(|e| err(format!("bad {}: {e}", self.flag.name())))
    }

    /// `value`, if it is within the flag's ceiling.
    fn at_most(&self, value: u64) -> Result<u64, ParseError> {
        match self.flag.ceiling {
            Some(ceiling) if value > ceiling => Err(err(format!(
                "{} must be at most {ceiling}, got {value}",
                self.flag.name()
            ))),
            _ => Ok(value),
        }
    }
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
pub enum ParseError {
    /// A bad, missing or unknown argument.
    Invalid(String),
    /// A flag `co-ring` knows, given to a command that does not read it.
    NotRead {
        /// The command.
        command: String,
        /// The flag it does not read.
        flag: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Invalid(msg) => f.write_str(msg),
            ParseError::NotRead { command, flag } => {
                write!(f, "{command} does not read {flag}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError::Invalid(msg.into())
}

/// Every scheduler name: the adversaries of `SchedulerKind::ALL`, then
/// `latency`, which models the network rather than an adversary.
fn scheduler_names() -> Vec<String> {
    let mut names: Vec<String> = SchedulerKind::ALL.iter().map(ToString::to_string).collect();
    names.push(SchedulerKind::Latency.to_string());
    names
}

fn parse_scheduler(s: &str) -> Result<SchedulerKind, ParseError> {
    SchedulerKind::ALL
        .into_iter()
        .chain([SchedulerKind::Latency])
        .find(|k| k.to_string() == s)
        .ok_or_else(|| {
            err(format!(
                "unknown scheduler '{s}'; one of: {}",
                scheduler_names().join(", ")
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
        let mut args = args.into_iter();
        let mut opts = Opts::default();
        let Some(name) = args.next() else {
            return Ok(Cli {
                command: Help,
                opts,
            });
        };
        let name = name.as_ref();
        let command = match name {
            "--help" | "-h" => Help,
            _ => Command::ALL
                .into_iter()
                .find(|command| command.name() == name)
                .ok_or_else(|| err(format!("unknown command '{name}'; try 'help'")))?,
        };
        while let Some(given) = args.next() {
            let given = given.as_ref();
            let flag = FLAGS
                .iter()
                .find(|flag| flag.name() == given)
                .ok_or_else(|| err(format!("unknown flag '{given}'")))?;
            if !flag.read_by.contains(&command) {
                return Err(ParseError::NotRead {
                    command: name.to_owned(),
                    flag: given.to_owned(),
                });
            }
            let value = if flag.takes_value() {
                Some(
                    args.next()
                        .ok_or_else(|| err(format!("{given} requires a value")))?,
                )
            } else {
                None
            };
            let text = value.as_ref().map_or("", AsRef::as_ref);
            (flag.set)(&mut opts, &Arg { flag, text })?;
        }
        match command {
            Replay if opts.schedule.is_none() => return Err(err("replay requires --schedule")),
            Fleet => {
                // One shard holds every node of its rings at once.
                let shard_nodes = opts
                    .rings
                    .min(DEFAULT_SHARD_RINGS)
                    .saturating_mul(opts.ring_sizes.max_len() as u64);
                if shard_nodes > MAX_FLEET_SHARD_NODES {
                    return Err(err(format!(
                        "fleet: --rings and --ring-sizes put {shard_nodes} nodes in one \
                         shard; at most {MAX_FLEET_SHARD_NODES} are allowed"
                    )));
                }
            }
            _ => {}
        }
        Ok(Cli { command, opts })
    }
}

/// `text` broken at spaces into lines of at most `width` characters (a
/// longer word gets a line of its own).
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = vec![String::new()];
    for word in text.split(' ') {
        let line = lines.last_mut().expect("at least one line");
        if line.is_empty() {
            line.push_str(word);
        } else if line.chars().count() + 1 + word.chars().count() <= width {
            line.push(' ');
            line.push_str(word);
        } else {
            lines.push(word.to_owned());
        }
    }
    lines
}

/// The usage text printed by `co-ring help`, rendered from [`Command`]
/// and `FLAGS`. The `--protocol` list comes from the registry and the
/// `--scheduler` list from `SchedulerKind`, so both extend themselves.
#[must_use]
pub fn usage() -> String {
    let placeholders = [
        ("{schedulers}", scheduler_names().join(", ")),
        ("{protocols}", co_bench::protocols().names().join(", ")),
        ("{shard}", DEFAULT_SHARD_RINGS.to_string()),
        ("{shard_nodes}", MAX_FLEET_SHARD_NODES.to_string()),
        (
            "{budget}",
            format!("{}G", co_net::dedup::MMAP_MAX_BUDGET >> 30),
        ),
    ];
    let mut text = String::from(
        "co-ring — content-oblivious leader election on rings (DISC 2024)\n\n\
         USAGE: co-ring <COMMAND> [OPTIONS]\n\nCOMMANDS:\n",
    );
    for command in Command::ALL {
        text += &format!("  {:<11} {}\n", command.name(), command.about());
    }
    text += "\nOPTIONS (a command refuses one it does not read):\n";
    for flag in FLAGS {
        let ceiling = flag.ceiling.map_or_else(String::new, |c| c.to_string());
        let mut help = flag.help.replace("{ceiling}", &ceiling);
        for (key, value) in &placeholders {
            help = help.replace(key, value);
        }
        let readers: Vec<String> = flag.read_by.iter().map(|c| c.name()).collect();
        help += &format!(". Read by: {}.", readers.join(", "));
        for (i, line) in wrap(&help, 54).iter().enumerate() {
            let left = if i == 0 { flag.syntax } else { "" };
            text += &format!("  {left:<20}  {line}\n");
        }
    }
    text
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
        assert_eq!(cli.command, Elect);
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
        assert_eq!(cli.command, Orient);
        assert_eq!(cli.opts.scheme, IdScheme::Doubled);
    }

    #[test]
    fn parses_anonymous() {
        let cli =
            Cli::parse(["anonymous", "--n", "16", "--c", "2.0", "--trials", "50"]).expect("parses");
        assert_eq!(cli.command, Anonymous);
        assert_eq!((cli.opts.n, cli.opts.trials), (16, 50));
        assert!((cli.opts.c - 2.0).abs() < 1e-9);
        let cli = Cli::parse(["anonymous"]).expect("parses");
        assert_eq!((cli.opts.n, cli.opts.trials), (8, 100));
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
        assert_eq!(cli.command, Record);
        assert_eq!(cli.opts.protocol, Some(ProtocolChoice::named("alg1")));

        let cli = Cli::parse(["replay", "--schedule", "0,3,2"]).expect("parses");
        assert_eq!(cli.command, Replay);
        assert_eq!(cli.opts.protocol_or("alg2"), ProtocolChoice::named("alg2"));
        let schedule = cli.opts.schedule.expect("a schedule");
        assert_eq!(schedule.to_string(), "0,3,2");

        let cli = Cli::parse(["shrink"]).expect("parses");
        assert_eq!((cli.command, cli.opts.protocol), (Shrink, None));

        let cli = Cli::parse(["explore", "--protocol", "ungated", "--max-configs", "500"])
            .expect("parses");
        assert_eq!(cli.command, Explore);
        let o = &cli.opts;
        assert_eq!(o.protocol, Some(ProtocolChoice::named("ungated")));
        assert_eq!(
            (o.max_configs, o.jobs, o.dedup),
            (500, None, DedupKind::Exact)
        );
        assert_eq!((o.checkpoint_every, o.spill), (100_000, 0));
        assert_eq!(
            (&o.checkpoint, &o.resume, &o.scratch_dir),
            (&None, &None, &None)
        );

        let cli = Cli::parse(["explore", "--jobs", "8", "--dedup", "mmap"]).expect("parses");
        assert_eq!(cli.opts.max_configs, 2_000_000);
        assert_eq!(cli.opts.jobs, Some(8));
        assert_eq!(
            cli.opts.dedup,
            DedupKind::Mmap {
                budget: co_net::dedup::MMAP_DEFAULT_BUDGET,
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
        let o = &cli.opts;
        assert_eq!(
            o.dedup,
            DedupKind::Mmap {
                budget: 64 * 1024 * 1024
            }
        );
        assert_eq!(
            o.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/run.ck"))
        );
        assert_eq!(o.checkpoint_every, 5000);
        assert_eq!(o.resume, None);
        assert_eq!(o.spill, 100_000);
        assert_eq!(
            o.scratch_dir.as_deref(),
            Some(std::path::Path::new("/tmp/scratch"))
        );
        let cli = Cli::parse(["explore", "--resume", "run.ck"]).expect("parses");
        assert_eq!(
            cli.opts.resume.as_deref(),
            Some(std::path::Path::new("run.ck"))
        );
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
            let protocol = cli.opts.protocol.expect("a protocol");
            assert_eq!(protocol.to_string(), name);
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
    }

    #[test]
    fn parses_protocols_command() {
        let cli = Cli::parse(["protocols"]).expect("parses");
        assert_eq!(cli.command, Protocols);
        assert!(usage().contains("protocols"));
        assert!(usage().contains("chang-roberts"));
    }

    #[test]
    fn parses_fleet() {
        let cli = Cli::parse(["fleet"]).expect("parses");
        assert_eq!(cli.command, Fleet);
        let o = &cli.opts;
        assert_eq!(o.rings, 10_000);
        assert_eq!(o.ring_sizes, RingSizes::Uniform { min: 3, max: 9 });
        assert_eq!((o.protocol, o.jobs), (None, None));
        assert_eq!((o.fault_rate, o.rounds, o.duration_ms), (0.0, 1, None));

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
        let o = &cli.opts;
        assert_eq!(o.seed, 9);
        assert_eq!(o.rings, 500);
        assert_eq!(o.ring_sizes, RingSizes::Mix(vec![3, 5, 8]));
        assert_eq!(o.protocol, Some(ProtocolChoice::named("alg2")));
        assert!((o.fault_rate - 0.01).abs() < 1e-12);
        assert_eq!((o.rounds, o.duration_ms, o.jobs), (3, None, Some(4)));

        let cli = Cli::parse(["fleet", "--duration", "2.5"]).expect("parses");
        assert_eq!(cli.opts.duration_ms, Some(2500));

        assert!(Cli::parse(["fleet", "--rings", "0"]).is_err());
        assert!(Cli::parse(["fleet", "--fault-rate", "1.5"]).is_err());
        assert!(Cli::parse(["fleet", "--rounds", "0"]).is_err());
        assert!(Cli::parse(["fleet", "--duration", "-1"]).is_err());
        assert!(Cli::parse(["fleet", "--ring-sizes", "nope"]).is_err());
    }

    #[test]
    fn replay_requires_a_schedule() {
        assert!(Cli::parse(["replay"]).is_err());
        assert!(Cli::parse(["replay", "--schedule", "0,x"]).is_err());
        assert!(Cli::parse(["record", "--protocol", "bogus"]).is_err());
    }

    #[test]
    fn replay_reads_no_scheduler_or_seed() {
        // The replay engine delivers the recorded picks, so neither flag
        // could change a replay.
        for flag in ["--scheduler", "--seed"] {
            let e = Cli::parse(["replay", "--schedule", "0", flag, "1"]).unwrap_err();
            assert_eq!(e.to_string(), format!("replay does not read {flag}"));
        }
        let cli = Cli::parse([
            "replay",
            "--schedule",
            "0",
            "--latency",
            "fixed:2",
            "--latency-seed",
            "3",
        ])
        .expect("the latency plan shapes a replay");
        assert_eq!(
            cli.opts.latency_plan(),
            LatencyPlan::new(LatencyModel::Fixed(2), 3)
        );
    }

    #[test]
    fn batch_flag_is_unknown() {
        // The retired run-batching switch parses like any unknown flag.
        let flag = ["--", "batch"].concat();
        let e = Cli::parse(["elect", flag.as_str(), "on"]).unwrap_err();
        assert_eq!(e.to_string(), format!("unknown flag '{flag}'"));
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_refused() {
        let e = Cli::parse([
            "elect", "--n", "4", "--jobs", "4", "--rings", "5", "--dedup", "mmap",
        ])
        .unwrap_err();
        assert_eq!(
            e,
            ParseError::NotRead {
                command: "elect".into(),
                flag: "--jobs".into()
            }
        );
        assert_eq!(e.to_string(), "elect does not read --jobs");
        let e = Cli::parse(["help", "--json"]).unwrap_err();
        assert_eq!(e.to_string(), "help does not read --json");
    }

    #[test]
    fn every_command_refuses_every_flag_outside_its_row() {
        for command in Command::ALL {
            let name = command.name();
            for flag in FLAGS {
                let got = Cli::parse([name.as_str(), flag.name()]).err();
                if !flag.read_by.contains(&command) {
                    let refused = ParseError::NotRead {
                        command: name.clone(),
                        flag: flag.name().into(),
                    };
                    assert_eq!(got, Some(refused), "{name} {}", flag.syntax);
                } else if !flag.takes_value() {
                    // A switch takes no value; `replay` still wants its
                    // schedule.
                    let wants = (command == Replay).then(|| err("replay requires --schedule"));
                    assert_eq!(got, wants, "{name} {}", flag.syntax);
                } else {
                    // Without its value a flag fails only for wanting one.
                    let wants = err(format!("{} requires a value", flag.name()));
                    assert_eq!(got, Some(wants), "{name}");
                }
            }
        }
    }

    #[test]
    fn every_command_and_flag_is_declared_once() {
        let names: Vec<String> = Command::ALL.iter().map(|c| c.name()).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name}");
        }
        for (i, flag) in FLAGS.iter().enumerate() {
            let earlier = &FLAGS[..i];
            assert!(
                earlier.iter().all(|f| f.name() != flag.name()),
                "{}",
                flag.syntax
            );
            assert!(!flag.read_by.contains(&Help), "help reads no flag");
        }
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
        for flag in FLAGS {
            let Some(ceiling) = flag.ceiling else {
                continue;
            };
            // The ceiling is in the flag's own entry, before the next one.
            let entry = text
                .split_once(&format!("\n  {}", flag.syntax))
                .map(|(_, rest)| rest.split("\n  --").next().unwrap_or(rest))
                .unwrap_or_else(|| panic!("{} missing from help", flag.syntax));
            assert!(
                entry.contains(&format!("at most {ceiling}")),
                "{}: {entry}",
                flag.syntax
            );
            // The row's ceiling is the one its parser enforces.
            let reader = flag.read_by[0].name();
            let above = (ceiling + 1).to_string();
            let e = Cli::parse([reader.as_str(), flag.name(), &above]).unwrap_err();
            assert!(e.to_string().contains("must be at most"), "{e}");
        }
        // Limits that are not one flag's ceiling.
        for limit in [
            MAX_FLEET_SHARD_NODES.to_string(),
            format!("{}G", co_net::dedup::MMAP_MAX_BUDGET >> 30),
        ] {
            assert!(text.contains(&limit), "{limit} missing from help");
        }
        assert!(!text.contains('{'), "a placeholder is left: {text}");
    }

    #[test]
    fn help_lists_every_command_and_flag_with_its_readers() {
        let text = usage();
        for command in Command::ALL {
            let line = format!("  {:<11} {}\n", command.name(), command.about());
            assert!(text.contains(&line), "{command:?}");
        }
        // Flattened, the OPTIONS block holds each row's readers in order.
        let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for flag in FLAGS {
            let readers: Vec<String> = flag.read_by.iter().map(|c| c.name()).collect();
            let line = format!("Read by: {}.", readers.join(", "));
            assert!(flat.contains(&line), "{}: {line}", flag.syntax);
        }
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain([SchedulerKind::Latency])
        {
            assert!(text.contains(&kind.to_string()), "{kind}");
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
    fn empty_args_is_help() {
        let cli = Cli::parse(Vec::<String>::new()).expect("parses");
        assert_eq!(cli.command, Help);
        assert!(usage().contains("co-ring"));
    }
}
