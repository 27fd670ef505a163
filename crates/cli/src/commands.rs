//! Command implementations for `co-ring`.

use crate::args::{usage, Cli, Command, Opts};
use co_bench::protocols;
use co_compose::pipeline::elect_then_ring_size;
use co_core::anonymous::{success_rate, SamplingConfig};
use co_core::election::ElectionReport;
use co_core::lower_bound::solitude_pattern_alg2;
use co_core::registry::{Alg1Def, Alg2Def, Capability, ExploreError, RegistryError};
use co_core::runner::{self, RunOptions};
use co_core::Role;
use co_json::{array, object, Value};
use co_net::explore::{CheckpointPlan, ExploreCheckpoint, ExploreConfig, ExploreLimits};
use co_net::{shrink_schedule, RingSpec, RunReport, Schedule, SchedulerKind};

/// Output of a command: human text plus an optional JSON value.
#[derive(Clone, Debug)]
pub struct CommandOutput {
    /// Human-readable report.
    pub text: String,
    /// JSON document (pretty-printed when `--json`).
    pub json: Value,
    /// Process exit code.
    pub code: i32,
}

fn ok(text: String, json: Value) -> CommandOutput {
    CommandOutput {
        text,
        json,
        code: 0,
    }
}

fn election_json(report: &ElectionReport) -> Value {
    object([
        ("outcome", Value::from(report.outcome.to_string())),
        ("total_messages", Value::from(report.total_messages)),
        ("steps", Value::from(report.steps)),
        ("leader", Value::from(report.leader)),
        ("roles", array(report.roles.iter().map(ToString::to_string))),
        ("predicted_messages", Value::from(report.predicted_messages)),
    ])
}

/// Executes a parsed invocation and returns its output.
#[must_use]
pub fn run(cli: &Cli) -> CommandOutput {
    let opts = &cli.opts;
    match cli.command {
        Command::Elect => elect(opts),
        Command::Stabilize => stabilize(opts),
        Command::Orient => orient(opts),
        Command::Anonymous => anonymous(opts),
        Command::Compose => compose(opts),
        Command::Solitude => solitude(opts),
        Command::Baseline => baseline(opts),
        Command::Echo => echo(opts),
        Command::Fleet => fleet(opts),
        Command::Record => record(opts),
        Command::Replay => replay(opts),
        Command::Shrink => shrink(opts),
        Command::Explore => explore_cmd(opts),
        Command::Protocols => protocols_cmd(),
        Command::Help => ok(usage(), Value::Null),
    }
}

/// Renders a typed registry failure (unknown name / missing capability)
/// as an exit-code-1 output whose JSON mirrors the error variant.
fn registry_error(e: &RegistryError) -> CommandOutput {
    let json = match e {
        RegistryError::Unknown { name, known } => object([
            ("error", Value::from("unknown-protocol")),
            ("protocol", Value::from(name.clone())),
            ("known", array(known.iter().copied())),
        ]),
        RegistryError::Unsupported {
            name,
            capability,
            supported,
        } => object([
            ("error", Value::from("missing-capability")),
            ("protocol", Value::from(*name)),
            ("capability", Value::from(capability.to_string())),
            ("supported", array(supported.iter().copied())),
        ]),
    };
    CommandOutput {
        text: format!("error: {e}\n"),
        json,
        code: 1,
    }
}

fn run_options<B: Default>(opts: &Opts) -> RunOptions<B> {
    RunOptions {
        latency: opts.latency_plan(),
        ..RunOptions::new(opts.scheduler, opts.seed)
    }
}

/// A predicted message count, or a note that it exceeds a `u64` (and so
/// was not computed).
fn count(predicted: Option<u64>) -> String {
    predicted.map_or_else(|| "a count that exceeds u64".to_owned(), |p| p.to_string())
}

/// The ring's IDs as `--ids` takes them.
fn ids_value(opts: &Opts) -> String {
    let ids: Vec<String> = opts.ids.iter().map(ToString::to_string).collect();
    ids.join(",")
}

fn run_report_json(report: &RunReport) -> Value {
    object([
        ("outcome", Value::from(report.outcome.to_string())),
        ("steps", Value::from(report.steps)),
        ("total_sent", Value::from(report.total_sent)),
    ])
}

fn record(opts: &Opts) -> CommandOutput {
    let protocol = opts.protocol_or("alg2");
    let spec = RingSpec::oriented(opts.ids.clone());
    let rec = match protocol.spec().record(&spec, &run_options(opts)) {
        Ok(rec) => rec,
        Err(e) => return error("ids", e.to_string()),
    };
    let schedule = rec.picks;
    let text = format!(
        "{protocol} on {spec} under {} (seed {})\n\
         outcome: {} | deliveries: {} | pulses: {}\n\
         fingerprint: {:016x} | leaders: {:?}\n\
         schedule ({} picks, feed to `replay --schedule`):\n{schedule}\n",
        opts.scheduler,
        opts.seed,
        rec.report.outcome,
        rec.report.steps,
        rec.report.total_sent,
        rec.fingerprint,
        rec.leaders,
        schedule.len(),
    );
    let json = object([
        ("protocol", Value::from(protocol.to_string())),
        ("scheduler", Value::from(opts.scheduler.to_string())),
        ("seed", Value::from(opts.seed)),
        ("report", run_report_json(&rec.report)),
        ("fingerprint", Value::from(rec.fingerprint)),
        ("leaders", array(rec.leaders.iter().copied())),
        ("schedule", Value::from(schedule.to_string())),
    ]);
    ok(text, json)
}

fn replay(opts: &Opts) -> CommandOutput {
    // `replay` reads no `--scheduler` or `--seed`: the replay engine
    // delivers the recorded picks. The latency plan still counts:
    // timestamps shape the trace, so a replay must run under the same
    // `--latency`/`--latency-seed` as the recording.
    let protocol = opts.protocol_or("alg2");
    let schedule = opts
        .schedule
        .as_ref()
        .expect("Cli::parse refuses a replay without --schedule");
    let spec = RingSpec::oriented(opts.ids.clone());
    let rep = match protocol.spec().replay(&spec, &run_options(opts), schedule) {
        Ok(rep) => rep,
        Err(e) => return error("ids", e.to_string()),
    };
    let text = format!(
        "replaying {} picks of {protocol} on {spec} (deterministic)\n\
         outcome: {} | deliveries: {} | pulses: {}\n\
         fingerprint: {:016x} | leaders: {:?}\n",
        schedule.len(),
        rep.report.outcome,
        rep.report.steps,
        rep.report.total_sent,
        rep.fingerprint,
        rep.leaders,
    );
    let json = object([
        ("protocol", Value::from(protocol.to_string())),
        ("schedule_len", Value::from(schedule.len())),
        ("report", run_report_json(&rep.report)),
        ("fingerprint", Value::from(rep.fingerprint)),
        ("leaders", array(rep.leaders.iter().copied())),
    ]);
    ok(text, json)
}

fn shrink(opts: &Opts) -> CommandOutput {
    // The broken ablation is the interesting shrink target.
    let protocol = opts.protocol_or("ungated");
    let driver = match protocols().shrink(protocol.name()) {
        Ok(driver) => driver,
        Err(e) => return registry_error(&e),
    };
    let spec = RingSpec::oriented(opts.ids.clone());
    let violates = |schedule: &Schedule| driver.violates(&spec, schedule);

    // Hunt for a monitor-violating recorded schedule across the adversary
    // matrix; the broken ablation yields one quickly, the correct protocols
    // never do.
    let mut found: Option<(SchedulerKind, u64, Schedule)> = None;
    'hunt: for kind in SchedulerKind::ALL {
        for seed in opts.seed..opts.seed + 16 {
            if let Some(schedule) = driver.hunt(&spec, kind, seed) {
                found = Some((kind, seed, schedule));
                break 'hunt;
            }
        }
    }

    let Some((kind, seed, original)) = found else {
        let text = format!(
            "no invariant violation found for {protocol} on {spec} \
             (all schedulers, seeds {}..{})\n",
            opts.seed,
            opts.seed + 16
        );
        let json = object([
            ("protocol", Value::from(protocol.to_string())),
            ("violation_found", Value::from(false)),
        ]);
        return ok(text, json);
    };

    let shrunk = shrink_schedule(&original, violates);
    debug_assert!(violates(&shrunk), "ddmin must preserve the failure");
    let text = format!(
        "{protocol} on {spec}: invariant violation under {kind} (seed {seed})\n\
         recorded schedule: {} picks\n\
         shrunk (1-minimal): {} picks\n\
         replay with:\n  co-ring replay --protocol {protocol} --ids {} --schedule {shrunk}\n",
        original.len(),
        shrunk.len(),
        ids_value(opts),
    );
    let json = object([
        ("protocol", Value::from(protocol.to_string())),
        ("violation_found", Value::from(true)),
        ("scheduler", Value::from(kind.to_string())),
        ("seed", Value::from(seed)),
        ("original_len", Value::from(original.len())),
        ("shrunk_len", Value::from(shrunk.len())),
        ("shrunk_schedule", Value::from(shrunk.to_string())),
    ]);
    ok(text, json)
}

/// A refused run (exit 1): `error: message` as text, and as JSON an
/// object naming the kind of error (`ids` for a ring the protocol cannot
/// build nodes from).
fn error(kind: &str, message: String) -> CommandOutput {
    CommandOutput {
        text: format!("error: {message}\n"),
        json: object([
            ("error", Value::from(kind)),
            ("message", Value::from(message)),
        ]),
        code: 1,
    }
}

/// Checks that explore can create its scratch subdirectories (mmap tables,
/// spill files) under `dir` (`None` = the system temp dir), the way the
/// explorer will: `create_dir_all` of a fresh child, removed again here.
fn check_scratch_dir(dir: Option<&std::path::Path>) -> Result<(), String> {
    let root = dir.map_or_else(std::env::temp_dir, std::path::Path::to_path_buf);
    let probe = root.join(format!("co-ring-probe-{}", std::process::id()));
    std::fs::create_dir_all(&probe)
        .and_then(|()| std::fs::remove_dir(&probe))
        .map_err(|e| format!("scratch directory {}: {e}", root.display()))
}

fn explore_cmd(opts: &Opts) -> CommandOutput {
    let protocol = opts.protocol_or("alg2");
    let driver = match protocols().explore(protocol.name()) {
        Ok(driver) => driver,
        Err(e) => return registry_error(&e),
    };
    let spec = RingSpec::oriented(opts.ids.clone());
    // Instance identity stored in (and checked against) checkpoints: a
    // checkpoint resumes the *same* exploration, so the protocol, ring,
    // and dedup backend must all match.
    let meta = format!(
        "co-ring explore v1|{protocol}|{}|{}",
        ids_value(opts),
        opts.dedup
    );
    let resume = match &opts.resume {
        None => None,
        Some(path) => match ExploreCheckpoint::read(path) {
            Ok(ck) => {
                if ck.meta != meta.as_bytes() {
                    return error(
                        "explore",
                        format!(
                            "checkpoint {} was written for '{}', this run is '{meta}'; \
                             pass the same --protocol/--ids/--dedup to resume",
                            path.display(),
                            String::from_utf8_lossy(&ck.meta),
                        ),
                    );
                }
                Some(ck)
            }
            Err(e) => return error("explore", e),
        },
    };
    // The explorer treats a scratch directory it cannot write as a bug;
    // catch a bad `--scratch-dir` here, before any work.
    if matches!(opts.dedup, co_net::DedupKind::Mmap { .. }) || opts.spill > 0 {
        if let Err(e) = check_scratch_dir(opts.scratch_dir.as_deref()) {
            return error("explore", e);
        }
    }
    let config = ExploreConfig {
        limits: ExploreLimits {
            max_configs: opts.max_configs,
            ..ExploreLimits::default()
        },
        jobs: opts.jobs.unwrap_or(1),
        dedup: opts.dedup,
        spill_high_water: opts.spill,
        scratch_dir: opts.scratch_dir.clone(),
        checkpoint: opts.checkpoint.as_ref().map(|path| CheckpointPlan {
            path: path.clone(),
            every: opts.checkpoint_every,
            meta: meta.clone().into_bytes(),
        }),
        resume,
        ..ExploreConfig::default()
    };
    let report = match driver.try_run(&spec, &config) {
        Ok(report) => report,
        Err(ExploreError::Resume(e)) => {
            let ck = opts.resume.as_ref().expect("only a resumed run is refused");
            return error("explore", format!("{}: {e}", ck.display()));
        }
        Err(ExploreError::Ids(e)) => return error("explore", e.to_string()),
    };
    // Two or more workers spill and pause for checkpoints where their
    // hand-offs happen to leave them, so these two counts vary run to run.
    let scheduled = if config.jobs == 1 {
        ""
    } else {
        " (varies with worker scheduling)"
    };
    let mut text = format!(
        "exhaustive exploration of {protocol} on {spec}\n\
         workers: {} | dedup: {}\n\
         configurations: {} ({} quiescent) | complete: {}\n\
         dedup index: {} bytes ({} heap + {} file)\n\
         spilled frontier items: {} | checkpoints written: {}{scheduled}\n\
         violations: {}\n",
        config.jobs,
        config.dedup,
        report.configs,
        report.quiescent_configs,
        report.complete,
        report.visited_bytes,
        report.visited_heap_bytes,
        report.visited_file_bytes,
        report.spilled_jobs,
        report.checkpoints_written,
        report.violations.len(),
    );
    for v in &report.violations {
        text.push_str(&format!("  {v}\n"));
    }
    let json = object([
        ("protocol", Value::from(protocol.to_string())),
        ("jobs", Value::from(config.jobs)),
        ("dedup", Value::from(config.dedup.to_string())),
        ("configs", Value::from(report.configs)),
        ("quiescent_configs", Value::from(report.quiescent_configs)),
        ("complete", Value::from(report.complete)),
        ("visited_bytes", Value::from(report.visited_bytes)),
        ("visited_heap_bytes", Value::from(report.visited_heap_bytes)),
        ("visited_file_bytes", Value::from(report.visited_file_bytes)),
        ("spilled_jobs", Value::from(report.spilled_jobs)),
        (
            "checkpoints_written",
            Value::from(report.checkpoints_written),
        ),
        ("violations", Value::from(report.violations.len())),
        (
            "violation_messages",
            array(report.violations.iter().map(String::as_str)),
        ),
    ]);
    // A broken claim is the run's finding, not a refused input (exit 1).
    let code = if report.violations.is_empty() { 0 } else { 2 };
    CommandOutput { text, json, code }
}

/// Prints the protocol registry: every entry's name, layer and capability
/// column, exactly as rendered by [`co_core::registry::Registry::table`].
/// The README's protocol table is generated from this output, and CI greps
/// it as a smoke check that the registry spans both layers.
fn protocols_cmd() -> CommandOutput {
    let reg = protocols();
    let docs: Vec<Value> = reg
        .entries()
        .iter()
        .map(|entry| {
            object([
                ("name", Value::from(entry.name())),
                ("layer", Value::from(entry.layer())),
                ("summary", Value::from(entry.summary())),
                (
                    "capabilities",
                    array(
                        Capability::ALL
                            .iter()
                            .filter(|c| entry.supports(**c))
                            .map(|c| c.to_string()),
                    ),
                ),
            ])
        })
        .collect();
    ok(reg.table(), array(docs))
}

fn describe_roles(spec: &RingSpec, roles: &[Role]) -> String {
    roles
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mark = if *r == Role::Leader {
                " <== leader"
            } else {
                ""
            };
            format!("  node {i} (ID {:>3}): {r}{mark}\n", spec.id(i))
        })
        .collect()
}

/// Runs the fleet harness: `--rounds` rounds of `--rings` independent ring
/// elections (or whole rounds until `--duration` elapses), streaming one
/// cumulative progress line per round to stderr and returning the merged
/// aggregate report. The report is deterministic — a pure function of
/// `(seed, rings, sizes, fault_rate, protocol, rounds)`, independent of
/// `--jobs` — while the throughput line is wall-clock.
fn fleet(opts: &Opts) -> CommandOutput {
    use std::time::{Duration, Instant};

    let protocol = opts.protocol_or("alg1");
    // Fleet is a throughput harness: one worker per core unless told
    // otherwise (the aggregate report is jobs-invariant).
    let jobs = opts.jobs.unwrap_or(0);
    let (rings, sizes, fault_rate) = (opts.rings, &opts.ring_sizes, opts.fault_rate);
    // The one capability gate: a protocol without `Capability::Fleet` is
    // refused here, with the typed error `explore` and `shrink` give.
    let driver = match protocols().fleet(protocol.name()) {
        Ok(driver) => driver,
        Err(e) => return registry_error(&e),
    };

    let mut cfg = co_net::fleet::FleetConfig::new(rings);
    cfg.sizes = sizes.clone();
    cfg.seed = opts.seed;
    cfg.fault_rate = fault_rate;

    let start = Instant::now();
    let mut report = co_net::fleet::FleetReport::new();
    let mut round = 0u64;
    loop {
        report.merge(&co_bench::run_fleet_round(&cfg, driver, round, jobs));
        round += 1;
        let elapsed = start.elapsed();
        let secs = elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "round {round}: {} rings, {} elections, {} pulses, {:.0} elections/sec",
            report.rings,
            report.elections,
            report.total_pulses,
            report.elections as f64 / secs,
        );
        let done = match opts.duration_ms {
            Some(ms) => elapsed >= Duration::from_millis(ms),
            None => round >= opts.rounds,
        };
        if done {
            break;
        }
    }
    let summary = co_bench::FleetRunSummary {
        report,
        rounds: round,
        elapsed: start.elapsed(),
    };

    let report = &summary.report;
    let text = format!(
        "fleet: {rings} × {sizes} rings/round under {protocol} (fault rate {fault_rate}, \
         seed {}, jobs {jobs})\n{}",
        opts.seed,
        summary.render(),
    );
    let json = object([
        ("protocol", Value::from(protocol.to_string())),
        ("rings", Value::from(report.rings)),
        ("nodes", Value::from(report.nodes)),
        ("sizes", Value::from(sizes.to_string())),
        ("fault_rate", Value::Float(fault_rate)),
        ("seed", Value::from(opts.seed)),
        ("rounds", Value::from(summary.rounds)),
        ("elections", Value::from(report.elections)),
        (
            "quiescent_terminated",
            Value::from(report.quiescent_terminated),
        ),
        ("quiescent", Value::from(report.quiescent)),
        (
            "terminated_nonquiescent",
            Value::from(report.terminated_nonquiescent),
        ),
        ("budget_exhausted", Value::from(report.budget_exhausted)),
        ("total_pulses", Value::from(report.total_pulses)),
        ("total_sent", Value::from(report.total_sent)),
        ("faults_injected", Value::from(report.faults_injected)),
        (
            "peak_ring_queue_bytes",
            Value::from(report.peak_ring_queue_bytes),
        ),
        ("p50_pulses_to_quiescence", Value::from(report.p50())),
        ("p99_pulses_to_quiescence", Value::from(report.p99())),
        (
            "elapsed_ms",
            Value::from(summary.elapsed.as_millis() as u64),
        ),
        (
            "elections_per_sec",
            Value::Float(summary.elections_per_sec()),
        ),
    ]);
    ok(text, json)
}

fn elect(opts: &Opts) -> CommandOutput {
    let spec = RingSpec::oriented(opts.ids.clone());
    let report = runner::run::<Alg2Def>(&spec, &run_options(opts));
    let text = format!(
        "Algorithm 2 on {spec} under {} (seed {})\noutcome: {}\n{}pulses: {} (Theorem 1 predicts {})\n",
        opts.scheduler,
        opts.seed,
        report.outcome,
        describe_roles(&spec, &report.roles),
        report.total_messages,
        count(report.predicted_messages),
    );
    ok(text, election_json(&report))
}

fn stabilize(opts: &Opts) -> CommandOutput {
    let spec = RingSpec::oriented(opts.ids.clone());
    let report = runner::run::<Alg1Def>(&spec, &run_options(opts));
    let text = format!(
        "Algorithm 1 on {spec} under {} (seed {})\noutcome: {} (stabilizing: nodes never terminate)\n{}pulses: {} (Corollary 13 predicts {})\n",
        opts.scheduler,
        opts.seed,
        report.outcome,
        describe_roles(&spec, &report.roles),
        report.total_messages,
        count(report.predicted_messages),
    );
    ok(text, election_json(&report))
}

fn orient(opts: &Opts) -> CommandOutput {
    let scheme = opts.scheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let spec = RingSpec::random_flips(opts.ids.clone(), &mut rng);
    let out = match runner::run_alg3(&spec, scheme, &run_options(opts)) {
        Ok(out) => out,
        Err(e) => return error("virtual-id-overflow", e.to_string()),
    };
    let ports: String = out
        .cw_ports
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "  node {i}: claims CW = {}\n",
                p.map_or("undecided".to_owned(), |p| p.to_string())
            )
        })
        .collect();
    let text = format!(
        "Algorithm 3 ({scheme}) on {spec}\noutcome: {}\n{}{}orientation consistent: {}\npulses: {} (predicted {})\n",
        out.report.outcome,
        describe_roles(&spec, &out.report.roles),
        ports,
        out.orientation_consistent,
        out.report.total_messages,
        count(out.report.predicted_messages),
    );
    let json = object([
        ("report", election_json(&out.report)),
        (
            "cw_ports",
            array(out.cw_ports.iter().map(|p| p.map(|p| p.index()))),
        ),
        (
            "orientation_consistent",
            Value::from(out.orientation_consistent),
        ),
    ]);
    ok(text, json)
}

fn anonymous(opts: &Opts) -> CommandOutput {
    let (n, c, trials) = (opts.n, opts.c, opts.trials);
    // 16-bit cap keeps the heavy geometric tail simulatable interactively;
    // see SamplingConfig::max_bits for the (documented) deviation.
    let cfg = SamplingConfig::new(c).with_max_bits(16);
    let stats = success_rate(n, &cfg, &run_options(opts), trials);
    let text = format!(
        "Anonymous ring n={n}, c={c}, {trials} trials (Theorem 3)\n\
         success:     {:.1}% (failures are exactly tied maxima)\n\
         unique max:  {:.1}%\n\
         mean ID_max: {:.1}   largest ID_max: {}\n\
         max pulses:  {}\n",
        100.0 * stats.rate(),
        100.0 * stats.unique_max as f64 / trials as f64,
        stats.mean_id_max,
        stats.max_id_max,
        stats.max_messages,
    );
    let json = object([
        ("trials", Value::from(stats.trials)),
        ("successes", Value::from(stats.successes)),
        ("unique_max", Value::from(stats.unique_max)),
        ("mean_id_max", Value::from(stats.mean_id_max)),
        ("max_id_max", Value::from(stats.max_id_max)),
        ("max_messages", Value::from(stats.max_messages)),
    ]);
    ok(text, json)
}

fn compose(opts: &Opts) -> CommandOutput {
    let spec = RingSpec::oriented(opts.ids.clone());
    let out = elect_then_ring_size(&spec, &run_options(opts));
    let json = object([
        (
            "quiescently_terminated",
            Value::from(out.quiescently_terminated),
        ),
        ("leader", Value::from(out.leader)),
        ("ring_size_answers", Value::from(out.outputs.clone())),
        ("total_messages", Value::from(out.total_messages)),
        ("election_messages", Value::from(out.election_messages)),
    ]);
    let text = format!(
        "Corollary 5 on {spec}: elect (Algorithm 2), then every node computes n\n\
         quiescent termination: {}\nleader: position {:?}\n\
         answers: {:?}\npulses: {} total ({} for the election)\n",
        out.quiescently_terminated,
        out.leader,
        out.outputs,
        out.total_messages,
        count(out.election_messages),
    );
    ok(text, json)
}

fn solitude(opts: &Opts) -> CommandOutput {
    let max_id = opts.max_id;
    struct PatternRow {
        id: u64,
        pattern: String,
        length: usize,
    }
    let rows: Vec<PatternRow> = (1..=max_id)
        .map(|id| {
            let p = solitude_pattern_alg2(id).expect("Algorithm 2 terminates in solitude");
            PatternRow {
                id,
                length: p.len(),
                pattern: p.to_string(),
            }
        })
        .collect();
    let mut text = format!("Solitude patterns of Algorithm 2 (Definition 21), IDs 1..={max_id}\n");
    for r in &rows {
        text.push_str(&format!(
            "  ID {:>4}: {} (len {})\n",
            r.id, r.pattern, r.length
        ));
    }
    text.push_str("All patterns are pairwise distinct (Lemma 22).\n");
    let json = Value::Array(
        rows.iter()
            .map(|r| {
                object([
                    ("id", Value::from(r.id)),
                    ("pattern", Value::from(r.pattern.clone())),
                    ("length", Value::from(r.length)),
                ])
            })
            .collect(),
    );
    ok(text, json)
}

fn baseline(opts: &Opts) -> CommandOutput {
    let which = opts.algo;
    let spec = RingSpec::oriented(opts.ids.clone());
    let report = which.run(&spec, &run_options(opts));
    let text = format!(
        "{which} (content-carrying baseline) on {spec}\noutcome: {}\n{}messages: {}\n\
         NOTE: this algorithm reads message content and cannot run on\n\
         defective channels; see `co-ring elect` for the content-oblivious one.\n",
        report.outcome,
        describe_roles(&spec, &report.roles),
        report.total_messages,
    );
    ok(text, election_json(&report))
}

fn echo(opts: &Opts) -> CommandOutput {
    use co_core::general::{EchoNode, EchoState};
    use co_net::multiport::{GraphSim, GraphWiring};
    use co_net::{Budget, Pulse};

    let (graph, root) = (&opts.graph, opts.root);
    let g = graph.build();
    let n = g.vertex_count();
    if root >= n {
        return CommandOutput {
            text: format!("error: --root {root} out of range for {n} nodes\n"),
            json: Value::Null,
            code: 1,
        };
    }
    let wiring = GraphWiring::from_graph(&g);
    let nodes = (0..n).map(|v| EchoNode::new(v == root)).collect();
    let mut sim: GraphSim<Pulse, EchoNode> =
        GraphSim::new(wiring, nodes, opts.scheduler.build(opts.seed));
    let report = sim.run(Budget::steps(10_000_000));
    let done = (0..n)
        .filter(|&v| sim.node(v).state() == EchoState::Done)
        .count();

    let json = object([
        ("nodes", Value::from(n)),
        ("edges", Value::from(g.edge_count())),
        ("two_edge_connected", Value::from(g.is_two_edge_connected())),
        ("bridges", Value::from(g.bridges())),
        ("outcome", Value::from(report.outcome.to_string())),
        ("pulses", Value::from(report.total_sent)),
        ("nodes_done", Value::from(done)),
    ]);
    let text = format!(
        "flood-echo wave on {graph:?} (root {root}) under {}\n\
         n = {n}, m = {}, 2-edge-connected = {} (bridges: {:?})\n\
         outcome: {} | pulses: {} (2m = {}) | nodes done: {done}/{n}\n",
        opts.scheduler,
        g.edge_count(),
        g.is_two_edge_connected(),
        g.bridges(),
        report.outcome,
        report.total_sent,
        2 * g.edge_count(),
    );
    ok(text, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn run_line(line: &[&str]) -> CommandOutput {
        run(&Cli::parse(line.iter().copied()).expect("parses"))
    }

    #[test]
    fn elect_reports_theorem1() {
        let out = run_line(&["elect", "--ids", "3,9,5", "--scheduler", "fifo"]);
        assert_eq!(out.code, 0);
        assert!(out.text.contains("quiescent termination"));
        assert!(out.text.contains("57")); // 3 * (2*9 + 1)
        assert!(out.json.get("total_messages").is_some());
    }

    #[test]
    fn stabilize_reports_quiescence() {
        let out = run_line(&["stabilize", "--n", "4", "--scheduler", "fifo"]);
        assert!(out.text.contains("quiescence without termination"));
        assert!(out.text.contains("16")); // 4 * ID_max(4)
    }

    #[test]
    fn orient_reports_consistency() {
        let out = run_line(&["orient", "--ids", "2,8,5", "--seed", "3"]);
        assert!(out.text.contains("orientation consistent: true"));
    }

    #[test]
    fn anonymous_reports_rates() {
        let out = run_line(&[
            "anonymous",
            "--n",
            "6",
            "--trials",
            "10",
            "--c",
            "0.5",
            "--seed",
            "1",
        ]);
        assert!(out.text.contains("success"));
    }

    #[test]
    fn compose_reports_ring_size() {
        let out = run_line(&["compose", "--n", "5", "--scheduler", "fifo"]);
        assert!(out.text.contains("Some(5)"));
    }

    #[test]
    fn solitude_prints_patterns() {
        let out = run_line(&["solitude", "--max-id", "3"]);
        assert!(out.text.contains("0001111"));
    }

    #[test]
    fn baseline_runs() {
        let out = run_line(&["baseline", "--algo", "hs", "--n", "6"]);
        assert!(out.text.contains("hirschberg-sinclair"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line(&["help"]);
        assert!(out.text.contains("USAGE"));
    }

    #[test]
    fn fleet_reports_aggregates() {
        let out = run_line(&[
            "fleet",
            "--rings",
            "200",
            "--ring-sizes",
            "4",
            "--protocol",
            "alg2",
            "--jobs",
            "2",
        ]);
        assert_eq!(out.code, 0);
        assert!(out.text.contains("200 × 4 rings/round under alg2"));
        // Clean fixed-size fleet: every ring elects, Theorem 1 pulse count.
        assert!(out.text.contains("elections/sec"));
        assert_eq!(out.json.get("elections").and_then(Value::as_u64), Some(200));
        assert_eq!(
            out.json.get("total_sent").and_then(Value::as_u64),
            Some(200 * 4 * (2 * 4 + 1))
        );
    }

    #[test]
    fn fleet_output_is_jobs_invariant() {
        let args = |jobs: &'static str| {
            vec![
                "fleet",
                "--rings",
                "150",
                "--ring-sizes",
                "uniform:3..7",
                "--fault-rate",
                "0.05",
                "--rounds",
                "2",
                "--seed",
                "11",
                "--jobs",
                jobs,
            ]
        };
        let a = run_line(&args("1"));
        let b = run_line(&args("4"));
        // Wall-clock keys differ; every deterministic key must not.
        for key in [
            "elections",
            "total_pulses",
            "total_sent",
            "faults_injected",
            "budget_exhausted",
            "peak_ring_queue_bytes",
            "p50_pulses_to_quiescence",
            "p99_pulses_to_quiescence",
        ] {
            assert_eq!(
                a.json.get(key).and_then(Value::as_u64),
                b.json.get(key).and_then(Value::as_u64),
                "{key}"
            );
        }
    }

    #[test]
    fn echo_runs_on_graphs() {
        let out = run_line(&["echo", "--graph", "complete:5", "--root", "2"]);
        assert!(out.text.contains("pulses: 20 (2m = 20)"));
        assert!(out.text.contains("nodes done: 5/5"));
        let out = run_line(&["echo", "--graph", "path:4"]);
        assert!(out.text.contains("2-edge-connected = false"));
        assert!(out.text.contains("nodes done: 4/4"));
    }

    #[test]
    fn record_then_replay_round_trips() {
        let rec = run_line(&[
            "record",
            "--ids",
            "2,3,1",
            "--scheduler",
            "random",
            "--seed",
            "5",
        ]);
        assert_eq!(rec.code, 0);
        let schedule = rec.json.get("schedule").expect("schedule in JSON");
        let Value::Str(schedule) = schedule else {
            panic!("schedule should be a string")
        };
        let rep = run_line(&["replay", "--ids", "2,3,1", "--schedule", schedule]);
        assert_eq!(rep.code, 0);
        // The replay delivers exactly the recorded picks.
        assert!(rep.text.contains("quiescent termination"));
        assert_eq!(
            rec.json.get("report").and_then(|r| r.get("total_sent")),
            rep.json.get("report").and_then(|r| r.get("total_sent")),
        );
    }

    #[test]
    fn latency_record_then_replay_round_trips() {
        // `replay` reads no scheduler: it delivers the recorded picks.
        fn line<'a>(cmd: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
            let mut v = vec![
                cmd,
                "--ids",
                "2,3,1",
                "--latency",
                "uniform:1..9",
                "--latency-seed",
                "7",
            ];
            v.extend_from_slice(extra);
            v
        }
        let rec = run_line(&line("record", &["--scheduler", "latency"]));
        assert_eq!(rec.code, 0);
        let Some(Value::Str(schedule)) = rec.json.get("schedule") else {
            panic!("schedule should be a string")
        };
        let rep = run_line(&line("replay", &["--schedule", schedule]));
        assert_eq!(rep.code, 0);
        assert_eq!(
            rec.json.get("report").and_then(|r| r.get("total_sent")),
            rep.json.get("report").and_then(|r| r.get("total_sent")),
        );
        // Same flags, same bytes: recording again is deterministic.
        let rec2 = run_line(&line("record", &["--scheduler", "latency"]));
        assert_eq!(rec.json.get("schedule"), rec2.json.get("schedule"));
    }

    #[test]
    fn elect_accepts_latency_flags() {
        let out = run_line(&[
            "elect",
            "--ids",
            "3,9,5",
            "--latency",
            "fixed:4",
            "--latency-seed",
            "2",
        ]);
        assert_eq!(out.code, 0);
        assert!(out.text.contains("quiescent termination"));
        assert!(out.text.contains("57")); // latency never changes Theorem 1
    }

    #[test]
    fn shrink_minimizes_the_ungated_ablation() {
        let out = run_line(&["shrink", "--ids", "1,2,3"]);
        assert_eq!(out.code, 0);
        assert_eq!(out.json.get("violation_found"), Some(&Value::Bool(true)));
        let orig = out.json.get("original_len").expect("original_len");
        let shrunk = out.json.get("shrunk_len").expect("shrunk_len");
        let (Value::UInt(orig), Value::UInt(shrunk)) = (orig, shrunk) else {
            panic!("lengths should be numbers")
        };
        assert!(shrunk <= orig, "shrunk schedule may not grow");
    }

    #[test]
    fn shrink_finds_nothing_on_the_real_algorithm() {
        let out = run_line(&["shrink", "--protocol", "alg2", "--ids", "1,2"]);
        assert_eq!(out.code, 0);
        assert_eq!(out.json.get("violation_found"), Some(&Value::Bool(false)));
    }

    #[test]
    fn shrink_rejects_protocols_without_ccw_counters() {
        let out = run_line(&["shrink", "--protocol", "alg1"]);
        assert_eq!(out.code, 1);
    }

    #[test]
    fn explore_counts_configurations() {
        let out = run_line(&["explore", "--ids", "1,2"]);
        assert_eq!(out.code, 0);
        assert_eq!(out.json.get("complete"), Some(&Value::Bool(true)));
        let Some(Value::UInt(configs)) = out.json.get("configs") else {
            panic!("configs should be a number")
        };
        assert!(*configs > 1);
        let out = run_line(&["explore", "--ids", "1,2", "--max-configs", "2"]);
        assert_eq!(out.json.get("complete"), Some(&Value::Bool(false)));
    }

    #[test]
    fn explore_exits_2_when_a_claim_breaks() {
        let out = run_line(&["explore", "--protocol", "ungated", "--n", "4"]);
        assert_eq!(out.code, 2, "{}", out.text);
        assert!(out.text.contains("Theorem 1"), "{}", out.text);
        let Some(Value::Array(messages)) = out.json.get("violation_messages") else {
            panic!("violation_messages should be an array")
        };
        assert!(!messages.is_empty());
        assert_eq!(
            out.json.get("violations"),
            Some(&Value::from(messages.len()))
        );
        for args in [
            ["--protocol", "alg1", "--n", "4"],
            ["--protocol", "alg2", "--n", "4"],
            ["--protocol", "alg3", "--n", "3"],
        ] {
            let out = run_line(&[&["explore"], &args[..]].concat());
            assert_eq!(out.code, 0, "{args:?}: {}", out.text);
            assert!(out.text.contains("violations: 0\n"), "{}", out.text);
            assert_eq!(
                out.json.get("violation_messages"),
                Some(&Value::Array(vec![]))
            );
        }
    }

    #[test]
    fn explore_accepts_the_largest_max_configs() {
        let out = run_line(&[
            "explore",
            "--n",
            "4",
            "--max-configs",
            "18446744073709551615",
        ]);
        assert_eq!(out.code, 0, "{}", out.text);
        assert_eq!(out.json.get("complete"), Some(&Value::Bool(true)));
    }

    #[test]
    fn explore_text_repeats_at_any_jobs_apart_from_labelled_lines() {
        const LABEL: &str = " (varies with worker scheduling)";
        let dir = std::env::temp_dir().join(format!("co-ring-cli-jobs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let scratch = dir.to_string_lossy().into_owned();
        let ck = dir.join("run.ck").to_string_lossy().into_owned();
        let text = |jobs: &str| {
            let out = run_line(&[
                "explore",
                "--protocol",
                "alg2",
                "--ids",
                "3,5,2,4,1,6,7",
                "--jobs",
                jobs,
                "--spill",
                "64",
                "--scratch-dir",
                &scratch,
                "--checkpoint",
                &ck,
                "--checkpoint-every",
                "1000",
            ]);
            assert_eq!(out.code, 0, "{}", out.text);
            out.text
        };
        // Drops the `workers:` line and the spill and checkpoint counts,
        // which must carry the label exactly when two workers ran.
        let repeatable = |text: String, labelled: bool| {
            text.lines()
                .filter(|line| !line.starts_with("workers:"))
                .filter(|line| {
                    let counts = line.starts_with("spilled frontier items:");
                    assert_eq!(counts && labelled, line.ends_with(LABEL), "{line}");
                    !counts
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = repeatable(text("1"), false);
        let two = repeatable(text("2"), true);
        let again = repeatable(text("2"), true);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(two, again);
        assert_eq!(two, one);
        assert!(one.contains("configurations: 20357"), "{one}");
    }

    /// A `--scratch-dir` below a regular file, which no one can create.
    fn unusable_scratch_dir(tag: &str) -> (std::path::PathBuf, String) {
        let file = std::env::temp_dir().join(format!("co-ring-{tag}-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("scratch file");
        let dir = file.join("scratch").to_string_lossy().into_owned();
        (file, dir)
    }

    #[test]
    fn explore_mmap_refuses_an_unusable_scratch_dir() {
        let (file, dir) = unusable_scratch_dir("mmap-scratch");
        let out = run_line(&[
            "explore",
            "--n",
            "4",
            "--dedup",
            "mmap",
            "--scratch-dir",
            &dir,
        ]);
        std::fs::remove_file(file).expect("remove scratch file");
        assert_eq!(out.code, 1, "{}", out.text);
        assert!(
            out.text.starts_with("error: scratch directory "),
            "{}",
            out.text
        );
    }

    #[test]
    fn explore_spill_refuses_an_unusable_scratch_dir() {
        let (file, dir) = unusable_scratch_dir("spill-scratch");
        let out = run_line(&["explore", "--n", "5", "--spill", "1", "--scratch-dir", &dir]);
        std::fs::remove_file(file).expect("remove scratch file");
        assert_eq!(out.code, 1, "{}", out.text);
        assert!(
            out.text.starts_with("error: scratch directory "),
            "{}",
            out.text
        );
    }

    #[test]
    fn explore_resume_refuses_tampered_checkpoints() {
        let dir = std::env::temp_dir().join(format!("co-ring-cli-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let cut = run_line(&[
            "explore",
            "--ids",
            "3,1,2",
            "--max-configs",
            "20",
            "--checkpoint",
            &path("cut.ck"),
        ]);
        assert_eq!(cut.code, 0, "{}", cut.text);
        let ck = ExploreCheckpoint::read(dir.join("cut.ck").as_path()).expect("valid checkpoint");
        let bumped = ExploreCheckpoint {
            admitted: ck.admitted + 1,
            ..ck.clone()
        };
        bumped.write_atomic(&dir.join("bumped.ck")).expect("write");
        // A shard image that repeats its first fingerprint, with the count
        // and `admitted` raised to match.
        let mut duplicated = ck.clone();
        let blob = duplicated
            .shards
            .iter_mut()
            .find(|blob| blob.len() > 8)
            .expect("a non-empty shard");
        let count = u64::from_le_bytes(blob[..8].try_into().expect("8B"));
        blob[..8].copy_from_slice(&(count + 1).to_le_bytes());
        let first: [u8; 8] = blob[8..16].try_into().expect("8B");
        blob.extend_from_slice(&first);
        duplicated.admitted += 1;
        duplicated
            .write_atomic(&dir.join("duplicated.ck"))
            .expect("write");
        let mut truncated = ck;
        truncated
            .shards
            .iter_mut()
            .find(|blob| blob.len() > 8)
            .expect("a non-empty shard")
            .pop();
        truncated
            .write_atomic(&dir.join("truncated.ck"))
            .expect("write");
        for (name, why) in [
            ("bumped.ck", "admitted"),
            ("duplicated.ck", "stored twice"),
            ("truncated.ck", "dedup shard"),
        ] {
            let out = run_line(&["explore", "--ids", "3,1,2", "--resume", &path(name)]);
            assert_eq!(out.code, 1, "{name}: {}", out.text);
            assert!(out.text.starts_with("error:"), "{name}: {}", out.text);
            assert!(out.text.contains(why), "{name}: {}", out.text);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_resume_refuses_picks_that_do_not_replay() {
        let dir = std::env::temp_dir().join(format!("co-ring-cli-picks-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let ring = ["--protocol", "alg2", "--n", "7"];
        let cut = run_line(
            &[
                &[
                    "explore",
                    "--max-configs",
                    "3000",
                    "--checkpoint",
                    &path("cut.ck"),
                ],
                &ring[..],
            ]
            .concat(),
        );
        assert_eq!(cut.code, 0, "{}", cut.text);
        let ck = ExploreCheckpoint::read(dir.join("cut.ck").as_path()).expect("valid checkpoint");
        // Channel 9999 does not exist; channel 0 is empty in the started
        // initial configuration, where every path's first pick delivers.
        for (pick, why) in [(9999, "channel 9999 does not exist"), (0, "holds no pulse")] {
            let mut edited = ck.clone();
            edited
                .frontier
                .iter_mut()
                .find(|item| !item.picks.is_empty())
                .expect("a non-empty frontier path")
                .picks[0] = pick;
            let name = format!("pick{pick}.ck");
            edited.write_atomic(&dir.join(&name)).expect("write");
            let out = run_line(&[&["explore", "--resume", &path(&name)], &ring[..]].concat());
            assert_eq!(out.code, 1, "{name}: {}", out.text);
            assert!(out.text.starts_with("error:"), "{name}: {}", out.text);
            assert!(out.text.contains(why), "{name}: {}", out.text);
        }
        // A depth that is not the path's length used to resume and report
        // `complete: false` with exit 0.
        let mut deep = ck.clone();
        deep.frontier[0].depth = 4_000_000_000;
        deep.write_atomic(&dir.join("deep.ck")).expect("write");
        let out = run_line(&[&["explore", "--resume", &path("deep.ck")], &ring[..]].concat());
        assert_eq!(out.code, 1, "{}", out.text);
        assert!(out.text.starts_with("error:"), "{}", out.text);
        assert!(out.text.contains("claims depth 4000000000"), "{}", out.text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn echo_rejects_bad_root() {
        let out = run_line(&["echo", "--graph", "ring:3", "--root", "9"]);
        assert_eq!(out.code, 1);
    }

    #[test]
    fn chang_roberts_records_and_replays_byte_identically() {
        let record = run_line(&[
            "record",
            "--protocol",
            "chang-roberts",
            "--ids",
            "4,9,2,7",
            "--scheduler",
            "random",
            "--seed",
            "5",
        ]);
        assert_eq!(record.code, 0);
        let schedule = record
            .json
            .get("schedule")
            .and_then(Value::as_str)
            .expect("schedule string");
        let replay = run_line(&[
            "replay",
            "--protocol",
            "chang-roberts",
            "--ids",
            "4,9,2,7",
            "--schedule",
            schedule,
        ]);
        assert_eq!(replay.code, 0);
        for key in ["report", "fingerprint", "leaders"] {
            assert_eq!(record.json.get(key), replay.json.get(key), "{key}");
        }
        // Position 1 holds the maximum ID, so Chang-Roberts elects it.
        assert!(replay.text.contains("leaders: [1]"));
    }

    #[test]
    fn explore_rejects_content_carrying_protocols() {
        let out = run_line(&["explore", "--protocol", "franklin", "--ids", "1,2"]);
        assert_eq!(out.code, 1);
        assert_eq!(
            out.json.get("error").and_then(Value::as_str),
            Some("missing-capability")
        );
        let supported = out.json.get("supported").expect("supported list");
        assert!(supported.to_string().contains("alg2"));
    }

    #[test]
    fn fleet_refuses_protocols_without_the_capability() {
        for protocol in ["chang-roberts", "alg3"] {
            let out = run_line(&["fleet", "--protocol", protocol, "--rings", "1"]);
            assert_eq!(out.code, 1, "{}", out.text);
            assert!(out.text.contains("does not support fleet"), "{}", out.text);
            assert!(out.text.contains("alg1, alg2"), "{}", out.text);
            assert_eq!(
                out.json.get("error").and_then(Value::as_str),
                Some("missing-capability")
            );
            assert_eq!(out.json.get("supported"), Some(&array(["alg1", "alg2"])));
        }
    }

    #[test]
    fn refuses_ids_whose_alg3_virtual_ids_overflow() {
        // Each command refuses the IDs before it runs anything; an
        // overflowing ID would otherwise cost ~2^64 pulses.
        let max = u64::MAX.to_string();
        let (improved, doubled) = (format!("1,{max}"), format!("1,{}", 1u64 << 63));
        for (args, error) in [
            (vec!["orient", "--ids", &improved], "virtual-id-overflow"),
            (
                vec!["orient", "--scheme", "doubled", "--ids", &doubled],
                "virtual-id-overflow",
            ),
            (vec!["record", "--protocol", "alg3", "--ids", &max], "ids"),
            (
                vec![
                    "replay",
                    "--protocol",
                    "alg3",
                    "--ids",
                    &max,
                    "--schedule",
                    "0",
                ],
                "ids",
            ),
            (
                vec!["explore", "--protocol", "alg3", "--ids", &max],
                "explore",
            ),
        ] {
            let out = run_line(&args);
            assert_eq!(out.code, 1, "{args:?}: {}", out.text);
            assert!(out.text.starts_with("error: "), "{args:?}: {}", out.text);
            assert!(out.text.contains("too large"), "{args:?}: {}", out.text);
            assert_eq!(
                out.json.get("error").and_then(Value::as_str),
                Some(error),
                "{args:?}"
            );
        }
    }

    #[test]
    fn shrink_runs_clean_on_chang_roberts() {
        let out = run_line(&["shrink", "--protocol", "chang-roberts", "--ids", "2,5,3"]);
        assert_eq!(out.code, 0);
        assert_eq!(out.json.get("violation_found"), Some(&Value::Bool(false)));
    }

    #[test]
    fn protocols_lists_the_registry() {
        let out = run_line(&["protocols"]);
        assert_eq!(out.code, 0);
        for name in co_bench::protocols().names() {
            assert!(out.text.contains(name), "table must list {name}");
        }
        let Value::Array(docs) = &out.json else {
            panic!("protocols JSON should be an array")
        };
        assert_eq!(docs.len(), co_bench::protocols().entries().len());
        let cr = docs
            .iter()
            .find(|d| d.get("name").and_then(Value::as_str) == Some("chang-roberts"))
            .expect("chang-roberts entry");
        assert!(cr.to_string().contains("shrink"));
    }
}
