//! Benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `elect-n1000`, `explore-alg2`, `explore-ooc`, `fleet-mixed`.
//! With `--trace 0` the named workload runs untraced for `--seconds` and
//! the end-to-end metrics are printed; with `--trace 1` the traced suite
//! runs and the per-layer metrics are printed. Progress and failures go to
//! stderr; the last stdout line is the JSON result. Run it from the
//! repository root: scratch files and the span trace go under
//! `.perfbench/`. `--toy` shrinks every instance (the self-test's sizes).

use perfbench::traced::run_traced;
use perfbench::workloads::{end_to_end, run_untraced, Setup};
use perfbench::{peak_rss_mb, quantile, result_line, Metric, Sizes, Verdict, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Child processes that each only set up, for `setup_s`.
const SETUP_PROBES: usize = 21;

/// Child processes that each run two cycles of the workload, for
/// `peak_rss_mb` (the median of their readings).
const RSS_PROBES: usize = 3;

/// How far a child's peak after its second cycle may exceed its peak after
/// the first before the run counts a failed check: memory that grows from
/// cycle to cycle, such as a leak or a buffer kept across operations.
const RSS_GROWTH: f64 = 0.2;

/// glibc allocator settings of the RSS probe children; the timed process
/// keeps glibc's defaults. Setting the mmap threshold (to its 128 KiB
/// default) turns off the dynamic threshold. Left dynamic, the threshold
/// moves with whichever worker thread frees a large block first, so a
/// large block lands in an arena, and stays resident after its free, or in
/// a mapping of its own, depending on that race.
const RSS_TUNABLES: &str = "glibc.malloc.mmap_threshold=131072";

/// The internal roles of a child process.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Probe {
    /// Set up, then exit: one `setup_s` sample.
    Setup,
    /// Run two cycles and print the peak RSS after each.
    Rss,
}

impl Probe {
    fn flag(self) -> &'static str {
        match self {
            Probe::Setup => "--setup-probe",
            Probe::Rss => "--rss-probe",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Toy instance sizes instead of the benchmark's.
    toy: bool,
    /// Internal: this process is a probe child.
    probe: Option<Probe>,
}

impl Args {
    fn sizes(&self) -> Sizes {
        if self.toy {
            Sizes::TOY
        } else {
            Sizes::FULL
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ElectN1000,
        seed: 0,
        seconds: 10.0,
        trace: false,
        toy: false,
        probe: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{v}'; one of: {}", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            "--toy" => args.toy = true,
            "--setup-probe" => args.probe = Some(Probe::Setup),
            "--rss-probe" => args.probe = Some(Probe::Rss),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A child of this benchmark that runs `probe` on the same workload, seed
/// and sizes.
fn probe_command(args: &Args, probe: Probe) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([probe.flag(), "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(args.toy.then_some("--toy"))
        .stdin(Stdio::null());
    Ok(cmd)
}

/// Wall time of one child process that starts, sets the workload up and
/// exits: process start to the point the first timed operation would begin.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let mut cmd = probe_command(args, Probe::Setup)?;
    let t = Instant::now();
    let status = cmd
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if status.success() {
        Ok(secs)
    } else {
        Err(format!("set-up probe failed: {status}"))
    }
}

/// Peak RSS of one child process after its first and its second cycle.
fn rss_probe(args: &Args) -> Result<(f64, f64), String> {
    let out = probe_command(args, Probe::Rss)?
        .env("GLIBC_TUNABLES", RSS_TUNABLES)
        .output()
        .map_err(|e| format!("spawn RSS probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "RSS probe failed: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut readings = text.split_whitespace().map(str::parse::<f64>);
    match (readings.next(), readings.next()) {
        (Some(Ok(first)), Some(Ok(second))) => Ok((first, second)),
        _ => Err(format!("RSS probe printed '{}'", text.trim())),
    }
}

/// The RSS probe child: two cycles, `VmHWM` after each.
fn rss_child(args: &Args, root: &Path) -> Result<(), String> {
    let setup = Setup::new(args.workload, args.seed, &args.sizes(), root)?;
    let mut verdict = Verdict::default();
    let mut readings = [0.0; 2];
    for reading in &mut readings {
        // A zero window runs exactly one cycle.
        run_untraced(&setup, Duration::ZERO, &mut verdict, || {});
        *reading = peak_rss_mb()?;
    }
    if verdict.failed > 0 {
        return Err(verdict.notes.join("; "));
    }
    println!("{} {}", readings[0], readings[1]);
    Ok(())
}

fn untraced(args: &Args, root: &Path) -> Result<(Verdict, Vec<Metric>), String> {
    let window = Duration::from_secs_f64(args.seconds);
    // Set-up samples are spread over the run, between cycles, so they see
    // the machine as the operations do rather than one moment of it.
    let interval = window / SETUP_PROBES as u32;
    let mut probes = vec![setup_probe(args)?];
    let mut probe_error = None;
    let mut last_probe = Instant::now();
    let setup = Setup::new(args.workload, args.seed, &args.sizes(), root)?;
    let mut verdict = Verdict::default();
    let tally = run_untraced(&setup, window, &mut verdict, || {
        if probes.len() < SETUP_PROBES && last_probe.elapsed() >= interval {
            match setup_probe(args) {
                Ok(secs) => probes.push(secs),
                Err(e) => probe_error = Some(e),
            }
            last_probe = Instant::now();
        }
    });
    drop(setup);
    if let Some(e) = probe_error {
        return Err(e);
    }
    let mut rss = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let (first, second) = rss_probe(args)?;
        verdict.check(second <= first * (1.0 + RSS_GROWTH), || {
            format!("peak RSS grew from {first:.2} MB after one cycle to {second:.2} MB after two")
        });
        rss.push(second);
    }
    eprintln!(
        "{}: {} ops in {:.2} s; {} set-up samples; peak RSS samples {rss:?} MB",
        args.workload.name(),
        tally.ops.len(),
        tally.op_secs().iter().sum::<f64>(),
        probes.len()
    );
    let op_ms: Vec<String> = tally
        .op_secs()
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    eprintln!("op ms, in order: {}", op_ms.join(" "));
    let mut metrics = vec![
        Metric::new("setup_s", quantile(&probes, 0.5), "s"),
        Metric::new("peak_rss_mb", quantile(&rss, 0.5), "MB"),
    ];
    metrics.extend(end_to_end(&tally));
    Ok((verdict, metrics))
}

fn traced(args: &Args, root: &Path) -> Result<(Verdict, Vec<Metric>), String> {
    let run = run_traced(args.seed, &args.sizes(), args.seconds, root)?;
    let path = root.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let clocks: Vec<(&str, &_)> = run.walks.iter().map(|(k, c)| (*k, c)).collect();
    run.tracer.write(&path, &clocks)?;
    for (name, ns) in perfbench::trace::self_time_by_name(&run.tracer.spans()) {
        eprintln!("self time {name}: {:.3} ms", ns as f64 / 1e6);
    }
    eprintln!("spans written to {}", path.display());
    Ok((run.verdict, run.metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let outcome = std::fs::create_dir_all(&root)
        .map_err(|e| format!("create {}: {e}", root.display()))
        .and_then(|()| match args.probe {
            Some(Probe::Setup) => {
                Setup::new(args.workload, args.seed, &args.sizes(), &root).map(|_| None)
            }
            Some(Probe::Rss) => rss_child(&args, &root).map(|()| None),
            None if args.trace => traced(&args, &root).map(Some),
            None => untraced(&args, &root).map(Some),
        });
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some((verdict, metrics))) => {
            for note in &verdict.notes {
                eprintln!("perfbench: check failed: {note}");
            }
            match result_line(&verdict, &metrics) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
