//! `simcov-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, runs whole simulations in
//! a closed loop for `--seconds`, checks every run bitwise against the
//! serial reference and its exact counts against the first run, and prints
//! the metrics by name with their units. The last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of traced runs with `--trace 1`. See `README.md`.

mod layers;
mod probe;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use simcov_telemetry::Telemetry;

use layers::{layer_times, LayerTimes, CLOSURE_TOLERANCE, KERNELS};
use probe::{probe, REFERENCE_S};
use workload::{
    replay_trial_tables, run_once, Counts, Exec, Reference, Rep, Workload, STEPS, UNITS,
};

const USAGE: &str =
    "usage: simcov-perfbench --workload <gpu4-sparse|cpu4-dense|serial-dense|gpu4-sparse-ft> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Executor constructions are timed in `SETUP_BATCHES` batches of
/// `SETUP_BATCH`, with a host-speed probe between batches.
const SETUP_BATCHES: usize = 16;
const SETUP_BATCH: usize = 16;
/// Fewest measured runs (or traced/untraced pairs) per invocation, however
/// short `--seconds` is.
const MIN_RUNS: usize = 3;
const MIN_PAIRS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Run accounting shared by both modes: every run is attempted; it fails
/// on an `Err` step, a trajectory that diverged from the serial reference,
/// or counts that differ from the first run's.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first_counts: Option<Counts>,
    /// Trace-health or closure violations (traced mode).
    problems: Vec<String>,
}

impl Ledger {
    fn record(&mut self, label: &str, rep: &Rep) {
        self.attempted += 1;
        let mut error = rep.error.clone();
        match &self.first_counts {
            None if error.is_none() => self.first_counts = Some(rep.counts.clone()),
            Some(first) if error.is_none() && *first != rep.counts => {
                let diff: Vec<String> = first
                    .iter()
                    .zip(&rep.counts)
                    .filter(|(a, b)| a != b)
                    .map(|((name, a), (_, b))| format!("{name} {a} != {b}"))
                    .collect();
                error = Some(format!(
                    "counts differ from the first run: {}",
                    diff.join(", ")
                ));
            }
            _ => {}
        }
        if let Some(e) = error {
            self.failed += 1;
            eprintln!("FAIL {label} run {}: {e}", self.attempted);
        }
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A field of `/proc/self/status` in MiB (`VmHWM`: peak resident set,
/// `VmRSS`: current resident set).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"));
    kib / 1024.0
}

/// Reset this process's peak resident set to its current resident set, so
/// that `VmHWM` afterwards is the peak of the measured work alone.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Durable checkpoints of `gpu4-sparse-ft` go next to the benchmark
/// sources, inside the checkout; one file per process.
fn checkpoint_path() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir.join(format!("ckpt-{}.bin", std::process::id()))
}

/// `--trace 0`: time batches of constructions, then timed whole runs until
/// `seconds` have passed. Every batch and run is bracketed by host-speed
/// probes and reported in reference-host seconds.
///
/// The constructions all come before the first run. Until a run has freed
/// its larger buffers, the allocator hands every construction fresh pages,
/// so each one pays the first touch of its state, as in a new process. With
/// runs interleaved, whether a construction got reused or fresh pages
/// depended on what the run before it had freed, and `setup_s` spread by
/// 0.28 between processes.
fn timed(args: &Args, ledger: &mut Ledger) -> Vec<Metric> {
    let w = args.workload;
    let params = w.params(args.seed);
    let reference = Reference::compute(&params);
    let ckpt = checkpoint_path();
    // The first construction in a process pays one-time costs; discard it.
    drop(w.build(&params));
    // The serial reference's own peak is not the workload's.
    reset_peak_rss();
    let resident_mb = status_mb("VmRSS");
    let (mut setup, mut run, mut wall, mut probes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut before = probe();
    probes.push(before);
    for _ in 0..SETUP_BATCHES {
        let mut batch = Vec::with_capacity(SETUP_BATCH);
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            let sim = w.build(&params);
            batch.push(t0.elapsed().as_secs_f64());
            drop(sim);
        }
        let after = probe();
        let scale = 2.0 * REFERENCE_S / (before + after);
        setup.extend(batch.iter().map(|s| s * scale));
        probes.push(after);
        before = after;
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while run.len() < MIN_RUNS || Instant::now() < deadline {
        let rep = run_once(w, &params, &reference, &Telemetry::disabled(), true, &ckpt);
        ledger.record(w.name(), &rep);
        run.push(rep.ref_s);
        wall.push(rep.wall_s);
    }
    let _ = std::fs::remove_file(&ckpt);
    println!(
        "# {}: {} runs of {STEPS} steps, {} constructions; raw run wall median {:.4} s \
         (min {:.4}, max {:.4}), probe median {:.4} s (reference {REFERENCE_S} s); \
         {resident_mb:.2} MiB resident before the loop (reference, probe buffers) \
         of the peak_rss_mb",
        w.name(),
        run.len(),
        setup.len(),
        median(&wall),
        wall.iter().copied().fold(f64::INFINITY, f64::min),
        wall.iter().copied().fold(0.0, f64::max),
        median(&probes),
    );
    vec![
        metric("run_s", median(&run), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", status_mb("VmHWM"), "MiB"),
    ]
}

/// `--trace 1`: alternate untraced and traced runs (the pair gives the
/// tracing overhead), then replay the trial tables once.
fn traced(args: &Args, ledger: &mut Ledger) -> Vec<Metric> {
    let w = args.workload;
    let params = w.params(args.seed);
    let reference = Reference::compute(&params);
    let ckpt = checkpoint_path();
    let probe_start = probe();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut layers: Vec<LayerTimes> = Vec::new();
    let mut plain_wall = Vec::new();
    let mut overhead = Vec::new();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut pairs = 0;
    while pairs < MIN_PAIRS || Instant::now() < deadline {
        pairs += 1;
        let plain = run_once(w, &params, &reference, &Telemetry::disabled(), false, &ckpt);
        ledger.record(w.name(), &plain);
        // Track 0 for the driver and runtime, one per rank; a ring holds
        // every event of a run, replayed steps included.
        let tel = Telemetry::enabled(UNITS + 1, 64 * 2 * STEPS as usize);
        let rep = run_once(w, &params, &reference, &tel, false, &ckpt);
        ledger.record(&format!("{} traced", w.name()), &rep);
        dropped += tel.dropped();
        events.push(tel.recorded() as f64);
        if rep.error.is_some() || plain.error.is_some() {
            continue;
        }
        let spans = tel.events();
        let lt = layer_times(w.exec(), &spans, &rep.spans);
        let unattributed = lt.unattributed_frac();
        if unattributed.abs() > CLOSURE_TOLERANCE {
            ledger.problems.push(format!(
                "layer buckets leave {:.2}% of the traced loop unattributed (tolerance {:.0}%)",
                100.0 * unattributed,
                100.0 * CLOSURE_TOLERANCE
            ));
        }
        overhead.push(rep.wall_s / plain.wall_s - 1.0);
        plain_wall.push(plain.wall_s);
        layers.push(lt);
    }
    let _ = std::fs::remove_file(&ckpt);
    if dropped != 0 {
        ledger
            .problems
            .push(format!("telemetry dropped {dropped} events"));
    }
    if events.iter().any(|&e| e != events[0]) {
        ledger.problems.push(format!(
            "telemetry event counts differ between runs: {events:?}"
        ));
    }

    let (entries, trial_table_s) = if w.exec() == Exec::Serial {
        (0, 0.0)
    } else {
        replay_trial_tables(&params, &reference)
    };
    let probe_s = median(&[probe_start, probe()]);

    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let mut m = vec![
        metric("trace.loop_s", med(&|l| l.loop_s), "s"),
        metric("driver.construct_s", med(&|l| l.construct_s), "s"),
        metric("driver.prologue_s", med(&|l| l.prologue_s), "s"),
        metric("driver.step_self_s", med(&|l| l.step_self_s), "s"),
        metric("core.step_s", med(&|l| l.core_step_s), "s"),
        metric("core.trial_table_s", trial_table_s, "s"),
        metric("core.trial_entries", entries as f64, "count"),
        metric("pgas.superstep_s", med(&|l| l.superstep_s), "s"),
        metric("pgas.exchange_s", med(&|l| l.exchange_s), "s"),
        metric("pgas.imbalance", med(&|l| l.imbalance), "ratio"),
        metric("cpu.rank_compute_s", med(&|l| l.rank_compute_s), "s"),
    ];
    for (i, k) in KERNELS.iter().enumerate() {
        m.push(metric(
            format!("gpu.kernel.{k}_s"),
            med(&|l| l.kernel_s[i]),
            "s",
        ));
    }
    m.push(metric("driver.persist_s", med(&|l| l.persist_s), "s"));
    m.push(metric("driver.restore_s", med(&|l| l.restore_s), "s"));
    for &(name, value) in ledger.first_counts.iter().flatten() {
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        m.push(metric(name, value as f64, unit));
    }
    m.push(metric("host.run_wall_s", median(&plain_wall), "s"));
    m.push(metric("host.probe_s", probe_s, "s"));
    m.push(metric(
        "telemetry.overhead_frac",
        median(&overhead),
        "ratio",
    ));
    m.push(metric("telemetry.events", events[0], "count"));
    m.push(metric("telemetry.dropped", dropped as f64, "count"));
    m.push(metric(
        "trace.unattributed_frac",
        med(&|l| l.unattributed_frac()),
        "ratio",
    ));
    m
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        traced(&args, &mut ledger)
    } else {
        timed(&args, &mut ledger)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        ledger.problems.push(format!("{} is not a number", m.name));
    }
    for p in &ledger.problems {
        eprintln!("FAIL {}: {p}", args.workload.name());
    }

    println!(
        "# workload {} seed {} trace {}: {} runs attempted, {} failed, error_rate {} ",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        ledger.attempted,
        ledger.failed,
        ledger.error_rate()
    );
    for m in &metrics {
        println!("{:<28} {:>20} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct(),
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
}
