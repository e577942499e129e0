//! The `simcov` command-line tool: run a simulation from a SIMCoV-style
//! config file on the executor of your choice, writing a CSV time series
//! and optional PPM visualization frames — the workflow of the original
//! open-source SIMCoV.
//!
//! ```text
//! simcov <config-file> [--executor serial|cpu|gpu] [--units N]
//!        [--out-csv FILE] [--frames DIR --n-frames K] [--variant NAME]
//!        [--json FILE] [--persist FILE] [--persist-every K]
//!        [--resume FILE] [--halt-after N]
//!        [--trace-out FILE] [--metrics-out FILE]
//! ```
//!
//! `--json` writes a structured run summary; on the cpu/gpu executors it
//! includes the per-step [`StepRecord`]s of the metrics layer (agents,
//! active work units, communication volume, simulated and real seconds).
//!
//! `--trace-out` records the unified telemetry span stream (driver steps →
//! BSP supersteps → per-rank compute/exchange → GPU kernel phases) and
//! writes it as Chrome trace-event JSON (open in `chrome://tracing` or
//! Perfetto). `--metrics-out` writes the run's metric registry in
//! Prometheus text exposition. Either flag engages telemetry and the online
//! health monitor; both are pure observation — results are bitwise
//! identical with and without them.
//!
//! `--persist` writes a durable CRC-guarded checkpoint file every
//! `--persist-every` steps (atomic staged rename), `--resume` restarts a
//! run from such a file, and `--halt-after N` aborts the process right
//! after step `N` without any final persist — a SIGKILL stand-in for
//! crash-restart testing (exit code 3).

use gpusim::{KernelCategory, SharedSink, StepRecord};
use simcov_bench::cli::CommonFlags;
use simcov_bench::json::Json;
use simcov_core::config::parse_config;
use simcov_core::render::render_slice;
use simcov_core::stats::TimeSeries;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::{SerialDriver, Simulation};
use simcov_gpu::{GpuSim, GpuSimConfig, GpuVariant};
use simcov_telemetry::{chrome, prometheus, HealthConfig, Telemetry};
use std::fs;

struct Args {
    config: String,
    executor: String,
    units: usize,
    out_csv: Option<String>,
    frames: Option<String>,
    n_frames: u64,
    variant: GpuVariant,
    json: Option<String>,
    persist: Option<String>,
    persist_every: u64,
    resume: Option<String>,
    halt_after: Option<u64>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simcov <config-file> [--executor serial|cpu|gpu] [--units N]\n\
         \t[--out-csv FILE] [--frames DIR] [--n-frames K]\n\
         \t[--variant unoptimized|fast-reduction|memory-tiling|combined]\n\
         \t[--json FILE] [--persist FILE] [--persist-every K]\n\
         \t[--resume FILE] [--halt-after N]\n\
         \t[--trace-out FILE] [--metrics-out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: String::new(),
        executor: "gpu".into(),
        units: 4,
        out_csv: None,
        frames: None,
        n_frames: 8,
        variant: GpuVariant::Combined,
        json: None,
        persist: None,
        persist_every: 10,
        resume: None,
        halt_after: None,
        trace_out: None,
        metrics_out: None,
    };
    let (common, rest) = CommonFlags::parse_with_rest();
    args.json = common.json;
    args.trace_out = common.trace_out;
    args.metrics_out = common.metrics_out;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--executor" => args.executor = it.next().unwrap_or_else(|| usage()),
            "--units" => {
                args.units = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out-csv" => args.out_csv = Some(it.next().unwrap_or_else(|| usage())),
            "--frames" => args.frames = Some(it.next().unwrap_or_else(|| usage())),
            "--n-frames" => {
                args.n_frames = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--variant" => {
                args.variant = match it.next().as_deref() {
                    Some("unoptimized") => GpuVariant::Unoptimized,
                    Some("fast-reduction") => GpuVariant::FastReduction,
                    Some("memory-tiling") => GpuVariant::MemoryTiling,
                    Some("combined") => GpuVariant::Combined,
                    _ => usage(),
                }
            }
            "--persist" => args.persist = Some(it.next().unwrap_or_else(|| usage())),
            "--persist-every" => {
                args.persist_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| usage())
            }
            "--resume" => args.resume = Some(it.next().unwrap_or_else(|| usage())),
            "--halt-after" => {
                args.halt_after = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other if args.config.is_empty() && !other.starts_with('-') => {
                args.config = other.to_string()
            }
            _ => usage(),
        }
    }
    if args.config.is_empty() {
        usage();
    }
    args
}

fn write_csv(path: &str, h: &TimeSeries) {
    let mut out = String::from(
        "step,virions,chemokine,tcells_vasculature,tcells_tissue,\
         epi_healthy,epi_incubating,epi_expressing,epi_apoptotic,epi_dead,extravasated\n",
    );
    for s in &h.steps {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            s.step,
            s.virions,
            s.chemokine,
            s.tcells_vasculature,
            s.tcells_tissue,
            s.epi_healthy,
            s.epi_incubating,
            s.epi_expressing,
            s.epi_apoptotic,
            s.epi_dead,
            s.extravasated
        ));
    }
    fs::write(path, out).expect("write csv");
}

fn main() {
    let args = parse_args();
    let text = fs::read_to_string(&args.config)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", args.config));
    let params = parse_config(&text).unwrap_or_else(|e| panic!("bad config: {e}"));
    eprintln!(
        "simcov: {}x{}x{} voxels, {} steps, {} FOI, executor {} (x{})",
        params.dims.x,
        params.dims.y,
        params.dims.z,
        params.steps,
        params.num_foi,
        args.executor,
        args.units
    );

    let steps = params.steps;
    let frame_every = (steps / args.n_frames.max(1)).max(1);
    if let Some(dir) = &args.frames {
        fs::create_dir_all(dir).expect("create frames dir");
    }

    let dims = params.dims;
    let num_foi = params.num_foi;
    let ck_params = params.clone();
    // The per-step metrics sink backing --json.
    let sink = SharedSink::new();
    // One object-safe driver API over all three executors.
    let mut driver: Box<dyn Simulation> = match args.executor.as_str() {
        "serial" => Box::new(SerialDriver::new(params).unwrap_or_else(|e| panic!("{e}"))),
        "cpu" => Box::new(
            CpuSim::new(CpuSimConfig::new(params, args.units)).unwrap_or_else(|e| panic!("{e}")),
        ),
        "gpu" => Box::new(
            GpuSim::new(GpuSimConfig::new(params, args.units).with_variant(args.variant))
                .unwrap_or_else(|e| panic!("{e}")),
        ),
        _ => usage(),
    };
    if args.json.is_some() {
        driver.set_metrics_sink(Box::new(sink.clone()));
    }
    // Either exporter flag engages telemetry (track 0 for the driver and
    // runtime, one per unit) and the online health monitor.
    let telemetry = if args.trace_out.is_some() || args.metrics_out.is_some() {
        let tel = Telemetry::enabled(args.units + 1, 1 << 16);
        driver.enable_telemetry(tel.clone());
        driver.enable_health(HealthConfig::default());
        Some(tel)
    } else {
        None
    };
    if let Some(path) = &args.resume {
        // A crash mid-persist can leave a `.tmp` stage orphaned next to the
        // sealed checkpoint. Stages are never sealed generations, so sweep
        // them before restoring — otherwise they accumulate forever.
        let swept = simcov_driver::sweep_stale_stages(std::path::Path::new(path));
        if swept > 0 {
            eprintln!("swept {swept} orphaned checkpoint stage file(s)");
        }
        let cp = simcov_driver::load_checkpoint(std::path::Path::new(path), &ck_params)
            .unwrap_or_else(|e| panic!("cannot resume from {path}: {e}"));
        let at = cp.step;
        driver
            .restore(&cp)
            .unwrap_or_else(|e| panic!("cannot restore {path}: {e}"));
        eprintln!("resumed from {path} at step {at}");
    }

    while driver.step() < steps {
        let step = driver.step() + 1;
        driver
            .advance_step()
            .unwrap_or_else(|e| panic!("step {step} failed: {e}"));
        if let Some(dir) = &args.frames {
            if step.is_multiple_of(frame_every) || step == steps {
                let img = render_slice(&driver.gather_world(), 0, 512);
                let path = format!("{dir}/step_{step:06}.ppm");
                fs::write(&path, img.to_ppm()).expect("write frame");
                eprintln!("frame {path}");
            }
        }
        if let Some(path) = &args.persist {
            if step.is_multiple_of(args.persist_every) || step == steps {
                let cp = driver.checkpoint();
                simcov_driver::persist_checkpoint(std::path::Path::new(path), &ck_params, &cp)
                    .unwrap_or_else(|e| panic!("cannot persist {path}: {e}"));
            }
        }
        if args.halt_after == Some(step) {
            // Simulated SIGKILL: stop dead with no final persist, CSV or
            // JSON. Only checkpoints already persisted survive.
            eprintln!("halting after step {step} (simulated crash)");
            std::process::exit(3);
        }
    }

    if let Some(tel) = &telemetry {
        publish_final_metrics(tel, driver.as_ref());
        if let Some(path) = &args.trace_out {
            fs::write(path, chrome::render(tel, driver.health_records()))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!(
                "chrome trace -> {path} ({} events, {} dropped, {} health findings)",
                tel.recorded(),
                tel.dropped(),
                driver.health_records().len()
            );
        }
        if let Some(path) = &args.metrics_out {
            let reg = tel.registry().expect("enabled telemetry has a registry");
            fs::write(path, prometheus::render(reg))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("prometheus metrics -> {path}");
        }
    }

    let history = driver.history();
    if let Some(path) = &args.out_csv {
        write_csv(path, history);
        eprintln!("time series -> {path} ({} rows)", history.len());
    }
    let last = history.steps.last().expect("at least one step");
    if let Some(path) = &args.json {
        let mut doc = Json::obj([
            ("executor", Json::from(args.executor.as_str())),
            ("units", Json::from(args.units)),
            (
                "dims",
                Json::Arr(vec![
                    Json::from(dims.x),
                    Json::from(dims.y),
                    Json::from(dims.z),
                ]),
            ),
            ("steps", Json::from(steps)),
            ("num_foi", Json::from(num_foi)),
        ]);
        doc.push(
            "final",
            Json::obj([
                ("virions", Json::from(last.virions)),
                ("tcells_tissue", Json::from(last.tcells_tissue)),
                ("epi_healthy", Json::from(last.epi_healthy)),
                ("epi_dead", Json::from(last.epi_dead)),
            ]),
        );
        doc.push("step_records", step_records_json(&sink.records()));
        fs::write(path, doc.render()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("json summary -> {path}");
    }
    println!(
        "final: virions {:.4e}, tissue T cells {}, healthy {}, dead {}",
        last.virions, last.tcells_tissue, last.epi_healthy, last.epi_dead
    );
}

/// Fold the run's cumulative counters, health totals and telemetry
/// self-diagnostics into the registry before the Prometheus export.
fn publish_final_metrics(tel: &Telemetry, driver: &dyn Simulation) {
    let Some(reg) = tel.registry() else { return };
    let comm = driver.comm_counters();
    reg.counter(
        "simcov_comm_messages_total",
        "Point-to-point and bulk messages delivered",
    )
    .add(comm.messages + comm.bulk_messages);
    reg.counter(
        "simcov_comm_bytes_total",
        "Point-to-point and bulk payload bytes delivered",
    )
    .add(comm.bytes + comm.bulk_bytes);
    reg.counter("simcov_supersteps_total", "BSP supersteps executed")
        .add(comm.supersteps);
    reg.counter("simcov_allreduces_total", "Statistics allreduces executed")
        .add(comm.allreduces);
    let work = driver.total_counters();
    for (cat, cc) in [
        (KernelCategory::UpdateAgents, work.update),
        (KernelCategory::ReduceStats, work.reduce),
        (KernelCategory::TileCheck, work.tile_check),
        (KernelCategory::Halo, work.halo),
    ] {
        let labels = [("phase", cat.name())];
        reg.counter_with(
            "simcov_kernel_elements_total",
            "Elements processed per kernel phase",
            &labels,
        )
        .add(cc.elements);
        reg.counter_with(
            "simcov_kernel_bytes_total",
            "Bytes touched per kernel phase",
            &labels,
        )
        .add(cc.bytes);
        reg.counter_with(
            "simcov_kernel_launches_total",
            "Kernel launches per phase",
            &labels,
        )
        .add(cc.launches);
    }
    reg.gauge("simcov_active_units", "Active work units at run end")
        .set(driver.active_units() as f64);
    for (label, count) in [
        (
            "straggler",
            driver
                .health_records()
                .iter()
                .filter(|r| r.kind.label() == "health:straggler")
                .count(),
        ),
        (
            "load-imbalance",
            driver
                .health_records()
                .iter()
                .filter(|r| r.kind.label() == "health:load-imbalance")
                .count(),
        ),
        (
            "comm-spike",
            driver
                .health_records()
                .iter()
                .filter(|r| r.kind.label() == "health:comm-spike")
                .count(),
        ),
    ] {
        reg.counter_with(
            "simcov_health_findings_total",
            "Health findings by kind",
            &[("kind", label)],
        )
        .add(count as u64);
    }
    reg.counter(
        "simcov_telemetry_events_total",
        "Span events recorded across all tracks",
    )
    .add(tel.recorded());
    reg.counter(
        "simcov_telemetry_dropped_total",
        "Span events dropped to ring wraparound",
    )
    .add(tel.dropped());
}

fn step_records_json(records: &[StepRecord]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|r| {
                let mut rec = Json::obj([
                    ("step", Json::from(r.step)),
                    ("agents", Json::from(r.agents)),
                    ("virions", Json::from(r.virions)),
                    ("chemokine", Json::from(r.chemokine)),
                    ("active_units", Json::from(r.active_units)),
                    ("comm_messages", Json::from(r.comm_messages)),
                    ("comm_bytes", Json::from(r.comm_bytes)),
                    ("sim_seconds", Json::from(r.sim_seconds)),
                    ("real_seconds", Json::from(r.real_seconds)),
                ]);
                rec.push(
                    "phase_seconds",
                    Json::obj(
                        r.phases
                            .cost
                            .phases()
                            .iter()
                            .map(|&(name, secs)| (name, Json::from(secs)))
                            .collect::<Vec<_>>(),
                    ),
                );
                if !r.recoveries.is_empty() {
                    rec.push(
                        "recoveries",
                        Json::Arr(
                            r.recoveries
                                .iter()
                                .map(|rv| {
                                    Json::obj([
                                        ("failed_step", Json::from(rv.failed_step)),
                                        ("rollback_step", Json::from(rv.rollback_step)),
                                        ("replayed_steps", Json::from(rv.replayed_steps)),
                                        ("survivors", Json::from(rv.survivors)),
                                        ("attempt", Json::from(rv.attempt as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    );
                }
                rec
            })
            .collect(),
    )
}
