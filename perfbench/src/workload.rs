//! The benchmark workloads: inputs generated from a seed, executor
//! construction through the public crate APIs, and one closed-loop run of
//! a whole simulation with its correctness and count checks.

use std::path::Path;
use std::time::Instant;

use pgas::{FaultEvent, FaultKind, FaultPlan, SplitMix64};
use simcov_core::extrav::TrialTable;
use simcov_core::grid::GridDims;
use simcov_core::params::SimParams;
use simcov_core::serial::SerialSim;
use simcov_core::stats::{StepStats, TimeSeries};
use simcov_core::world::World;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::{
    load_checkpoint, persist_checkpoint, ConfigError, RecoveryPolicy, SerialDriver, Simulation,
};
use simcov_gpu::{GpuSim, GpuSimConfig};
use simcov_telemetry::Telemetry;

use crate::probe::Stopwatch;

/// Tissue side in voxels (2D, `SIDE × SIDE`).
pub const SIDE: u32 = 256;
/// Simulated steps per run.
pub const STEPS: u64 = 200;
/// Ranks or simulated devices of the distributed workloads.
pub const UNITS: usize = 4;
/// Pinned pool workers: one worker plus the participating caller, so a run
/// never uses more than two host threads.
const THREADS: usize = 1;
/// `gpu4-sparse-ft`: in-memory checkpoint period, invariant-audit period,
/// steps between durable checkpoints, and the step of the rank death.
const CKPT_PERIOD: u64 = 10;
const AUDIT_PERIOD: u64 = 10;
const PERSIST_EVERY: u64 = 25;
const DEATH_STEP: u64 = STEPS / 2 + CKPT_PERIOD / 2;

/// Which executor a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    Serial,
    Cpu,
    Gpu,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Gpu4Sparse,
    Cpu4Dense,
    SerialDense,
    Gpu4SparseFt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Gpu4Sparse,
        Workload::Cpu4Dense,
        Workload::SerialDense,
        Workload::Gpu4SparseFt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Gpu4Sparse => "gpu4-sparse",
            Workload::Cpu4Dense => "cpu4-dense",
            Workload::SerialDense => "serial-dense",
            Workload::Gpu4SparseFt => "gpu4-sparse-ft",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn exec(self) -> Exec {
        match self {
            Workload::Gpu4Sparse | Workload::Gpu4SparseFt => Exec::Gpu,
            Workload::Cpu4Dense => Exec::Cpu,
            Workload::SerialDense => Exec::Serial,
        }
    }

    fn fault_tolerant(self) -> bool {
        self == Workload::Gpu4SparseFt
    }

    /// Paper dynamics compressed to the benchmark size; sparse workloads
    /// seed 16 foci of infection, dense ones 1024.
    pub fn params(self, seed: u64) -> SimParams {
        let num_foi = match self {
            Workload::Gpu4Sparse | Workload::Gpu4SparseFt => 16,
            Workload::Cpu4Dense | Workload::SerialDense => 1024,
        };
        SimParams::scaled_to(GridDims::new2d(SIDE, SIDE), STEPS, num_foi, seed)
    }

    /// Construct the workload's executor from generated params: the span
    /// `setup_s` measures.
    pub fn build(self, params: &SimParams) -> Result<Box<dyn Simulation>, ConfigError> {
        let p = params.clone();
        Ok(match self {
            Workload::SerialDense => Box::new(SerialDriver::new(p)?),
            Workload::Cpu4Dense => Box::new(CpuSim::new(
                CpuSimConfig::new(p, UNITS).with_threads(THREADS),
            )?),
            Workload::Gpu4Sparse => Box::new(GpuSim::new(
                GpuSimConfig::new(p, UNITS).with_threads(THREADS),
            )?),
            Workload::Gpu4SparseFt => {
                let cfg = GpuSimConfig::new(p, UNITS)
                    .with_threads(THREADS)
                    .with_recovery(RecoveryPolicy {
                        checkpoint_period: CKPT_PERIOD,
                        ..RecoveryPolicy::default()
                    })
                    .with_audit_period(AUDIT_PERIOD)
                    .with_fault_plan(FaultPlan::from_events(vec![death(params.seed)]));
                Box::new(GpuSim::new(cfg)?)
            }
        })
    }
}

/// The one seeded rank death of `gpu4-sparse-ft`: a random device dies in
/// one of the two supersteps of step `DEATH_STEP` (the GPU executor runs
/// two supersteps per step). The step is fixed, half a checkpoint period
/// after the middle checkpoint, so that every seed replays the same number
/// of steps: a death placed at a random step made the peak resident set
/// vary by 20% from seed to seed, and one on a checkpoint step replays
/// nothing.
fn death(seed: u64) -> FaultEvent {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_DEAD);
    FaultEvent {
        superstep: 2 * DEATH_STEP + rng.next_u64() % 2,
        rank: (rng.next_u64() % UNITS as u64) as usize,
        kind: FaultKind::RankDeath,
    }
}

/// The serial reference trajectory every run is compared against.
pub struct Reference {
    pub history: TimeSeries,
    pub world: World,
    /// Circulating T cells before each step: the trial-table sizes.
    pub circulating: Vec<u64>,
}

impl Reference {
    pub fn compute(params: &SimParams) -> Self {
        let mut sim = SerialSim::new(params.clone());
        let mut circulating = Vec::with_capacity(params.steps as usize);
        while sim.step < params.steps {
            circulating.push(sim.pool.circulating());
            sim.advance_step();
        }
        Reference {
            history: sim.history,
            world: sim.world,
            circulating,
        }
    }

    /// `None` when `sim`'s trajectory is bitwise the reference's.
    fn divergence(&self, sim: &dyn Simulation) -> Option<String> {
        if let Some(i) = first_history_difference(&self.history, sim.history()) {
            return Some(format!("step statistics diverged at step {i}"));
        }
        self.world
            .first_difference(&sim.gather_world())
            .map(|(v, why)| format!("final world diverged at voxel {v}: {why}"))
    }
}

/// First index where two trajectories differ, comparing floats by bits.
fn first_history_difference(a: &TimeSeries, b: &TimeSeries) -> Option<usize> {
    fn bits(s: &StepStats) -> [u64; 11] {
        [
            s.step,
            s.virions.to_bits(),
            s.chemokine.to_bits(),
            s.tcells_vasculature,
            s.tcells_tissue,
            s.epi_healthy,
            s.epi_incubating,
            s.epi_expressing,
            s.epi_apoptotic,
            s.epi_dead,
            s.extravasated,
        ]
    }
    let n = a.steps.len().max(b.steps.len());
    (0..n).find(|&i| a.steps.get(i).map(bits) != b.steps.get(i).map(bits))
}

/// A span the benchmark records around one of its own calls, timed on the
/// telemetry clock like the program's spans.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    pub label: &'static str,
    pub dur_ns: u64,
}

/// Records [`BenchSpan`]s when telemetry is on; a no-op otherwise.
struct Recorder {
    tel: Telemetry,
    spans: Vec<BenchSpan>,
}

impl Recorder {
    fn open(&self) -> u64 {
        self.tel.now_ns()
    }

    fn close(&mut self, label: &'static str, start_ns: u64) {
        if self.tel.is_enabled() {
            let dur_ns = self.tel.now_ns().saturating_sub(start_ns);
            self.spans.push(BenchSpan { label, dur_ns });
        }
    }
}

/// Named exact counts of one run. Every run of one workload and seed must
/// produce the same list.
pub type Counts = Vec<(&'static str, u64)>;

/// One closed-loop run of a whole simulation.
pub struct Rep {
    /// Wall time of the step loop (with the durable checkpoint calls on
    /// `gpu4-sparse-ft`), probes excluded.
    pub wall_s: f64,
    /// The same in reference-host seconds (0 unless probing).
    pub ref_s: f64,
    /// `None` when every step returned `Ok` and the trajectory matched the
    /// serial reference bitwise.
    pub error: Option<String>,
    pub counts: Counts,
    /// The benchmark's own spans (traced runs only).
    pub spans: Vec<BenchSpan>,
}

/// Run `w` once from construction to the last step. `tel` is
/// [`Telemetry::disabled`] for timed runs; an enabled handle is attached to
/// the simulation and also clocks the benchmark's own spans. `probing`
/// brackets the timed work with host-speed probes.
pub fn run_once(
    w: Workload,
    params: &SimParams,
    reference: &Reference,
    tel: &Telemetry,
    probing: bool,
    ckpt_path: &Path,
) -> Rep {
    let mut rec = Recorder {
        tel: tel.clone(),
        spans: Vec::new(),
    };
    let open = rec.open();
    let built = w.build(params);
    rec.close("construct", open);
    let mut sim = match built {
        Ok(sim) => sim,
        Err(e) => {
            return Rep {
                wall_s: 0.0,
                ref_s: 0.0,
                error: Some(format!("construction failed: {e}")),
                counts: Vec::new(),
                spans: rec.spans,
            }
        }
    };
    if tel.is_enabled() {
        sim.enable_telemetry(tel.clone());
    }

    let mut active_unit_steps = 0u64;
    let mut persist_bytes = 0u64;
    let mut counted = Counts::new();
    let open = rec.open();
    let mut clock = Stopwatch::start(probing);
    let result = (|| -> Result<(), String> {
        for step in 1..=params.steps {
            let open = rec.open();
            let r = sim.advance_step();
            rec.close("advance_step", open);
            r.map_err(|e| format!("step {step}: {e}"))?;
            active_unit_steps += sim.active_units();
            if w.fault_tolerant() && step % PERSIST_EVERY == 0 {
                let open = rec.open();
                let cp = sim.checkpoint();
                rec.close("checkpoint", open);
                let open = rec.open();
                persist_checkpoint(ckpt_path, params, &cp).map_err(|e| e.to_string())?;
                rec.close("persist", open);
                persist_bytes += std::fs::metadata(ckpt_path)
                    .map_err(|e| e.to_string())?
                    .len();
            }
            clock.tick();
        }
        // Before the restore below, which starts a new checkpoint timeline.
        counted = counts(&*sim, w.exec(), active_unit_steps, persist_bytes);
        if w.fault_tolerant() {
            check_fault_tolerance(&counted)?;
        }
        if w.fault_tolerant() {
            let open = rec.open();
            let cp = load_checkpoint(ckpt_path, params).map_err(|e| e.to_string())?;
            rec.close("load_checkpoint", open);
            let open = rec.open();
            sim.restore(&cp).map_err(|e| e.to_string())?;
            rec.close("restore", open);
        }
        Ok(())
    })();
    clock.lap();
    rec.close("loop", open);

    let error = result.err().or_else(|| reference.divergence(&*sim));
    Rep {
        wall_s: clock.wall_s,
        ref_s: clock.ref_s,
        error,
        counts: counted,
        spans: rec.spans,
    }
}

fn counts(sim: &dyn Simulation, exec: Exec, active_unit_steps: u64, persist_bytes: u64) -> Counts {
    let comm = sim.comm_counters();
    let dev = sim.total_counters();
    let ckpt = sim.checkpoint_stats();
    let integrity = sim.integrity_stats();
    let recoveries = sim.recovery_log();
    let launches =
        dev.update.launches + dev.reduce.launches + dev.tile_check.launches + dev.halo.launches;
    let (cpu, gpu) = match exec {
        Exec::Cpu => (1, 0),
        Exec::Gpu => (0, 1),
        Exec::Serial => (0, 0),
    };
    vec![
        ("pgas.supersteps", comm.supersteps),
        ("pgas.messages", comm.messages),
        ("pgas.bytes", comm.bytes),
        ("pgas.bulk_messages", comm.bulk_messages),
        ("pgas.bulk_bytes", comm.bulk_bytes),
        ("pgas.allreduces", comm.allreduces),
        ("cpu.active_voxel_steps", cpu * active_unit_steps),
        ("cpu.update_elements", cpu * dev.update.elements),
        ("cpu.halo_bytes", cpu * dev.halo.bytes),
        ("gpu.active_tile_steps", gpu * active_unit_steps),
        ("gpu.update.elements", gpu * dev.update.elements),
        ("gpu.reduce.elements", gpu * dev.reduce.elements),
        ("gpu.reduce.atomics", gpu * dev.reduce.atomics),
        ("gpu.tile_check.elements", gpu * dev.tile_check.elements),
        ("gpu.halo.bytes", gpu * dev.halo.bytes),
        ("gpu.launches", gpu * launches),
        ("driver.ckpt_saves", ckpt.saves),
        ("driver.ckpt_delta_bytes", ckpt.delta_bytes),
        ("driver.ckpt_full_bytes", ckpt.full_bytes),
        ("driver.scrubs", integrity.scrubs_run),
        ("driver.audits", integrity.audits_run),
        ("driver.recoveries", recoveries.len() as u64),
        (
            "driver.replayed_steps",
            recoveries.iter().map(|r| r.replayed_steps).sum(),
        ),
        ("driver.persist_bytes", persist_bytes),
    ]
}

/// `gpu4-sparse-ft` is only measured if its layer ran: the seeded rank
/// death was recovered once by a rollback and replay, and checkpoints,
/// scrubs, audits and durable persists all happened.
fn check_fault_tolerance(counts: &Counts) -> Result<(), String> {
    let get = |name| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let missing: Vec<String> = [
        ("driver.recoveries", get("driver.recoveries") == 1, "== 1"),
        (
            "driver.replayed_steps",
            get("driver.replayed_steps") > 0,
            "> 0",
        ),
        ("driver.ckpt_saves", get("driver.ckpt_saves") > 0, "> 0"),
        ("driver.scrubs", get("driver.scrubs") > 0, "> 0"),
        ("driver.audits", get("driver.audits") > 0, "> 0"),
        (
            "driver.persist_bytes",
            get("driver.persist_bytes") > 0,
            "> 0",
        ),
    ]
    .into_iter()
    .filter(|&(_, ok, _)| !ok)
    .map(|(name, _, want)| format!("{name} = {} (want {want})", get(name)))
    .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "fault-tolerance layer did not run: {}",
            missing.join(", ")
        ))
    }
}

/// Rebuild every step's extravasation trial table from the reference's
/// circulating pool, as the CPU and GPU drivers do before each step.
/// Returns the total entry count and the seconds spent in
/// `TrialTable::build`.
pub fn replay_trial_tables(params: &SimParams, reference: &Reference) -> (u64, f64) {
    let (mut entries, mut seconds) = (0u64, 0.0);
    for (t, &ntrials) in reference.circulating.iter().enumerate() {
        let t0 = Instant::now();
        let table = TrialTable::build(params, t as u64, ntrials);
        seconds += t0.elapsed().as_secs_f64();
        entries += std::hint::black_box(table).len() as u64;
    }
    (entries, seconds)
}
