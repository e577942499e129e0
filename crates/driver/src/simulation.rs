//! The unified [`Simulation`] driver API and the [`Executor`] contract the
//! CPU and GPU executors implement — the *effect shell* over the pure
//! control-plane core in [`crate::state`].
//!
//! `Simulation` is the object-safe surface embedders program against
//! (`Box<dyn Simulation>` in the CLI and benches); `Executor` is the small
//! set of executor-specific hooks. The step loop here owns only the impure
//! world — disk persistence, clocks, pool dispatch, telemetry emission,
//! the checkpoint store's actual generations — and reduces every
//! observation to an [`Event`] fed to [`DriverState::apply`]; the returned
//! [`Effect`]s are executed in order by the shell's dispatch loop. No recovery, retry,
//! quarantine or checkpoint-scheduling *decision* is made in this file.

use std::collections::VecDeque;
use std::time::Instant;

use gpusim::metrics::{MetricsSink, StepRecord};
use gpusim::{CostModel, DeviceCounters, HwProfile};
use pgas::fault::{
    IntegrityDetector, IntegrityRecord, PendingStateCorruption, RecoveryRecord, SuperstepError,
};
use pgas::CommCounters;
use simcov_core::checkpoint::RunCheckpoint;
use simcov_core::extrav::TrialTable;
use simcov_core::foi::FoiPattern;
use simcov_core::params::SimParams;
use simcov_core::serial::SerialSim;
use simcov_core::stats::{StatsPartial, StepStats, TimeSeries};
use simcov_core::world::World;
use simcov_telemetry::{HealthConfig, HealthMonitor, HealthRecord, RankWalls, SpanKind, Telemetry};

use crate::core::DriverCore;
use crate::error::{ConfigError, SimError};
use crate::state::{DriverState, Effect, Event, ScrubVerdict, StopCause};

/// Aggregate counters of the in-memory incremental checkpoint store, for
/// structured reporting through `dyn Simulation` (the sweep server and the
/// fault/SDC sweeps read these without downcasting to an executor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints taken this run.
    pub saves: u64,
    /// Bytes a dense (full-world) encoding of every save would have cost.
    pub full_bytes: u64,
    /// Bytes the incremental (delta) encoding actually cost.
    pub delta_bytes: u64,
    /// Generations quarantined by verified-rollback queries.
    pub quarantined: u64,
}

/// Aggregate counters of the SDC defense, for structured reporting through
/// `dyn Simulation`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Prologue seal scrubs performed.
    pub scrubs_run: u64,
    /// Invariant audits performed.
    pub audits_run: u64,
}

/// Executor-specific hooks. Implementations own a [`DriverCore`] plus their
/// rank/device collection and BSP mailboxes; the step loop, checkpointing
/// and recovery live in the blanket [`Simulation`] impl.
///
/// Method names are deliberately distinct from [`Simulation`]'s so that a
/// concrete executor never has two candidate methods for one call.
pub trait Executor {
    fn core(&self) -> &DriverCore;
    fn core_mut(&mut self) -> &mut DriverCore;

    /// Stable executor name (`"cpu"`, `"gpu"`), used in structured output.
    fn exec_name(&self) -> &'static str;

    /// Number of live execution units (ranks or devices).
    fn unit_count(&self) -> usize;

    /// Active work units right now: active-list voxels (CPU) or active
    /// tiles (GPU), summed over units.
    fn live_active_units(&self) -> u64;

    /// Aggregate work counters of the live units (excludes generations
    /// retired by recovery — see [`DriverCore::retired_counters`]).
    fn live_counters(&self) -> DeviceCounters;

    /// The hardware profile this executor is costed under.
    fn hw_profile<'a>(&self, model: &'a CostModel) -> &'a HwProfile;

    fn bsp_counters(&self) -> CommCounters;

    /// Hand the telemetry handle down to the BSP runtime (and, for the GPU
    /// executor, to every device) so supersteps, rank phases and kernel
    /// phases record spans. Called by [`Simulation::enable_telemetry`] after
    /// [`DriverCore::telemetry`] is set; `rebuild` implementations must
    /// re-attach from the core so telemetry survives elastic shrinks.
    fn attach_unit_telemetry(&mut self) {}

    /// Drain the per-superstep rank wall-clock samples the BSP layer
    /// accumulated (empty when telemetry is off). The driver feeds these to
    /// the health monitor after every completed step.
    fn take_rank_walls(&mut self) -> Vec<RankWalls> {
        Vec::new()
    }

    /// Active work units per execution unit (active-list voxels per rank /
    /// active tiles per device) — the health monitor's load-imbalance input.
    fn per_unit_active(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Compute step `t`: run the executor's supersteps and return the
    /// globally-reduced statistics partial. On `Err` the unit states are
    /// not trustworthy; the driver rolls back and rebuilds. The error
    /// distinguishes fail-stop failures from unhealed in-flight corruption
    /// ([`SuperstepError::Integrity`]); both take the rollback tier.
    fn compute_step(&mut self, t: u64, trials: &TrialTable)
        -> Result<StatsPartial, SuperstepError>;

    /// Drain the state-corruption events the fault plan scheduled during
    /// the last `compute_step`. The driver applies them *after* resealing,
    /// so the next prologue scrub is guaranteed to detect them.
    fn take_pending_state_corruptions(&mut self) -> Vec<PendingStateCorruption> {
        Vec::new()
    }

    /// Flip one seeded bit in unit `unit`'s resident model state (the SDC
    /// injection the driver performs on behalf of the fault plan).
    fn corrupt_unit_state(&mut self, _unit: usize, _seed: u64) {}

    /// Drain integrity records accumulated by the BSP layer (in-barrier
    /// retransmit heals); the driver stamps them with the simulation step.
    fn take_bsp_integrity_records(&mut self) -> Vec<IntegrityRecord> {
        Vec::new()
    }

    /// Tear down the unit collection and rebuild it over `n_units` units
    /// from `world` (re-partitioning the grid — the elastic shrink after a
    /// rank death). Must update [`DriverCore::partition`] and carry the BSP
    /// runtime forward via [`pgas::Bsp::rebuilt`] so cumulative counters,
    /// the trace and the remaining fault plan survive.
    fn rebuild(&mut self, world: &World, n_units: usize) -> Result<(), ConfigError>;

    /// Assemble the full world from the distributed subdomains.
    fn assemble_world(&self) -> World;
}

/// The unified driver API: one object-safe surface over the serial, CPU and
/// GPU executors. Obtain one from `CpuSim`, `GpuSim` or [`SerialDriver`];
/// everything downstream (CLI, benches, tests) programs against
/// `&mut dyn Simulation`.
pub trait Simulation {
    /// Stable executor name (`"serial"`, `"cpu"`, `"gpu"`).
    fn name(&self) -> &'static str;

    fn params(&self) -> &SimParams;

    /// Next step to compute (= steps completed so far).
    fn step(&self) -> u64;

    /// Advance one timestep. With recovery engaged, detected failures roll
    /// back to the last checkpoint, re-partition across survivors and
    /// replay — so one call may compute several steps, and `Ok` means the
    /// trajectory has advanced by exactly one step beyond where it was.
    fn advance_step(&mut self) -> Result<(), SimError>;

    /// Run all configured steps.
    fn run(&mut self) -> Result<(), SimError> {
        while self.step() < self.params().steps {
            self.advance_step()?;
        }
        Ok(())
    }

    fn history(&self) -> &TimeSeries;

    fn last_stats(&self) -> Option<StepStats> {
        self.history().steps.last().copied()
    }

    /// Assemble the full world (gathered from subdomains where distributed).
    fn gather_world(&self) -> World;

    /// Number of execution units (1 for serial, ranks for CPU, devices for
    /// GPU). May shrink after a recovery from rank death.
    fn n_units(&self) -> usize;

    /// Active work units right now (executor-specific granularity).
    fn active_units(&self) -> u64;

    /// Install a per-step metrics consumer; records flow from the next step.
    fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink<StepRecord>>);

    /// Attach a telemetry handle: driver steps, BSP supersteps, rank phases
    /// and (on the GPU executor) kernel phases record spans on it from the
    /// next step. Telemetry is pure observation — an attached handle never
    /// changes the trajectory.
    fn enable_telemetry(&mut self, tel: Telemetry);

    /// The attached telemetry handle (disabled handle when none was attached).
    fn telemetry_handle(&self) -> Telemetry;

    /// Engage online health monitoring (stragglers, load imbalance, comm
    /// spikes). Straggler detection needs per-rank walls, so attach
    /// telemetry first; no-op on the serial executor.
    fn enable_health(&mut self, cfg: HealthConfig);

    /// Every health finding so far, in detection order.
    fn health_records(&self) -> &[HealthRecord];

    /// Cumulative communication counters (zeros for serial).
    fn comm_counters(&self) -> CommCounters;

    /// Cumulative work counters, including generations retired by recovery.
    fn total_counters(&self) -> DeviceCounters;

    /// Snapshot the full model state for later [`Simulation::restore`].
    fn checkpoint(&self) -> RunCheckpoint;

    /// Restore a [`Simulation::checkpoint`] — the world, vascular pool,
    /// history and step counter are replaced wholesale.
    fn restore(&mut self, cp: &RunCheckpoint) -> Result<(), SimError>;

    /// Every fault recovery performed so far, in order.
    fn recovery_log(&self) -> &[RecoveryRecord];

    /// Every integrity event detected so far, in order (empty on executors
    /// without an SDC defense).
    fn integrity_log(&self) -> &[IntegrityRecord] {
        &[]
    }

    /// Counters of the in-memory checkpoint store (zeros when recovery is
    /// not engaged).
    fn checkpoint_stats(&self) -> CheckpointStats {
        CheckpointStats::default()
    }

    /// Counters of the SDC defense (zeros when it is not engaged).
    fn integrity_stats(&self) -> IntegrityStats {
        IntegrityStats::default()
    }

    /// Point this simulation's intra-step parallelism at a shared pool (a
    /// batch scheduler running many simulations at once shares one). No-op
    /// on the serial executor. Never changes results — only which threads
    /// run the work.
    fn share_pool(&mut self, _pool: std::sync::Arc<pgas::WorkPool>) {}

    /// Start recording control-plane events for deterministic replay. The
    /// current control state becomes the replay starting point. No-op on
    /// executors without a control plane.
    fn enable_event_recording(&mut self) {}

    /// The recorded control-plane event log (empty when recording is off).
    fn event_log(&self) -> &[Event] {
        &[]
    }

    /// The live pure control-plane state (`None` where no state machine
    /// drives the executor).
    fn control_state(&self) -> Option<&DriverState> {
        None
    }

    /// The control-state snapshot event recording started from.
    fn replay_initial_state(&self) -> Option<&DriverState> {
        None
    }
}

impl<E: Executor> Simulation for E {
    fn name(&self) -> &'static str {
        self.exec_name()
    }

    fn params(&self) -> &SimParams {
        &self.core().params
    }

    fn step(&self) -> u64 {
        self.core().step
    }

    fn advance_step(&mut self) -> Result<(), SimError> {
        let target = self.core().step + 1;
        let tel = self.core().telemetry.clone();
        dispatch(self, Event::AdvanceRequested)?;
        // After a rollback `core.step` drops below `target`; the loop
        // replays the intermediate steps until the trajectory is one step
        // further than when we were called.
        while self.core().step < target {
            // Prologue: verify the canonical state *before* compute consumes
            // it and before a checkpoint could capture it. On a violation
            // the core rolls the run back to the newest verified generation.
            if self.core().integrity.is_some() {
                let verdict = scrub_verdict(self);
                dispatch(self, Event::Scrubbed { verdict })?;
            }
            if self.core().state.checkpoint_due() {
                let world = self.assemble_world();
                let core = self.core_mut();
                let step = core.step;
                let rm = core
                    .recovery
                    .as_mut()
                    .expect("checkpoint_due implies a recovery manager");
                rm.store.save(step, &world, &core.vascular, &core.history);
                dispatch(self, Event::CheckpointSaved { step })?;
            }
            let t = self.core().step;
            // Root of this step's span tree: supersteps parent to it via the
            // published step-parent slot.
            let step_open = tel.open();
            if tel.is_enabled() {
                tel.set_step_parent(step_open.id);
            }
            let start = self.core().metrics.as_ref().map(|_| Instant::now());
            let trials =
                TrialTable::build(&self.core().params, t, self.core().vascular.circulating());
            match self.compute_step(t, &trials) {
                Ok(partial) => {
                    dispatch(self, Event::StepComputed { step: t })?;
                    finish_step(self, t, partial, start);
                    epilogue_integrity(self, t)?;
                    if tel.is_enabled() {
                        observe_health(self, t, &tel);
                        tel.close(0, "step", SpanKind::Step, 0, step_open, t, 0);
                        if let Some(h) = self.core().step_hist.as_ref() {
                            h.observe(tel.now_ns().saturating_sub(step_open.start_ns));
                        }
                    }
                }
                Err(failure) => {
                    let attempt = self.core().state.attempt + 1;
                    if tel.is_enabled() {
                        tel.instant(0, "recovery", step_open.id, t, attempt as u64);
                        tel.close(0, "step", SpanKind::Step, 0, step_open, t, attempt as u64);
                    }
                    dispatch(self, Event::ComputeFailed { error: failure })?;
                }
            }
        }
        Ok(())
    }

    fn history(&self) -> &TimeSeries {
        &self.core().history
    }

    fn gather_world(&self) -> World {
        self.assemble_world()
    }

    fn n_units(&self) -> usize {
        self.unit_count()
    }

    fn active_units(&self) -> u64 {
        self.live_active_units()
    }

    fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink<StepRecord>>) {
        self.core_mut().metrics = Some(sink);
    }

    fn enable_telemetry(&mut self, tel: Telemetry) {
        self.core_mut().step_hist = tel.registry().map(|r| {
            r.histogram(
                "simcov_step_wall_ns",
                "Wall-clock nanoseconds per whole driver step",
            )
        });
        self.core_mut().telemetry = tel;
        self.attach_unit_telemetry();
    }

    fn telemetry_handle(&self) -> Telemetry {
        self.core().telemetry.clone()
    }

    fn enable_health(&mut self, cfg: HealthConfig) {
        let core = self.core_mut();
        core.health = Some(HealthMonitor::with_config(cfg));
        core.health_prev_comm = CommCounters::default();
    }

    fn health_records(&self) -> &[HealthRecord] {
        self.core()
            .health
            .as_ref()
            .map(|m| m.records())
            .unwrap_or(&[])
    }

    fn comm_counters(&self) -> CommCounters {
        self.bsp_counters()
    }

    fn total_counters(&self) -> DeviceCounters {
        let mut total = self.core().retired_counters;
        total.merge(&self.live_counters());
        total
    }

    fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            step: self.core().step,
            world: self.assemble_world(),
            pool: self.core().vascular.clone(),
            history: self.core().history.clone(),
        }
    }

    fn restore(&mut self, cp: &RunCheckpoint) -> Result<(), SimError> {
        if cp.world.dims != self.core().params.dims {
            return Err(SimError::Restore(format!(
                "checkpoint dims {:?} do not match configured {:?}",
                cp.world.dims,
                self.core().params.dims
            )));
        }
        let n = self.unit_count();
        self.rebuild(&cp.world, n).map_err(SimError::Config)?;
        let core = self.core_mut();
        core.vascular = cp.pool.clone();
        core.history = cp.history.clone();
        core.step = cp.step;
        // The restored state starts a new timeline: recovery must never
        // roll back across it to a checkpoint from the old one.
        if let Some(rm) = core.recovery.as_mut() {
            rm.store = simcov_core::checkpoint::CheckpointStore::new();
        }
        // Likewise the seal: the old one described the replaced state.
        if let Some(mon) = core.integrity.as_mut() {
            mon.reseal(&cp.world, &cp.pool);
        }
        dispatch(self, Event::ExternalRestore { step: cp.step })?;
        Ok(())
    }

    fn recovery_log(&self) -> &[RecoveryRecord] {
        self.core()
            .recovery
            .as_ref()
            .map(|rm| rm.log.as_slice())
            .unwrap_or(&[])
    }

    fn integrity_log(&self) -> &[IntegrityRecord] {
        &self.core().integrity_log
    }

    fn checkpoint_stats(&self) -> CheckpointStats {
        self.core()
            .recovery
            .as_ref()
            .map(|rm| CheckpointStats {
                saves: rm.store.saves,
                full_bytes: rm.store.full_bytes,
                delta_bytes: rm.store.delta_bytes,
                quarantined: rm.store.quarantined,
            })
            .unwrap_or_default()
    }

    fn integrity_stats(&self) -> IntegrityStats {
        self.core()
            .integrity
            .as_ref()
            .map(|mon| IntegrityStats {
                scrubs_run: mon.scrubs_run,
                audits_run: mon.audits_run,
            })
            .unwrap_or_default()
    }

    fn share_pool(&mut self, pool: std::sync::Arc<pgas::WorkPool>) {
        self.core_mut().share_pool(pool);
    }

    fn enable_event_recording(&mut self) {
        self.core_mut().enable_event_recording();
    }

    fn event_log(&self) -> &[Event] {
        self.core().event_log.as_deref().unwrap_or(&[])
    }

    fn control_state(&self) -> Option<&DriverState> {
        Some(&self.core().state)
    }

    fn replay_initial_state(&self) -> Option<&DriverState> {
        Some(&self.core().initial_state)
    }
}

/// Post-step health observation: drain the BSP layer's per-superstep rank
/// walls (always, so the buffer never grows unboundedly), then — when a
/// monitor is engaged — feed walls, per-unit active counts and the step's
/// comm-byte delta through it, and stamp any fresh finding onto the trace
/// timeline as an instant marker under the current step span.
fn observe_health<E: Executor + ?Sized>(exec: &mut E, t: u64, tel: &Telemetry) {
    let walls = exec.take_rank_walls();
    if exec.core().health.is_none() {
        return;
    }
    let active = exec.per_unit_active();
    let comm = exec.bsp_counters();
    let now = tel.now_ns();
    let step_span = tel.step_parent();
    let core = exec.core_mut();
    let delta_bytes = (comm.bytes + comm.bulk_bytes)
        .saturating_sub(core.health_prev_comm.bytes + core.health_prev_comm.bulk_bytes);
    core.health_prev_comm = comm;
    let mon = core.health.as_mut().expect("checked above");
    let mut fresh = Vec::new();
    for w in &walls {
        fresh.extend(mon.observe_superstep(t, w.superstep, now, &w.walls));
    }
    fresh.extend(mon.observe_step(t, now, &active, delta_bytes));
    for r in &fresh {
        tel.instant(0, r.kind.label(), step_span, r.superstep, 0);
    }
}

/// Fold a completed step into the shared state and emit its record.
fn finish_step<E: Executor + ?Sized>(
    exec: &mut E,
    t: u64,
    partial: StatsPartial,
    start: Option<Instant>,
) {
    let mut stats = partial.finalize();
    {
        let core = exec.core_mut();
        let (rate, delay, period) = (
            core.params.tcell_generation_rate,
            core.params.tcell_initial_delay,
            core.params.tcell_vascular_period,
        );
        core.vascular
            .advance(t, rate, delay, period, stats.extravasated);
        stats.tcells_vasculature = core.vascular.circulating();
        stats.step = t;
        core.history.push(stats);
        core.step = t + 1;
    }
    if exec.core().metrics.is_some() {
        emit_step_record(exec, t, stats, start);
    }
}

/// Publish one [`StepRecord`]. Replayed steps (after a rollback) emit again
/// under the same step number — replay cost is visible in the stream, and
/// the recoveries that triggered it ride on the first record emitted after
/// them.
fn emit_step_record<E: Executor + ?Sized>(
    exec: &mut E,
    step: u64,
    stats: StepStats,
    start: Option<Instant>,
) {
    let comm = exec.bsp_counters();
    let active_units = exec.live_active_units();
    let units = exec.unit_count().max(1) as f64;
    let model = CostModel::default();
    let mut total = exec.core().retired_counters;
    total.merge(&exec.live_counters());
    let hw = exec.hw_profile(&model);
    let core = exec.core_mut();
    let snap = core.snapshots.take(step, &total, &model, hw);
    let prev = core.prev_comm;
    let rec = StepRecord {
        step,
        agents: stats.tcells_tissue,
        virions: stats.virions,
        chemokine: stats.chemokine,
        active_units,
        comm_messages: (comm.messages + comm.bulk_messages) - (prev.messages + prev.bulk_messages),
        comm_bytes: (comm.bytes + comm.bulk_bytes) - (prev.bytes + prev.bulk_bytes),
        sim_seconds: snap.cost.total() / units,
        real_seconds: start.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0),
        phases: snap,
        recoveries: std::mem::take(&mut core.pending_recoveries),
        integrity: std::mem::take(&mut core.pending_integrity),
    };
    core.prev_comm = comm;
    if let Some(sink) = core.metrics.as_mut() {
        sink.record(rec);
    }
}

/// Feed one observation into the pure core and execute every effect it
/// requests, in order. The store's answer to a rollback query is itself an
/// observation, so [`Effect::FetchRollbackTarget`] enqueues a follow-up
/// [`Event::RollbackTargetFetched`] — the queue drains until the core is
/// quiescent. When event recording is on, every applied event (including
/// the store answers) lands in the log, so a replay needs no store.
fn dispatch<E: Executor + ?Sized>(exec: &mut E, event: Event) -> Result<(), SimError> {
    let mut queue = VecDeque::new();
    queue.push_back(event);
    while let Some(ev) = queue.pop_front() {
        if let Some(log) = exec.core_mut().event_log.as_mut() {
            log.push(ev.clone());
        }
        let state = std::mem::take(&mut exec.core_mut().state);
        let (next, effects) = state.apply(ev);
        exec.core_mut().state = next;
        for eff in effects {
            match eff {
                Effect::EmitIntegrity(rec) => exec.core_mut().push_integrity(rec),
                Effect::EmitRecovery(rec) => {
                    let core = exec.core_mut();
                    if let Some(rm) = core.recovery.as_mut() {
                        rm.log.push(rec.clone());
                    }
                    core.pending_recoveries.push(rec);
                }
                Effect::FetchRollbackTarget { verified_only } => {
                    let (cp, quarantined) = {
                        let rm = exec
                            .core_mut()
                            .recovery
                            .as_mut()
                            .expect("a rollback query implies a recovery manager");
                        if verified_only {
                            let before = rm.store.quarantined;
                            let cp = rm.store.latest_verified().cloned();
                            (cp, rm.store.quarantined - before)
                        } else {
                            (rm.store.latest().cloned(), 0)
                        }
                    };
                    let step = cp.as_ref().map(|c| c.step);
                    exec.core_mut().staged_rollback = cp;
                    queue.push_back(Event::RollbackTargetFetched { step, quarantined });
                }
                Effect::Rollback { survivors } => perform_rollback(exec, survivors)?,
                Effect::Halt(cause) => return Err(cause_to_error(cause)),
            }
        }
    }
    Ok(())
}

/// Map a terminal [`StopCause`] onto the public error surface.
fn cause_to_error(cause: StopCause) -> SimError {
    match cause {
        StopCause::Unrecoverable(e) => SimError::Unrecoverable(e),
        StopCause::RetriesExhausted { last, attempts } => {
            SimError::RetriesExhausted { last, attempts }
        }
        StopCause::Integrity { step, violation } => SimError::Integrity { step, violation },
    }
}

/// Prologue observation while the SDC defense is engaged: scrub the
/// canonical state against last step's seal, and run the invariant audit
/// when due. Pure detection only — what happens on a violation is the
/// core's decision.
fn scrub_verdict<E: Executor + ?Sized>(exec: &mut E) -> Option<ScrubVerdict> {
    let step = exec.core().step;
    let audit_due = exec
        .core()
        .integrity
        .as_ref()
        .is_some_and(|mon| mon.audit_due(step));
    let world = exec.assemble_world();
    let core = exec.core_mut();
    let mon = core.integrity.as_mut()?;
    match mon.scrub(&world, &core.vascular) {
        Err(v) => Some(ScrubVerdict {
            violation: v,
            detector: IntegrityDetector::SealScrub,
        }),
        Ok(()) if audit_due => mon
            .audit(&world, &core.vascular)
            .err()
            .map(|v| ScrubVerdict {
                violation: v,
                detector: IntegrityDetector::InvariantAudit,
            }),
        Ok(()) => None,
    }
}

/// Execute a decided rollback: retire the live work counters before the
/// unit collection is torn down (so totals never lose the failed epoch's
/// work), re-partition over the staged checkpoint's world, swap in its
/// pool/history/step, and reseal.
fn perform_rollback<E: Executor + ?Sized>(exec: &mut E, survivors: usize) -> Result<(), SimError> {
    let cp = exec
        .core_mut()
        .staged_rollback
        .take()
        .expect("a Rollback effect follows a successful target fetch");
    let live = exec.live_counters();
    exec.core_mut().retired_counters.merge(&live);
    exec.rebuild(&cp.world, survivors)
        .map_err(SimError::Config)?;
    let core = exec.core_mut();
    core.vascular = cp.pool;
    core.history = cp.history;
    core.step = cp.step;
    if let Some(mon) = core.integrity.as_mut() {
        mon.reseal(&cp.world, &core.vascular);
    }
    Ok(())
}

/// Epilogue of every completed step: report the BSP layer's in-barrier heal
/// records to the core, reseal the post-step state, then apply any
/// scheduled state corruption *after* the seal — so the flip lands on
/// sealed state and the next prologue scrub is guaranteed to catch it.
fn epilogue_integrity<E: Executor + ?Sized>(exec: &mut E, t: u64) -> Result<(), SimError> {
    let heals = exec.take_bsp_integrity_records();
    if !heals.is_empty() {
        dispatch(
            exec,
            Event::BarrierHeals {
                step: t,
                records: heals,
            },
        )?;
    }
    if exec.core().integrity.is_some() {
        let world = exec.assemble_world();
        let core = exec.core_mut();
        if let Some(mon) = core.integrity.as_mut() {
            mon.reseal(&world, &core.vascular);
        }
    }
    let pending = exec.take_pending_state_corruptions();
    for p in pending {
        let unit = p.rank % exec.unit_count().max(1);
        exec.corrupt_unit_state(unit, p.seed);
        dispatch(
            exec,
            Event::CorruptionApplied {
                step: t,
                superstep: p.superstep,
            },
        )?;
    }
    Ok(())
}

/// The serial reference executor behind the unified driver API.
///
/// [`SerialSim`] has no runtime (no ranks, no mailboxes, no fault surface),
/// so it implements [`Simulation`] directly rather than through
/// [`Executor`]: communication counters are empty, recovery is
/// unavailable, and checkpoint/restore operate on the whole world.
pub struct SerialDriver {
    sim: SerialSim,
    metrics: Option<Box<dyn MetricsSink<StepRecord>>>,
    /// Attached telemetry: serial steps record flat `step` spans (no
    /// supersteps or ranks exist to nest under them).
    telemetry: Telemetry,
    /// Pure control state: the serial executor has no fault surface, so
    /// this only tracks the step counter — but it keeps the replay
    /// machinery uniform across all three executors.
    state: DriverState,
    /// Snapshot the event log replays from (see `enable_event_recording`).
    initial_state: DriverState,
    event_log: Option<Vec<Event>>,
}

impl SerialDriver {
    pub fn new(params: SimParams) -> Result<Self, ConfigError> {
        Self::with_pattern(params, FoiPattern::UniformLattice)
    }

    pub fn with_pattern(params: SimParams, pattern: FoiPattern) -> Result<Self, ConfigError> {
        params.validate().map_err(ConfigError::InvalidParams)?;
        Ok(SerialDriver {
            sim: SerialSim::with_pattern(params, pattern),
            metrics: None,
            telemetry: Telemetry::disabled(),
            state: DriverState::initial(1, None, false),
            initial_state: DriverState::initial(1, None, false),
            event_log: None,
        })
    }

    pub fn from_world(params: SimParams, world: World) -> Result<Self, ConfigError> {
        params.validate().map_err(ConfigError::InvalidParams)?;
        if world.dims != params.dims {
            return Err(ConfigError::DimsMismatch {
                expected: params.dims,
                got: world.dims,
            });
        }
        Ok(SerialDriver {
            sim: SerialSim::from_world(params, world),
            metrics: None,
            telemetry: Telemetry::disabled(),
            state: DriverState::initial(1, None, false),
            initial_state: DriverState::initial(1, None, false),
            event_log: None,
        })
    }

    pub fn inner(&self) -> &SerialSim {
        &self.sim
    }

    pub fn inner_mut(&mut self) -> &mut SerialSim {
        &mut self.sim
    }

    /// Apply one control event to the serial executor's pure state. The
    /// serial core never requests effects (no recovery, no integrity),
    /// which the debug assertion pins down.
    fn record(&mut self, ev: Event) {
        if let Some(log) = self.event_log.as_mut() {
            log.push(ev.clone());
        }
        let state = std::mem::take(&mut self.state);
        let (next, effects) = state.apply(ev);
        debug_assert!(effects.is_empty(), "serial control plane is effect-free");
        self.state = next;
    }
}

impl Simulation for SerialDriver {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn params(&self) -> &SimParams {
        &self.sim.params
    }

    fn step(&self) -> u64 {
        self.sim.step
    }

    fn advance_step(&mut self) -> Result<(), SimError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let t = self.sim.step;
        self.record(Event::AdvanceRequested);
        let step_open = self.telemetry.open();
        self.sim.advance_step();
        self.record(Event::StepComputed { step: t });
        self.telemetry
            .close(0, "step", SpanKind::Step, 0, step_open, t, 0);
        if let Some(sink) = self.metrics.as_mut() {
            let s = self.sim.last_stats().copied().unwrap_or_default();
            sink.record(StepRecord {
                step: t,
                agents: s.tcells_tissue,
                virions: s.virions,
                chemokine: s.chemokine,
                active_units: self.sim.world.nvoxels() as u64,
                real_seconds: start.map(|i| i.elapsed().as_secs_f64()).unwrap_or(0.0),
                ..Default::default()
            });
        }
        Ok(())
    }

    fn history(&self) -> &TimeSeries {
        &self.sim.history
    }

    fn gather_world(&self) -> World {
        self.sim.world.clone()
    }

    fn n_units(&self) -> usize {
        1
    }

    /// The serial executor sweeps every voxel every step.
    fn active_units(&self) -> u64 {
        self.sim.world.nvoxels() as u64
    }

    fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink<StepRecord>>) {
        self.metrics = Some(sink);
    }

    fn enable_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = tel;
    }

    fn telemetry_handle(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// No ranks, no supersteps: there is nothing for the monitor to watch.
    fn enable_health(&mut self, _cfg: HealthConfig) {}

    fn health_records(&self) -> &[HealthRecord] {
        &[]
    }

    fn comm_counters(&self) -> CommCounters {
        CommCounters::new()
    }

    fn total_counters(&self) -> DeviceCounters {
        DeviceCounters::new()
    }

    fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            step: self.sim.step,
            world: self.sim.world.clone(),
            pool: self.sim.pool.clone(),
            history: self.sim.history.clone(),
        }
    }

    fn restore(&mut self, cp: &RunCheckpoint) -> Result<(), SimError> {
        if cp.world.dims != self.sim.params.dims {
            return Err(SimError::Restore(format!(
                "checkpoint dims {:?} do not match configured {:?}",
                cp.world.dims, self.sim.params.dims
            )));
        }
        self.sim.world = cp.world.clone();
        self.sim.pool = cp.pool.clone();
        self.sim.history = cp.history.clone();
        self.sim.step = cp.step;
        self.record(Event::ExternalRestore { step: cp.step });
        Ok(())
    }

    fn recovery_log(&self) -> &[RecoveryRecord] {
        &[]
    }

    fn enable_event_recording(&mut self) {
        self.initial_state = self.state.clone();
        self.event_log = Some(Vec::new());
    }

    fn event_log(&self) -> &[Event] {
        self.event_log.as_deref().unwrap_or(&[])
    }

    fn control_state(&self) -> Option<&DriverState> {
        Some(&self.state)
    }

    fn replay_initial_state(&self) -> Option<&DriverState> {
        Some(&self.initial_state)
    }
}
