//! The SIMCoV-CPU executor behind the unified [`Simulation`](simcov_driver::Simulation) driver API.
//!
//! `CpuSim` owns the PGAS runtime and the rank states; everything else —
//! the step loop, statistics, checkpointing, fault recovery, metrics — is
//! the shared driver shell ([`simcov_driver::DriverCore`]) driven through
//! the [`simcov_driver::Executor`] contract. Every recovery/retry/
//! quarantine *decision* along the way is made by the pure control-plane
//! core ([`simcov_driver::DriverState`]); with
//! `Simulation::enable_event_recording` the run's control decisions replay
//! deterministically from the recorded event log.

use gpusim::{CostModel, DeviceCounters, HwProfile};
use pgas::fault::{FaultPlan, IntegrityRecord, PendingStateCorruption, SuperstepError};
use pgas::{allreduce, Bsp, CommCounters, WorkPool};
use simcov_core::decomp::{Partition, Strategy};
use simcov_core::extrav::TrialTable;
use simcov_core::foi::FoiPattern;
use simcov_core::lanes::KernelMode;
use simcov_core::params::SimParams;
use simcov_core::stats::StatsPartial;
use simcov_core::world::World;
use simcov_driver::{ConfigError, DriverCore, Executor, RecoveryPolicy};

use crate::msg::CpuMsg;
use crate::rank::CpuRank;

/// Configuration of a CPU-baseline run.
#[derive(Debug, Clone)]
pub struct CpuSimConfig {
    pub params: SimParams,
    /// Number of logical CPU ranks (cores in the paper's terms).
    pub n_ranks: usize,
    pub strategy: Strategy,
    pub pattern: FoiPattern,
    /// Fault schedule to arm on the BSP runtime (empty: healthy run).
    pub fault_plan: FaultPlan,
    /// Explicit recovery policy. `None` engages the default policy when a
    /// fault plan is armed, and no recovery otherwise.
    pub recovery: Option<RecoveryPolicy>,
    /// Integrity audit period override. `None` keeps the default behavior
    /// (audits engage automatically when the fault plan injects
    /// corruption); `Some(p)` engages the monitor explicitly with period
    /// `p` (0 = scrub-only, no periodic invariant audit).
    pub audit_period: Option<u64>,
    /// In-barrier retransmit budget override for corrupt batches.
    pub retransmit_budget: Option<u64>,
    /// Diffusion kernel selection (default [`KernelMode::Wide`]; `Scalar`
    /// keeps the reference path alive as the differential oracle). Bitwise
    /// identical either way.
    pub kernel: KernelMode,
    /// Worker-thread count for the shared [`WorkPool`] running rank bodies
    /// concurrently. `None` keeps the host-sized default pool; `Some(0)`
    /// forces inline (serial) execution; `Some(n)` pins `n` workers.
    /// Trajectories are bitwise identical for every value.
    pub threads: Option<usize>,
}

impl CpuSimConfig {
    pub fn new(params: SimParams, n_ranks: usize) -> Self {
        CpuSimConfig {
            params,
            n_ranks,
            strategy: Strategy::Blocks,
            pattern: FoiPattern::UniformLattice,
            fault_plan: FaultPlan::none(),
            recovery: None,
            audit_period: None,
            retransmit_budget: None,
            kernel: KernelMode::default(),
            threads: None,
        }
    }

    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn with_pattern(mut self, pattern: FoiPattern) -> Self {
        self.pattern = pattern;
        self
    }

    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    pub fn with_audit_period(mut self, period: u64) -> Self {
        self.audit_period = Some(period);
        self
    }

    pub fn with_retransmit_budget(mut self, budget: u64) -> Self {
        self.retransmit_budget = Some(budget);
        self
    }

    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// A running CPU-baseline simulation. Program against it through the
/// [`Simulation`](simcov_driver::Simulation) trait.
pub struct CpuSim {
    core: DriverCore,
    bsp: Bsp<CpuMsg>,
    pub ranks: Vec<CpuRank>,
    kernel: KernelMode,
}

impl CpuSim {
    pub fn new(cfg: CpuSimConfig) -> Result<Self, ConfigError> {
        cfg.params.validate().map_err(ConfigError::InvalidParams)?;
        let world = World::seeded(&cfg.params, cfg.pattern);
        Self::from_world(cfg, world)
    }

    /// Build from an explicit initial world (carved airways, CT lesions...).
    pub fn from_world(cfg: CpuSimConfig, world: World) -> Result<Self, ConfigError> {
        let mut core = DriverCore::new(
            cfg.params,
            cfg.n_ranks,
            cfg.strategy,
            &cfg.fault_plan,
            cfg.recovery,
        )?;
        if let Some(period) = cfg.audit_period {
            core.enable_integrity(period);
        }
        core.check_world(&world)?;
        if let Some(n) = cfg.threads {
            // Pin the worker count: rank superstep bodies run truly
            // concurrently on `n` workers (0 = inline). The pool only
            // schedules — reduction order is fixed by `allreduce`/`ExactSum`
            // — so every thread count yields the same bits.
            core.share_pool(std::sync::Arc::new(WorkPool::new(n)));
        }
        let ranks: Vec<CpuRank> = (0..cfg.n_ranks)
            .map(|r| CpuRank::new(r, &core.partition, &world, cfg.kernel))
            .collect();
        let mut bsp = Bsp::new(cfg.n_ranks);
        bsp.inject_faults(cfg.fault_plan);
        if let Some(budget) = cfg.retransmit_budget {
            bsp.set_retransmit_budget(budget);
        }
        Ok(CpuSim {
            core,
            bsp,
            ranks,
            kernel: cfg.kernel,
        })
    }

    /// The current domain decomposition (re-partitioned after recovery).
    pub fn partition(&self) -> &Partition {
        &self.core.partition
    }

    /// The busiest rank's work counters (the compute critical path).
    pub fn max_rank_counters(&self) -> DeviceCounters {
        self.ranks
            .iter()
            .fold(DeviceCounters::new(), |acc, r| acc.max(&r.counters))
    }
}

impl Executor for CpuSim {
    fn core(&self) -> &DriverCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DriverCore {
        &mut self.core
    }

    fn exec_name(&self) -> &'static str {
        "cpu"
    }

    fn unit_count(&self) -> usize {
        self.ranks.len()
    }

    fn live_active_units(&self) -> u64 {
        self.ranks.iter().map(|r| r.n_active() as u64).sum()
    }

    fn live_counters(&self) -> DeviceCounters {
        self.ranks.iter().fold(DeviceCounters::new(), |mut acc, r| {
            acc.merge(&r.counters);
            acc
        })
    }

    fn hw_profile<'a>(&self, model: &'a CostModel) -> &'a HwProfile {
        &model.cpu
    }

    fn bsp_counters(&self) -> CommCounters {
        self.bsp.counters
    }

    fn attach_unit_telemetry(&mut self) {
        self.bsp.attach_telemetry(self.core.telemetry.clone());
    }

    fn take_rank_walls(&mut self) -> Vec<simcov_telemetry::RankWalls> {
        self.bsp.take_rank_walls()
    }

    fn per_unit_active(&self) -> Vec<u64> {
        self.ranks.iter().map(|r| r.n_active() as u64).collect()
    }

    /// One timestep = three supersteps + the statistics allreduce.
    fn compute_step(
        &mut self,
        t: u64,
        trials: &TrialTable,
    ) -> Result<StatsPartial, SuperstepError> {
        let p = self.core.params.clone();
        let partition = self.core.partition.clone();
        let p_ref = &p;
        let part_ref = &partition;

        // Superstep 1: plan.
        let _extrav: Vec<u64> =
            self.bsp
                .try_superstep(&self.core.pool, &mut self.ranks, |rank, s, inbox, out| {
                    debug_assert_eq!(rank, s.rank);
                    s.plan(p_ref, t, trials, part_ref, inbox, out)
                })?;

        // Superstep 2: resolve + FSM + production.
        self.bsp
            .try_superstep(&self.core.pool, &mut self.ranks, |_r, s, inbox, out| {
                s.resolve(p_ref, t, inbox, out);
            })?;

        // Superstep 3: finish + stats partial.
        let partials: Vec<StatsPartial> =
            self.bsp
                .try_superstep(&self.core.pool, &mut self.ranks, |_r, s, inbox, out| {
                    s.finish(p_ref, t, inbox, out)
                })?;

        // Statistics allreduce (the per-step UPC++ reduction of §3.3).
        // Exact summation makes the result independent of rank count.
        Ok(allreduce(
            &partials,
            |mut a, b| {
                a += b;
                a
            },
            std::mem::size_of::<StatsPartial>(),
            &mut self.bsp.counters,
        ))
    }

    fn take_pending_state_corruptions(&mut self) -> Vec<PendingStateCorruption> {
        self.bsp.take_pending_state_corruptions()
    }

    fn corrupt_unit_state(&mut self, unit: usize, seed: u64) {
        if let Some(r) = self.ranks.get_mut(unit) {
            r.corrupt_bit(seed);
        }
    }

    fn take_bsp_integrity_records(&mut self) -> Vec<IntegrityRecord> {
        self.bsp.take_integrity_records()
    }

    fn rebuild(&mut self, world: &World, n_units: usize) -> Result<(), ConfigError> {
        let partition = Partition::try_new(self.core.params.dims, n_units, self.core.strategy)
            .map_err(ConfigError::Partition)?;
        self.ranks = (0..n_units)
            .map(|r| CpuRank::new(r, &partition, world, self.kernel))
            .collect();
        let bsp = std::mem::replace(&mut self.bsp, Bsp::new(1));
        self.bsp = bsp.rebuilt(n_units);
        // `rebuilt` carries the telemetry handle forward; re-attach from the
        // core anyway so a rebuild can never silently shed instrumentation.
        if self.core.telemetry.is_enabled() {
            self.bsp.attach_telemetry(self.core.telemetry.clone());
        }
        self.core.partition = partition;
        Ok(())
    }

    /// Assemble the full global world from all ranks (verification).
    fn assemble_world(&self) -> World {
        let mut world = World::healthy(self.core.params.dims);
        for r in &self.ranks {
            r.write_into(&mut world);
        }
        world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_core::grid::GridDims;
    use simcov_core::serial::SerialSim;
    use simcov_driver::Simulation;

    fn test_params(steps: u64) -> SimParams {
        SimParams::test_config(GridDims::new2d(24, 24), steps, 2, 42)
    }

    fn assert_matches_serial(n_ranks: usize, strategy: Strategy, steps: u64) {
        let p = test_params(steps);
        let mut serial = SerialSim::new(p.clone());
        serial.run();

        let cfg = CpuSimConfig::new(p, n_ranks).with_strategy(strategy);
        let mut cpu = CpuSim::new(cfg).expect("valid config");
        cpu.run().expect("healthy run");

        let world = cpu.gather_world();
        if let Some((idx, why)) = serial.world.first_difference(&world) {
            panic!("state diverged at voxel {idx} after {steps} steps ({n_ranks} ranks): {why}");
        }
        // Exact statistics reduction: serial and distributed histories are
        // bitwise identical, not just close.
        assert_eq!(
            serial.history,
            *cpu.history(),
            "stats must be bitwise identical across executors"
        );
    }

    #[test]
    fn matches_serial_2_ranks_linear() {
        assert_matches_serial(2, Strategy::Linear, 150);
    }

    #[test]
    fn matches_serial_4_ranks_blocks() {
        assert_matches_serial(4, Strategy::Blocks, 150);
    }

    #[test]
    fn matches_serial_9_ranks_blocks() {
        assert_matches_serial(9, Strategy::Blocks, 100);
    }

    #[test]
    fn matches_serial_single_rank() {
        assert_matches_serial(1, Strategy::Blocks, 100);
    }

    #[test]
    fn comm_counters_accumulate() {
        let p = test_params(60);
        let mut cpu = CpuSim::new(CpuSimConfig::new(p, 4)).unwrap();
        cpu.run().unwrap();
        let cc = cpu.comm_counters();
        assert_eq!(cc.supersteps, 60 * 3);
        assert_eq!(cc.allreduces, 60);
        assert!(cc.messages > 0, "boundary traffic expected");
    }

    #[test]
    fn work_counters_track_active_voxels() {
        let p = test_params(60);
        let mut cpu = CpuSim::new(CpuSimConfig::new(p, 4)).unwrap();
        cpu.run().unwrap();
        let total = cpu.total_counters();
        assert!(total.update.elements > 0);
        // Active-list processing must touch far fewer voxel-steps than a
        // full sweep would.
        let full_sweep = 24 * 24 * 60;
        assert!(
            total.update.elements < full_sweep,
            "active list should skip inactive regions: {} >= {full_sweep}",
            total.update.elements
        );
    }

    #[test]
    fn zero_ranks_is_a_config_error() {
        let p = test_params(10);
        match CpuSim::new(CpuSimConfig::new(p, 0)) {
            Err(ConfigError::ZeroUnits) => {}
            other => panic!("expected ZeroUnits, got {:?}", other.err()),
        }
    }
}
