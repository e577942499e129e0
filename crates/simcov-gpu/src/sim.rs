//! The SIMCoV-GPU executor behind the unified [`Simulation`](simcov_driver::Simulation) driver API.
//!
//! `GpuSim` owns the PGAS runtime and the simulated devices; the step loop,
//! statistics, checkpointing, fault recovery and metrics live in the shared
//! driver shell ([`simcov_driver::DriverCore`]) driven through the
//! [`simcov_driver::Executor`] contract. Every recovery/retry/quarantine
//! *decision* along the way is made by the pure control-plane core
//! ([`simcov_driver::DriverState`]); with
//! `Simulation::enable_event_recording` the run's control decisions replay
//! deterministically from the recorded event log.

use gpusim::device::LinkTraffic;
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

use crate::device::GpuDevice;
use crate::msg::GpuMsg;
use crate::variants::GpuVariant;

/// Configuration of a multi-device GPU run.
#[derive(Debug, Clone)]
pub struct GpuSimConfig {
    pub params: SimParams,
    /// Number of simulated devices.
    pub n_devices: usize,
    pub strategy: Strategy,
    pub pattern: FoiPattern,
    pub variant: GpuVariant,
    /// Memory-tile side in voxels (§3.2).
    pub tile_side: usize,
    /// Steps between active-tile checks; defaults to the tile side (the
    /// paper's maximum safe period). Must be ≤ `tile_side`.
    pub check_period: Option<u64>,
    /// Devices per node (NVLink domain). Perlmutter: 4.
    pub devices_per_node: usize,
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
    /// Worker-thread count for the shared [`WorkPool`] running device
    /// superstep bodies concurrently. `None` keeps the host-sized default
    /// pool; `Some(0)` forces inline execution; `Some(n)` pins `n` workers.
    /// Trajectories are bitwise identical for every value.
    pub threads: Option<usize>,
}

impl GpuSimConfig {
    pub fn new(params: SimParams, n_devices: usize) -> Self {
        GpuSimConfig {
            params,
            n_devices,
            strategy: Strategy::Blocks,
            pattern: FoiPattern::UniformLattice,
            variant: GpuVariant::Combined,
            tile_side: 8,
            check_period: None,
            devices_per_node: 4,
            fault_plan: FaultPlan::none(),
            recovery: None,
            audit_period: None,
            retransmit_budget: None,
            kernel: KernelMode::default(),
            threads: None,
        }
    }

    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    pub fn with_variant(mut self, v: GpuVariant) -> Self {
        self.variant = v;
        self
    }

    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn with_pattern(mut self, pattern: FoiPattern) -> Self {
        self.pattern = pattern;
        self
    }

    pub fn with_tile_side(mut self, tile_side: usize) -> Self {
        self.tile_side = tile_side;
        self
    }

    pub fn with_check_period(mut self, period: u64) -> Self {
        self.check_period = Some(period);
        self
    }

    pub fn with_devices_per_node(mut self, devices_per_node: usize) -> Self {
        self.devices_per_node = devices_per_node;
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

    /// Validate the GPU-specific knobs (the shared ones are checked by
    /// [`DriverCore::new`]). Public so spec layers (the sweep server's
    /// `RunSpec`) can pre-validate a submission without building devices.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tile_side == 0 {
            return Err(ConfigError::ZeroTileSide);
        }
        if self.devices_per_node == 0 {
            return Err(ConfigError::ZeroDevicesPerNode);
        }
        let period = self.check_period.unwrap_or(self.tile_side as u64);
        // An active tile's halo buffer absorbs one voxel of spread per
        // step; after `tile_side` unchecked steps it can be outrun, so any
        // longer period risks missing activity (paper §3.2).
        if period == 0 || period > self.tile_side as u64 {
            return Err(ConfigError::CheckPeriodOutOfRange {
                check_period: period,
                tile_side: self.tile_side,
            });
        }
        Ok(())
    }
}

/// A running multi-device SIMCoV-GPU simulation. Program against it through
/// the [`Simulation`](simcov_driver::Simulation) trait.
pub struct GpuSim {
    core: DriverCore,
    bsp: Bsp<GpuMsg>,
    pub devices: Vec<GpuDevice>,
    variant: GpuVariant,
    tile_side: usize,
    check_period: u64,
    devices_per_node: usize,
    kernel: KernelMode,
}

impl GpuSim {
    pub fn new(cfg: GpuSimConfig) -> Result<Self, ConfigError> {
        cfg.params.validate().map_err(ConfigError::InvalidParams)?;
        let world = World::seeded(&cfg.params, cfg.pattern);
        Self::from_world(cfg, world)
    }

    pub fn from_world(cfg: GpuSimConfig, world: World) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut core = DriverCore::new(
            cfg.params,
            cfg.n_devices,
            cfg.strategy,
            &cfg.fault_plan,
            cfg.recovery,
        )?;
        if let Some(period) = cfg.audit_period {
            core.enable_integrity(period);
        }
        core.check_world(&world)?;
        if let Some(n) = cfg.threads {
            // Pin the worker count: device superstep bodies run truly
            // concurrently on `n` workers (0 = inline). The pool only
            // schedules — reduction order is fixed by `allreduce`/`ExactSum`
            // — so every thread count yields the same bits.
            core.share_pool(std::sync::Arc::new(WorkPool::new(n)));
        }
        let check_period = cfg.check_period.unwrap_or(cfg.tile_side as u64);
        let devices: Vec<GpuDevice> = (0..cfg.n_devices)
            .map(|d| {
                GpuDevice::new(
                    d,
                    &core.partition,
                    &world,
                    cfg.variant,
                    cfg.tile_side,
                    check_period,
                    cfg.devices_per_node,
                    cfg.kernel,
                )
            })
            .collect();
        let mut bsp = Bsp::new(cfg.n_devices);
        bsp.inject_faults(cfg.fault_plan);
        if let Some(budget) = cfg.retransmit_budget {
            bsp.set_retransmit_budget(budget);
        }
        Ok(GpuSim {
            core,
            bsp,
            devices,
            variant: cfg.variant,
            tile_side: cfg.tile_side,
            check_period,
            devices_per_node: cfg.devices_per_node,
            kernel: cfg.kernel,
        })
    }

    /// The current domain decomposition (re-partitioned after recovery).
    pub fn partition(&self) -> &Partition {
        &self.core.partition
    }

    /// The busiest device's work counters (compute critical path).
    pub fn max_device_counters(&self) -> DeviceCounters {
        self.devices
            .iter()
            .fold(DeviceCounters::new(), |acc, d| acc.max(&d.counters))
    }

    /// The busiest device's link traffic fields, taken independently.
    pub fn max_device_link(&self) -> LinkTraffic {
        self.devices
            .iter()
            .fold(LinkTraffic::default(), |a, d| LinkTraffic {
                intra_msgs: a.intra_msgs.max(d.link.intra_msgs),
                intra_bytes: a.intra_bytes.max(d.link.intra_bytes),
                inter_msgs: a.inter_msgs.max(d.link.inter_msgs),
                inter_bytes: a.inter_bytes.max(d.link.inter_bytes),
            })
    }
}

impl Executor for GpuSim {
    fn core(&self) -> &DriverCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DriverCore {
        &mut self.core
    }

    fn exec_name(&self) -> &'static str {
        "gpu"
    }

    fn unit_count(&self) -> usize {
        self.devices.len()
    }

    fn live_active_units(&self) -> u64 {
        self.devices.iter().map(|d| d.n_active_tiles() as u64).sum()
    }

    fn live_counters(&self) -> DeviceCounters {
        self.devices.iter().fold(DeviceCounters::new(), |mut a, d| {
            a.merge(&d.counters);
            a
        })
    }

    fn hw_profile<'a>(&self, model: &'a CostModel) -> &'a HwProfile {
        &model.gpu
    }

    fn bsp_counters(&self) -> CommCounters {
        self.bsp.counters
    }

    fn attach_unit_telemetry(&mut self) {
        self.bsp.attach_telemetry(self.core.telemetry.clone());
        for d in &mut self.devices {
            d.attach_telemetry(self.core.telemetry.clone());
        }
    }

    fn take_rank_walls(&mut self) -> Vec<simcov_telemetry::RankWalls> {
        self.bsp.take_rank_walls()
    }

    fn per_unit_active(&self) -> Vec<u64> {
        self.devices
            .iter()
            .map(|d| d.n_active_tiles() as u64)
            .collect()
    }

    /// One timestep = two supersteps (the two communication waves of
    /// Fig. 2) + the statistics allreduce.
    fn compute_step(
        &mut self,
        t: u64,
        trials: &TrialTable,
    ) -> Result<StatsPartial, SuperstepError> {
        let p = self.core.params.clone();
        let p_ref = &p;

        let _extrav: Vec<u64> =
            self.bsp
                .try_superstep(&self.core.pool, &mut self.devices, |_d, dev, inbox, out| {
                    dev.plan_and_bid(p_ref, t, trials, inbox, out)
                })?;

        let partials: Vec<StatsPartial> =
            self.bsp
                .try_superstep(&self.core.pool, &mut self.devices, |_d, dev, inbox, out| {
                    dev.resolve_and_update(p_ref, t, inbox, out)
                })?;

        // Exact summation makes the result independent of device count.
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
        if let Some(d) = self.devices.get_mut(unit) {
            d.corrupt_bit(seed);
        }
    }

    fn take_bsp_integrity_records(&mut self) -> Vec<IntegrityRecord> {
        self.bsp.take_integrity_records()
    }

    fn rebuild(&mut self, world: &World, n_units: usize) -> Result<(), ConfigError> {
        let partition = Partition::try_new(self.core.params.dims, n_units, self.core.strategy)
            .map_err(ConfigError::Partition)?;
        self.devices = (0..n_units)
            .map(|d| {
                GpuDevice::new(
                    d,
                    &partition,
                    world,
                    self.variant,
                    self.tile_side,
                    self.check_period,
                    self.devices_per_node,
                    self.kernel,
                )
            })
            .collect();
        let bsp = std::mem::replace(&mut self.bsp, Bsp::new(1));
        self.bsp = bsp.rebuilt(n_units);
        // Telemetry must survive the elastic shrink: the BSP handle rides
        // through `rebuilt`, but the devices are brand new.
        if self.core.telemetry.is_enabled() {
            self.attach_unit_telemetry();
        }
        self.core.partition = partition;
        Ok(())
    }

    fn assemble_world(&self) -> World {
        let mut world = World::healthy(self.core.params.dims);
        for d in &self.devices {
            d.write_into(&mut world);
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

    fn assert_matches_serial(n_devices: usize, variant: GpuVariant, steps: u64) {
        let p = test_params(steps);
        let mut serial = SerialSim::new(p.clone());
        serial.run();

        let cfg = GpuSimConfig::new(p, n_devices).with_variant(variant);
        let mut gpu = GpuSim::new(cfg).expect("valid config");
        gpu.run().expect("healthy run");

        let world = gpu.gather_world();
        if let Some((idx, why)) = serial.world.first_difference(&world) {
            panic!(
                "state diverged at voxel {idx} after {steps} steps ({n_devices} devices, {variant:?}): {why}"
            );
        }
        // Exact statistics reduction: serial and GPU histories are bitwise
        // identical, not just close.
        assert_eq!(
            serial.history,
            *gpu.history(),
            "stats must be bitwise identical across executors"
        );
    }

    #[test]
    fn combined_matches_serial_4_devices() {
        assert_matches_serial(4, GpuVariant::Combined, 150);
    }

    #[test]
    fn unoptimized_matches_serial_4_devices() {
        assert_matches_serial(4, GpuVariant::Unoptimized, 100);
    }

    #[test]
    fn fast_reduction_matches_serial_2_devices() {
        assert_matches_serial(2, GpuVariant::FastReduction, 100);
    }

    #[test]
    fn memory_tiling_matches_serial_9_devices() {
        assert_matches_serial(9, GpuVariant::MemoryTiling, 100);
    }

    #[test]
    fn single_device_matches_serial() {
        assert_matches_serial(1, GpuVariant::Combined, 100);
    }

    #[test]
    fn variants_agree_with_each_other_bitwise() {
        let p = test_params(120);
        let mut worlds = Vec::new();
        for v in GpuVariant::ALL {
            let mut sim = GpuSim::new(GpuSimConfig::new(p.clone(), 4).with_variant(v)).unwrap();
            sim.run().unwrap();
            worlds.push((v, sim.gather_world()));
        }
        for w in &worlds[1..] {
            assert!(
                worlds[0].1.first_difference(&w.1).is_none(),
                "variant {:?} diverged from {:?}",
                w.0,
                worlds[0].0
            );
        }
    }

    #[test]
    fn tiling_reduces_update_work() {
        // Needs a grid large enough to contain inactive interior tiles.
        let mut p = SimParams::test_config(GridDims::new2d(64, 64), 60, 1, 7);
        p.tcell_generation_rate = 0.0; // keep activity localized to the focus
        let cfg = GpuSimConfig::new(p.clone(), 4)
            .with_variant(GpuVariant::Combined)
            .with_tile_side(4);
        let mut tiled = GpuSim::new(cfg).unwrap();
        tiled.run().unwrap();
        let mut full =
            GpuSim::new(GpuSimConfig::new(p, 4).with_variant(GpuVariant::FastReduction)).unwrap();
        full.run().unwrap();
        let tiled_work = tiled.total_counters().update.elements;
        let full_work = full.total_counters().update.elements;
        assert!(
            tiled_work < full_work,
            "tiling should skip inactive tiles: {tiled_work} >= {full_work}"
        );
    }

    #[test]
    fn reduce_strategy_changes_atomic_counts() {
        let p = test_params(60);
        let mut tree =
            GpuSim::new(GpuSimConfig::new(p.clone(), 4).with_variant(GpuVariant::FastReduction))
                .unwrap();
        tree.run().unwrap();
        let mut atomic =
            GpuSim::new(GpuSimConfig::new(p, 4).with_variant(GpuVariant::Unoptimized)).unwrap();
        atomic.run().unwrap();
        assert!(
            tree.total_counters().reduce.atomics * 10 < atomic.total_counters().reduce.atomics,
            "tree reduction should slash atomics"
        );
        assert!(tree.total_counters().reduce.smem_ops > 0);
    }

    #[test]
    fn check_period_does_not_change_results_but_changes_cost() {
        let p = test_params(120);
        let run = |period: u64| {
            let cfg = GpuSimConfig::new(p.clone(), 4)
                .with_tile_side(8)
                .with_check_period(period);
            let mut sim = GpuSim::new(cfg).unwrap();
            sim.run().unwrap();
            (sim.gather_world(), sim.total_counters().tile_check.launches)
        };
        let (w1, checks1) = run(1);
        let (w8, checks8) = run(8);
        assert!(w1.first_difference(&w8).is_none(), "period changed results");
        assert!(
            checks1 > checks8 * 4,
            "shorter period must sweep more often: {checks1} vs {checks8}"
        );
    }

    #[test]
    fn check_period_beyond_tile_side_rejected() {
        let p = test_params(10);
        let cfg = GpuSimConfig::new(p, 4)
            .with_tile_side(4)
            .with_check_period(5); // unsafe: buffer can be outrun
        match GpuSim::new(cfg) {
            Err(ConfigError::CheckPeriodOutOfRange {
                check_period: 5,
                tile_side: 4,
            }) => {}
            other => panic!("expected CheckPeriodOutOfRange, got {:?}", other.err()),
        }
    }

    #[test]
    fn halo_traffic_recorded_with_locality() {
        let p = test_params(60);
        // 8 devices with 4 per node: both intra- and inter-node links exist.
        let mut sim = GpuSim::new(GpuSimConfig::new(p, 8)).unwrap();
        sim.run().unwrap();
        let total: LinkTraffic = sim.devices.iter().fold(LinkTraffic::default(), |mut a, d| {
            a.merge(&d.link);
            a
        });
        assert!(total.intra_msgs > 0);
        assert!(total.inter_msgs > 0);
        assert!(total.intra_bytes + total.inter_bytes > 0);
    }
}
