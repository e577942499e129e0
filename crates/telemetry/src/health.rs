//! Online health monitoring over the unified telemetry stream.
//!
//! The monitor watches three anomaly classes, each cheap enough to evaluate
//! inline every step:
//!
//! - **Stragglers** — one rank's superstep wall clock far above its peers'.
//!   A textbook z-score over `n` ranks cannot work here: with one outlier
//!   among `n` samples the achievable z caps at `√(n-1)` (≈1.7 for 4 ranks),
//!   below any sane threshold. Instead each rank is compared leave-one-out
//!   against the *median of the other ranks*, with spread estimated by MAD
//!   (scaled ×1.4826 to be σ-consistent) and floored so near-identical walls
//!   don't divide by ~0. The result behaves like a z-score but actually
//!   fires on a single bad rank.
//! - **Load imbalance** — max/mean skew of per-unit active work items.
//! - **Comm-volume spikes** — per-step exchanged bytes far above an EWMA
//!   baseline of previous steps.
//!
//! Detection is pure observation: the monitor reads walls and counters that
//! the runtime measures anyway, and its records feed the Chrome-trace
//! exporter as instant markers on the same timeline as the spans.

/// Per-superstep wall-clock samples for every rank, drained from the BSP
/// runtime by the driver. Walls include injected stall time so seeded
/// slow-rank faults are visible to the detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankWalls {
    /// Superstep index the samples belong to.
    pub superstep: u64,
    /// Wall nanoseconds per rank, indexed by rank.
    pub walls: Vec<u64>,
}

/// What anomaly a [`HealthRecord`] reports.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthKind {
    /// One rank's superstep wall clock is a leave-one-out outlier.
    Straggler {
        /// The slow rank.
        rank: u32,
        /// Its wall for the superstep, nanoseconds.
        wall_ns: u64,
        /// Median wall of the other ranks, nanoseconds.
        baseline_ns: u64,
        /// Robust z-score of the excess.
        z: f64,
    },
    /// Active work is concentrated on one unit.
    LoadImbalance {
        /// Unit carrying the most active items.
        max_unit: u32,
        /// Its active-item count.
        max_active: u64,
        /// Mean active items per unit.
        mean_active: f64,
        /// `max_active / mean_active`.
        skew: f64,
    },
    /// Step comm volume spiked above the running baseline.
    CommSpike {
        /// Bytes exchanged this step.
        bytes: u64,
        /// EWMA baseline before this step, bytes.
        baseline: f64,
        /// `bytes / baseline`.
        ratio: f64,
    },
}

impl HealthKind {
    /// Stable label used in exporter output.
    pub fn label(&self) -> &'static str {
        match self {
            HealthKind::Straggler { .. } => "health:straggler",
            HealthKind::LoadImbalance { .. } => "health:load-imbalance",
            HealthKind::CommSpike { .. } => "health:comm-spike",
        }
    }
}

/// One detected anomaly, stamped onto the run timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRecord {
    /// Driver step during which the anomaly was observed.
    pub step: u64,
    /// Superstep index (the step's value for step-scoped anomalies).
    pub superstep: u64,
    /// Telemetry-clock timestamp of detection, nanoseconds.
    pub at_ns: u64,
    /// The anomaly.
    pub kind: HealthKind,
}

/// Detector thresholds. Defaults are deliberately conservative: they stay
/// silent on balanced runs and fire on the seeded faults the test suite
/// injects.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Robust z threshold for straggler detection.
    pub straggler_z: f64,
    /// Absolute floor on the spread estimate, nanoseconds. Keeps the
    /// detector quiet when all ranks finish in near-identical time, and
    /// keeps host scheduling jitter (hundreds of µs when a rank thread is
    /// preempted on a busy host) from reading as a straggler.
    pub straggler_floor_ns: u64,
    /// Minimum max/mean active skew to report.
    pub imbalance_ratio: f64,
    /// Minimum mean active items per unit before skew is meaningful.
    pub imbalance_floor: f64,
    /// Minimum bytes/baseline ratio to report a comm spike.
    pub spike_ratio: f64,
    /// Steps of EWMA warm-up before spike detection arms.
    pub spike_warmup: u32,
    /// EWMA smoothing factor for the comm baseline.
    pub ewma_alpha: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            straggler_z: 4.0,
            straggler_floor_ns: 1_000_000,
            imbalance_ratio: 2.0,
            imbalance_floor: 16.0,
            spike_ratio: 4.0,
            spike_warmup: 3,
            ewma_alpha: 0.3,
        }
    }
}

/// Online anomaly detector; feed it observations, read back records.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    comm_ewma: f64,
    comm_steps: u32,
    records: Vec<HealthRecord>,
}

fn median_of(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

impl HealthMonitor {
    /// Monitor with default thresholds.
    pub fn new() -> Self {
        Self::with_config(HealthConfig::default())
    }

    /// Monitor with explicit thresholds.
    pub fn with_config(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            comm_ewma: 0.0,
            comm_steps: 0,
            records: Vec::new(),
        }
    }

    /// Thresholds in force.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// All records so far, in detection order.
    pub fn records(&self) -> &[HealthRecord] {
        &self.records
    }

    /// Feed one superstep's per-rank walls; returns records created now.
    ///
    /// Each rank is tested leave-one-out: its wall against the median and
    /// MAD of the *other* ranks, so a single straggler cannot poison its own
    /// baseline. Below 3 ranks the estimator is degenerate — with one peer
    /// the "median of the others" is just that peer and the MAD is zero, so
    /// any wall difference divided by the floor looks like an outlier and
    /// either rank can flag the other. The policy is therefore *no flags*
    /// below 3 ranks: there is no peer population to define "normal".
    pub fn observe_superstep(
        &mut self,
        step: u64,
        superstep: u64,
        at_ns: u64,
        walls: &[u64],
    ) -> Vec<HealthRecord> {
        let n = walls.len();
        let mut new = Vec::new();
        if n < 3 {
            return new;
        }
        let mut others: Vec<u64> = Vec::with_capacity(n - 1);
        let mut devs: Vec<u64> = Vec::with_capacity(n - 1);
        for (rank, &w) in walls.iter().enumerate() {
            others.clear();
            others.extend(walls.iter().enumerate().filter_map(|(j, &x)| {
                if j == rank {
                    None
                } else {
                    Some(x)
                }
            }));
            others.sort_unstable();
            let baseline = median_of(&others);
            if w <= baseline {
                continue;
            }
            devs.clear();
            devs.extend(others.iter().map(|&x| x.abs_diff(baseline)));
            devs.sort_unstable();
            let mad = median_of(&devs) as f64 * 1.4826;
            let spread = mad
                .max(baseline as f64 * 0.25)
                .max(self.cfg.straggler_floor_ns as f64);
            let z = (w - baseline) as f64 / spread;
            if z >= self.cfg.straggler_z {
                new.push(HealthRecord {
                    step,
                    superstep,
                    at_ns,
                    kind: HealthKind::Straggler {
                        rank: rank as u32,
                        wall_ns: w,
                        baseline_ns: baseline,
                        z,
                    },
                });
            }
        }
        self.records.extend(new.iter().cloned());
        new
    }

    /// Feed one driver step's per-unit active counts and comm-byte delta;
    /// returns records created now.
    pub fn observe_step(
        &mut self,
        step: u64,
        at_ns: u64,
        active_per_unit: &[u64],
        comm_bytes: u64,
    ) -> Vec<HealthRecord> {
        let mut new = Vec::new();
        if !active_per_unit.is_empty() {
            let total: u64 = active_per_unit.iter().sum();
            let mean = total as f64 / active_per_unit.len() as f64;
            if mean >= self.cfg.imbalance_floor {
                let (max_unit, &max_active) = active_per_unit
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &a)| a)
                    .expect("non-empty");
                let skew = max_active as f64 / mean;
                if skew >= self.cfg.imbalance_ratio {
                    new.push(HealthRecord {
                        step,
                        superstep: step,
                        at_ns,
                        kind: HealthKind::LoadImbalance {
                            max_unit: max_unit as u32,
                            max_active,
                            mean_active: mean,
                            skew,
                        },
                    });
                }
            }
        }
        if self.comm_steps >= self.cfg.spike_warmup && self.comm_ewma > 0.0 {
            let ratio = comm_bytes as f64 / self.comm_ewma;
            if ratio >= self.cfg.spike_ratio {
                new.push(HealthRecord {
                    step,
                    superstep: step,
                    at_ns,
                    kind: HealthKind::CommSpike {
                        bytes: comm_bytes,
                        baseline: self.comm_ewma,
                        ratio,
                    },
                });
            }
        }
        let a = self.cfg.ewma_alpha;
        self.comm_ewma = if self.comm_steps == 0 {
            comm_bytes as f64
        } else {
            a * comm_bytes as f64 + (1.0 - a) * self.comm_ewma
        };
        self.comm_steps = self.comm_steps.saturating_add(1);
        self.records.extend(new.iter().cloned());
        new
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_walls_stay_silent() {
        let mut m = HealthMonitor::new();
        for ss in 0..20 {
            let new = m.observe_superstep(0, ss, 0, &[100_000, 104_000, 98_000, 101_000]);
            assert!(new.is_empty(), "false positive at superstep {ss}: {new:?}");
        }
        // Sub-millisecond preemption spikes on µs-scale supersteps are host
        // noise, not stragglers: both walls were seen on a 2-vCPU host
        // before any fault was injected.
        for walls in [
            [8_000, 254_000, 9_000, 8_500],
            [21_000, 20_000, 127_000, 22_000],
        ] {
            let new = m.observe_superstep(0, 20, 0, &walls);
            assert!(new.is_empty(), "jitter flagged as a straggler: {new:?}");
        }
    }

    #[test]
    fn single_straggler_is_flagged_immediately() {
        let mut m = HealthMonitor::new();
        let new = m.observe_superstep(3, 9, 42, &[100_000, 5_100_000, 98_000, 101_000]);
        assert_eq!(new.len(), 1);
        match &new[0].kind {
            HealthKind::Straggler { rank, z, .. } => {
                assert_eq!(*rank, 1);
                assert!(*z >= 4.0, "z = {z}");
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(new[0].superstep, 9);
        assert_eq!(m.records().len(), 1);
    }

    #[test]
    fn one_rank_never_flags() {
        // No peers at all: nothing defines "normal", stay silent however
        // extreme the wall looks.
        let mut m = HealthMonitor::new();
        for ss in 0..5 {
            assert!(m.observe_superstep(0, ss, 0, &[u64::MAX / 2]).is_empty());
        }
        assert!(m.records().is_empty());
    }

    #[test]
    fn two_ranks_never_flag() {
        // With one peer the leave-one-out baseline is just that peer and
        // MAD is zero — either rank would flag the other on any skew, so
        // the policy below 3 ranks is silence. This pair used to produce a
        // flag; it must not.
        let mut m = HealthMonitor::new();
        let new = m.observe_superstep(0, 0, 0, &[50_000, 2_000_000]);
        assert!(
            new.is_empty(),
            "2-rank straggler flag is unreliable: {new:?}"
        );
        // Symmetric ordering, same answer.
        assert!(m
            .observe_superstep(0, 1, 0, &[2_000_000, 50_000])
            .is_empty());
        assert!(m.records().is_empty());
    }

    #[test]
    fn three_ranks_are_the_detection_floor() {
        // 3 ranks is the smallest population where the leave-one-out
        // baseline has two peers: detection arms exactly here.
        let mut m = HealthMonitor::new();
        let new = m.observe_superstep(0, 0, 0, &[100_000, 5_100_000, 98_000]);
        assert_eq!(new.len(), 1, "3-rank straggler must be flagged");
        match &new[0].kind {
            HealthKind::Straggler { rank, .. } => assert_eq!(*rank, 1),
            other => panic!("wrong kind: {other:?}"),
        }
        // Balanced 3-rank walls stay silent.
        assert!(m
            .observe_superstep(0, 1, 0, &[100_000, 101_000, 99_000])
            .is_empty());
    }

    #[test]
    fn imbalance_requires_skew_and_volume() {
        let mut m = HealthMonitor::new();
        // Below the activity floor: silent even though skewed.
        assert!(m.observe_step(0, 0, &[10, 0, 0, 0], 0).is_empty());
        // Above the floor and skewed: flagged.
        let new = m.observe_step(1, 0, &[4000, 10, 10, 10], 0);
        assert_eq!(new.len(), 1);
        match &new[0].kind {
            HealthKind::LoadImbalance { max_unit, skew, .. } => {
                assert_eq!(*max_unit, 0);
                assert!(*skew > 3.0);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Balanced: silent.
        assert!(m.observe_step(2, 0, &[100, 101, 99, 100], 0).is_empty());
    }

    #[test]
    fn comm_spike_needs_warmup_then_fires() {
        let mut m = HealthMonitor::new();
        for step in 0..4 {
            assert!(m.observe_step(step, 0, &[], 1000).is_empty());
        }
        let new = m.observe_step(4, 0, &[], 50_000);
        assert_eq!(new.len(), 1);
        assert!(matches!(new[0].kind, HealthKind::CommSpike { .. }));
    }
}
