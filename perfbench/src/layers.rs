//! Per-layer breakdown of one traced run: the program's own spans (driver
//! step → BSP superstep → rank compute/exchange → GPU kernel) joined with
//! the benchmark's spans around the calls it makes itself.

use std::collections::HashMap;

use simcov_telemetry::{SpanEvent, SpanKind};

use crate::workload::{BenchSpan, Exec};

/// The eleven GPU kernel-phase spans, by label suffix.
pub const KERNELS: [&str; 11] = [
    "plan",
    "resolve",
    "bid-pack",
    "bid-merge",
    "extravasate",
    "fsm",
    "diffuse",
    "reduce",
    "halo-pack",
    "halo-unpack",
    "tile-check",
];

/// Largest share of the traced loop wall the top-level layer buckets may
/// leave unattributed.
pub const CLOSURE_TOLERANCE: f64 = 0.02;

/// Busy seconds per layer of one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// The traced step loop (benchmark span).
    pub loop_s: f64,
    /// `advance_step` calls minus the driver step spans inside them: the
    /// prologue scrub, audit and checkpoint capture, rollback and dispatch.
    pub prologue_s: f64,
    /// Driver step spans minus their supersteps (trial table, statistics
    /// fold, reseal, health); 0 on the serial executor.
    pub step_self_s: f64,
    /// Serial executor step spans: the `simcov-core` kernels.
    pub core_step_s: f64,
    pub superstep_s: f64,
    pub exchange_s: f64,
    /// Mean over supersteps of max/mean rank compute time.
    pub imbalance: f64,
    /// Rank compute spans summed over ranks (CPU executor).
    pub rank_compute_s: f64,
    /// Kernel spans summed over devices, in [`KERNELS`] order.
    pub kernel_s: [f64; 11],
    /// Benchmark spans around `checkpoint` + `persist_checkpoint`.
    pub persist_s: f64,
    /// Benchmark spans around `load_checkpoint` + `restore`.
    pub restore_s: f64,
    pub construct_s: f64,
}

impl LayerTimes {
    /// The top-level buckets partition the loop; what they miss is the
    /// benchmark's own loop bookkeeping.
    pub fn unattributed_frac(&self) -> f64 {
        let covered = self.prologue_s
            + self.step_self_s
            + self.core_step_s
            + self.superstep_s
            + self.persist_s
            + self.restore_s;
        (self.loop_s - covered) / self.loop_s
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

pub fn layer_times(exec: Exec, events: &[SpanEvent], bench: &[BenchSpan]) -> LayerTimes {
    let bench_s = |labels: &[&str]| {
        secs(
            bench
                .iter()
                .filter(|s| labels.contains(&s.label))
                .map(|s| s.dur_ns)
                .sum(),
        )
    };
    let sum_s = |pred: &dyn Fn(&SpanEvent) -> bool| {
        secs(events.iter().filter(|e| pred(e)).map(|e| e.dur_ns).sum())
    };
    let step_s = sum_s(&|e| e.kind == SpanKind::Step);
    let superstep_s = sum_s(&|e| e.kind == SpanKind::Superstep);

    // Rank compute spans parent to their superstep: group them to find the
    // slowest rank of each superstep.
    let mut per_superstep: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for e in events
        .iter()
        .filter(|e| e.kind == SpanKind::RankPhase && e.label == "compute")
    {
        let (max, sum, n) = per_superstep.entry(e.parent).or_default();
        *max = (*max).max(e.dur_ns);
        *sum += e.dur_ns;
        *n += 1;
    }
    let ratios: Vec<f64> = per_superstep
        .values()
        .filter(|&&(_, sum, n)| n > 1 && sum > 0)
        .map(|&(max, sum, n)| max as f64 * n as f64 / sum as f64)
        .collect();
    let imbalance = if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };

    let mut kernel_s = [0.0; 11];
    for (slot, k) in kernel_s.iter_mut().zip(KERNELS) {
        *slot =
            sum_s(&|e| e.kind == SpanKind::Kernel && e.label.strip_prefix("kernel:") == Some(k));
    }

    let serial = exec == Exec::Serial;
    LayerTimes {
        loop_s: bench_s(&["loop"]),
        prologue_s: bench_s(&["advance_step"]) - step_s,
        step_self_s: if serial { 0.0 } else { step_s - superstep_s },
        core_step_s: if serial { step_s } else { 0.0 },
        superstep_s,
        exchange_s: sum_s(&|e| e.kind == SpanKind::RankPhase && e.label == "exchange"),
        imbalance,
        rank_compute_s: if exec == Exec::Cpu {
            sum_s(&|e| e.kind == SpanKind::RankPhase && e.label == "compute")
        } else {
            0.0
        },
        kernel_s,
        persist_s: bench_s(&["checkpoint", "persist"]),
        restore_s: bench_s(&["load_checkpoint", "restore"]),
        construct_s: bench_s(&["construct"]),
    }
}
