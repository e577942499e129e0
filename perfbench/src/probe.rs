//! Host-speed probe.
//!
//! The shared 2-vCPU hosts this benchmark runs on drift in speed by up to
//! 1.6x over tens of seconds to minutes (README.md, "Host drift"), far more
//! than any regression worth catching. Timings are therefore taken in
//! *reference-host seconds*: each measured wall time is multiplied by
//! `REFERENCE_S / probe`, where `probe` is the time of a fixed kernel of the
//! benchmark's own, measured right before and right after the timed work.
//! On a host running at the reference speed the two are the same.
//!
//! The probe is benchmark code, not program code, so no change to the
//! program can make it faster or slower; the raw wall times are reported
//! alongside (`host.run_wall_s`, `host.probe_s` in the traced run).

use std::cell::RefCell;
use std::time::Instant;

/// Probe time of the reference host, seconds: the median probe measured
/// on a 2-vCPU Xeon (Sapphire Rapids, 2 MiB L2 per core) in its fast phase.
pub const REFERENCE_S: f64 = 0.014;

/// Probes per measurement; their median is taken.
const PROBES: usize = 3;

const PAIRS: usize = 1 << 18;
const N: usize = 256;

/// The probe's buffers, allocated and touched once per thread so that a
/// probe never allocates: its time must not depend on the state of the
/// program's heap.
struct Buffers {
    pairs: Vec<(u64, u64)>,
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers {
        pairs: vec![(0, 0); PAIRS],
        a: vec![0.0; N * N],
        b: vec![0.0; N * N],
    });
}

/// One probe: sort 2^18 pseudo-random `(key, index)` pairs (4 MiB, the
/// shape of the per-step extravasation trial table) and sweep a 5-point
/// stencil over two 256x256 `f32` fields (the shape of diffusion).
fn probe_once() -> f64 {
    BUFFERS.with_borrow_mut(|Buffers { pairs, a, b }| {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for (i, p) in pairs.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *p = (x % (1 << 16), i as u64);
        }
        pairs.sort_unstable();
        a.fill(1.0);
        for _ in 0..40 {
            for i in N + 1..N * (N - 1) - 1 {
                b[i] = 0.5 * a[i] + 0.125 * (a[i - 1] + a[i + 1] + a[i - N] + a[i + N]);
            }
            std::mem::swap(a, b);
        }
        std::hint::black_box((&pairs, &a));
        t0.elapsed().as_secs_f64()
    })
}

/// Median time of [`PROBES`] probes, seconds.
pub fn probe() -> f64 {
    let mut t: Vec<f64> = (0..PROBES).map(|_| probe_once()).collect();
    t.sort_by(f64::total_cmp);
    t[PROBES / 2]
}

/// Chunks of timed work longer than this are split by a probe, so drift
/// within a long run is tracked too.
const CHUNK_S: f64 = 0.5;

/// Wall clock of a run's timed work, paused for the probes that bracket
/// each chunk of it. With probing off it is a plain stopwatch.
pub struct Stopwatch {
    probing: bool,
    last_probe: f64,
    chunk: Instant,
    /// Raw wall seconds of the timed work, probes excluded.
    pub wall_s: f64,
    /// The same in reference-host seconds (0 with probing off).
    pub ref_s: f64,
}

impl Stopwatch {
    pub fn start(probing: bool) -> Self {
        Stopwatch {
            probing,
            last_probe: if probing { probe() } else { 0.0 },
            chunk: Instant::now(),
            wall_s: 0.0,
            ref_s: 0.0,
        }
    }

    /// Between two units of work: close the chunk if it is long enough.
    pub fn tick(&mut self) {
        if self.probing && self.chunk.elapsed().as_secs_f64() >= CHUNK_S {
            self.lap();
        }
    }

    /// Close the current chunk, probing after it when probing is on.
    pub fn lap(&mut self) {
        let wall = self.chunk.elapsed().as_secs_f64();
        self.wall_s += wall;
        if self.probing {
            let p = probe();
            self.ref_s += wall * 2.0 * REFERENCE_S / (self.last_probe + p);
            self.last_probe = p;
        }
        self.chunk = Instant::now();
    }
}
