//! RPC message types of the CPU baseline.
//!
//! These model the UPC++ communication SIMCoV-CPU issues: per-event RPCs
//! for T-cell intents crossing a process boundary and their results (the
//! second communication wave the GPU version eliminates), plus *aggregated*
//! boundary-strip updates that keep neighbor ghost copies current —
//! SIMCoV-CPU batches boundary state into bulk puts rather than issuing one
//! RPC per voxel. The `pgas` runtime meters wire sizes via [`WireSize`].

use pgas::counters::WireSize;
use pgas::crc::{Crc64, Payload};
use pgas::fault::SplitMix64;
use simcov_core::tcell::TCellSlot;

/// An aggregated boundary-concentration cell (gid, virions, chemokine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcCell {
    pub gid: u64,
    pub virions: f32,
    pub chem: f32,
}

/// An aggregated boundary-agent cell. `active` carries the activity
/// predicate so the receiver can extend its active list across the process
/// boundary (§3.2: "that RPC can add the affected voxels to the
/// active-list").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentCell {
    pub gid: u64,
    pub epi_state: u8,
    pub tcell: TCellSlot,
    pub active: bool,
}

/// One RPC / bulk-put payload.
#[derive(Debug, Clone, PartialEq)]
pub enum CpuMsg {
    /// A T cell at `src` (global voxel id) wants to move to `target`
    /// (owned by the receiving rank). Carries the bid and the cell's
    /// remaining tissue lifetime so the owner can instantiate the moved
    /// cell without another round trip.
    MoveIntent {
        src: u64,
        target: u64,
        bid: u128,
        tissue_steps: u32,
    },
    /// A T cell at `src` wants to bind the expressing epithelial cell at
    /// `target` (owned by the receiving rank).
    BindIntent { src: u64, target: u64, bid: u128 },
    /// Owner's verdict on a cross-boundary move intent.
    MoveResult { src: u64, won: bool },
    /// Owner's verdict on a cross-boundary bind intent.
    BindResult { src: u64, won: bool },
    /// Post-production (pre-diffusion) concentrations of the active
    /// boundary voxels a neighbor's diffusion stencil needs this step
    /// (one aggregated put per neighbor per step).
    GhostConc(Vec<ConcCell>),
    /// End-of-step state of the active boundary voxels, needed by the
    /// neighbor's planning next step (one aggregated put per neighbor per
    /// step; concentrations ride along for ghost extravasation checks).
    GhostState {
        agents: Vec<AgentCell>,
        conc: Vec<ConcCell>,
    },
}

impl WireSize for CpuMsg {
    fn wire_size(&self) -> usize {
        match self {
            CpuMsg::MoveIntent { .. } => 36,
            CpuMsg::BindIntent { .. } => 32,
            CpuMsg::MoveResult { .. } | CpuMsg::BindResult { .. } => 9,
            CpuMsg::GhostConc(cells) => 16 + cells.len() * 16,
            CpuMsg::GhostState { agents, conc } => 16 + agents.len() * 14 + conc.len() * 16,
        }
    }

    fn is_bulk(&self) -> bool {
        matches!(self, CpuMsg::GhostConc(_) | CpuMsg::GhostState { .. })
    }
}

impl Payload for CpuMsg {
    fn digest(&self, crc: &mut Crc64) {
        match self {
            CpuMsg::MoveIntent {
                src,
                target,
                bid,
                tissue_steps,
            } => {
                crc.write_u8(0);
                crc.write_u64(*src);
                crc.write_u64(*target);
                crc.write_u128(*bid);
                crc.write_u32(*tissue_steps);
            }
            CpuMsg::BindIntent { src, target, bid } => {
                crc.write_u8(1);
                crc.write_u64(*src);
                crc.write_u64(*target);
                crc.write_u128(*bid);
            }
            CpuMsg::MoveResult { src, won } => {
                crc.write_u8(2);
                crc.write_u64(*src);
                crc.write_u8(*won as u8);
            }
            CpuMsg::BindResult { src, won } => {
                crc.write_u8(3);
                crc.write_u64(*src);
                crc.write_u8(*won as u8);
            }
            CpuMsg::GhostConc(cells) => {
                crc.write_u8(4);
                crc.write_len(cells.len());
                for c in cells {
                    c.digest_into(crc);
                }
            }
            CpuMsg::GhostState { agents, conc } => {
                crc.write_u8(5);
                crc.write_len(agents.len());
                for a in agents {
                    crc.write_u64(a.gid);
                    crc.write_u8(a.epi_state);
                    crc.write_u32(a.tcell.0);
                    crc.write_u8(a.active as u8);
                }
                crc.write_len(conc.len());
                for c in conc {
                    c.digest_into(crc);
                }
            }
        }
    }

    fn corrupt(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        match self {
            CpuMsg::MoveIntent {
                src,
                target,
                bid,
                tissue_steps,
            } => match rng.next_u64() % 4 {
                0 => *src ^= 1 << (rng.next_u64() % 64),
                1 => *target ^= 1 << (rng.next_u64() % 64),
                2 => *bid ^= 1 << (rng.next_u64() % 128),
                _ => *tissue_steps ^= 1 << (rng.next_u64() % 32),
            },
            CpuMsg::BindIntent { src, target, bid } => match rng.next_u64() % 3 {
                0 => *src ^= 1 << (rng.next_u64() % 64),
                1 => *target ^= 1 << (rng.next_u64() % 64),
                _ => *bid ^= 1 << (rng.next_u64() % 128),
            },
            CpuMsg::MoveResult { src, won } | CpuMsg::BindResult { src, won } => {
                if rng.next_u64().is_multiple_of(2) {
                    *src ^= 1 << (rng.next_u64() % 64);
                } else {
                    *won = !*won;
                }
            }
            CpuMsg::GhostConc(cells) => {
                if let Some(c) = pick(cells, &mut rng) {
                    c.corrupt_with(&mut rng);
                }
            }
            CpuMsg::GhostState { agents, conc } => {
                let n = agents.len() + conc.len();
                if n == 0 {
                    return;
                }
                let i = (rng.next_u64() % n as u64) as usize;
                if i < agents.len() {
                    let a = &mut agents[i];
                    match rng.next_u64() % 4 {
                        0 => a.gid ^= 1 << (rng.next_u64() % 64),
                        1 => a.epi_state ^= 1 << (rng.next_u64() % 8),
                        2 => a.tcell.0 ^= 1 << (rng.next_u64() % 32),
                        _ => a.active = !a.active,
                    }
                } else {
                    conc[i - agents.len()].corrupt_with(&mut rng);
                }
            }
        }
    }

    fn corruptible(&self) -> bool {
        match self {
            CpuMsg::GhostConc(cells) => !cells.is_empty(),
            CpuMsg::GhostState { agents, conc } => !agents.is_empty() || !conc.is_empty(),
            _ => true,
        }
    }
}

impl ConcCell {
    fn digest_into(&self, crc: &mut Crc64) {
        crc.write_u64(self.gid);
        crc.write_f32(self.virions);
        crc.write_f32(self.chem);
    }

    fn corrupt_with(&mut self, rng: &mut SplitMix64) {
        match rng.next_u64() % 3 {
            0 => self.gid ^= 1 << (rng.next_u64() % 64),
            1 => {
                let bit = 1u32 << (rng.next_u64() % 32);
                self.virions = f32::from_bits(self.virions.to_bits() ^ bit);
            }
            _ => {
                let bit = 1u32 << (rng.next_u64() % 32);
                self.chem = f32::from_bits(self.chem.to_bits() ^ bit);
            }
        }
    }
}

fn pick<'a, T>(v: &'a mut [T], rng: &mut SplitMix64) -> Option<&'a mut T> {
    if v.is_empty() {
        None
    } else {
        let i = (rng.next_u64() % v.len() as u64) as usize;
        Some(&mut v[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_is_a_self_inverse_and_never_silent() {
        let msgs = vec![
            CpuMsg::MoveIntent {
                src: 7,
                target: 9,
                bid: 0xDEAD_BEEF,
                tissue_steps: 40,
            },
            CpuMsg::BindIntent {
                src: 3,
                target: 4,
                bid: 11,
            },
            CpuMsg::MoveResult { src: 5, won: true },
            CpuMsg::BindResult { src: 6, won: false },
            CpuMsg::GhostConc(vec![
                ConcCell {
                    gid: 1,
                    virions: 0.25,
                    chem: 0.5
                };
                4
            ]),
            CpuMsg::GhostState {
                agents: vec![
                    AgentCell {
                        gid: 2,
                        epi_state: 1,
                        tcell: TCellSlot::EMPTY,
                        active: true
                    };
                    3
                ],
                conc: vec![
                    ConcCell {
                        gid: 3,
                        virions: 1.0,
                        chem: 0.0
                    };
                    2
                ],
            },
        ];
        for msg in msgs {
            assert!(msg.corruptible());
            for seed in 0..64u64 {
                let mut m = msg.clone();
                m.corrupt(seed);
                let digest = |m: &CpuMsg| {
                    let mut c = Crc64::new();
                    m.digest(&mut c);
                    c.finish()
                };
                assert_ne!(digest(&m), digest(&msg), "flip changed the digest");
                m.corrupt(seed);
                assert_eq!(m, msg, "second application restores the original");
            }
        }
        // Empty aggregates expose no bits to flip.
        assert!(!CpuMsg::GhostConc(vec![]).corruptible());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(
            CpuMsg::MoveResult { src: 1, won: true }.wire_size(),
            9,
            "results are tiny RPCs"
        );
        let batch = CpuMsg::GhostConc(vec![
            ConcCell {
                gid: 0,
                virions: 0.0,
                chem: 0.0
            };
            10
        ]);
        assert_eq!(batch.wire_size(), 16 + 160);
        let state = CpuMsg::GhostState {
            agents: vec![
                AgentCell {
                    gid: 0,
                    epi_state: 1,
                    tcell: TCellSlot::EMPTY,
                    active: false
                };
                3
            ],
            conc: vec![],
        };
        assert_eq!(state.wire_size(), 16 + 42);
    }
}
