//! Typed errors for driver construction and execution.
//!
//! Construction used to panic (`expect("invalid parameters")`,
//! `assert_eq!` on dims); embedders of a production system need to handle
//! bad input as data, so every invalid configuration maps to a
//! [`ConfigError`] variant and every runtime failure to a [`SimError`].

use pgas::fault::SuperstepError;
use simcov_core::checkpoint::CheckpointError;
use simcov_core::grid::GridDims;
use simcov_core::integrity::IntegrityViolation;
use std::fmt;

/// Why a simulation could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `SimParams::validate` rejected the parameter set.
    InvalidParams(String),
    /// An explicit initial world does not match the configured grid.
    DimsMismatch { expected: GridDims, got: GridDims },
    /// Zero ranks/devices requested.
    ZeroUnits,
    /// Memory tiling needs a positive tile side.
    ZeroTileSide,
    /// The active-tile check period can at most equal the tile side: a
    /// tile's halo buffer is outrun after `tile_side` unchecked steps
    /// (paper §3.2).
    CheckPeriodOutOfRange { check_period: u64, tile_side: usize },
    /// NVLink domains need at least one device per node.
    ZeroDevicesPerNode,
    /// The grid cannot be partitioned as requested.
    Partition(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidParams(why) => write!(f, "invalid parameters: {why}"),
            ConfigError::DimsMismatch { expected, got } => {
                write!(f, "world dims {got:?} do not match configured {expected:?}")
            }
            ConfigError::ZeroUnits => write!(f, "need at least one rank/device"),
            ConfigError::ZeroTileSide => write!(f, "tile side must be positive"),
            ConfigError::CheckPeriodOutOfRange {
                check_period,
                tile_side,
            } => write!(
                f,
                "check period {check_period} exceeds tile side {tile_side} \
                 (halo buffer would be outrun)"
            ),
            ConfigError::ZeroDevicesPerNode => write!(f, "need at least one device per node"),
            ConfigError::Partition(why) => write!(f, "cannot partition grid: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a simulation stopped making progress.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Construction-grade error surfaced at runtime (e.g. a rebuild after
    /// recovery could not re-partition the grid).
    Config(ConfigError),
    /// A superstep failed (fail-stop or unhealed corruption) and no
    /// recovery is possible: either no recovery manager is engaged or no
    /// checkpoint exists to roll back to.
    Unrecoverable(SuperstepError),
    /// Recovery was attempted but failures kept recurring past the retry
    /// budget.
    RetriesExhausted { last: SuperstepError, attempts: u32 },
    /// Silent state corruption was detected but no *verified* checkpoint
    /// generation remained to roll back to.
    Integrity {
        step: u64,
        violation: IntegrityViolation,
    },
    /// A checkpoint blob could not be parsed (durable restart path).
    Checkpoint(CheckpointError),
    /// A checkpoint could not be restored into this simulation.
    Restore(String),
    /// A durable checkpoint file could not be written or read.
    Persist(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "configuration error: {e}"),
            SimError::Unrecoverable(failure) => {
                write!(
                    f,
                    "unrecoverable failure (no checkpoint to roll back to): {failure}"
                )
            }
            SimError::RetriesExhausted { last, attempts } => {
                write!(
                    f,
                    "recovery retries exhausted after {attempts} attempts: {last}"
                )
            }
            SimError::Integrity { step, violation } => {
                write!(f, "state integrity violation at step {step}: {violation}")
            }
            SimError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SimError::Restore(why) => write!(f, "cannot restore checkpoint: {why}"),
            SimError::Persist(why) => write!(f, "cannot persist checkpoint: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ConfigError::CheckPeriodOutOfRange {
            check_period: 9,
            tile_side: 8,
        };
        assert!(format!("{e}").contains("9"));
        assert!(format!("{e}").contains("8"));
        let s = SimError::RetriesExhausted {
            last: pgas::fault::SuperstepFailure {
                superstep: 4,
                dead_ranks: vec![0],
                dropped_messages: 0,
            }
            .into(),
            attempts: 8,
        };
        assert!(format!("{s}").contains("8 attempts"));
        let via: SimError = ConfigError::ZeroUnits.into();
        assert!(matches!(via, SimError::Config(ConfigError::ZeroUnits)));
        let iv = SimError::Integrity {
            step: 12,
            violation: IntegrityViolation::BadCarry,
        };
        assert!(format!("{iv}").contains("step 12"));
        let ce: SimError = CheckpointError::BadMagic.into();
        assert!(format!("{ce}").contains("bad magic"));
    }
}
