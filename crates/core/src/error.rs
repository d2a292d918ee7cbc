//! Error types for the secure-memory engine.

use amnt_bmt::NodeId;
use amnt_nvm::NvmError;
use std::fmt;

/// An integrity-verification failure — the hardware's signal that off-chip
/// data was corrupted, spliced or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The data block's HMAC did not match.
    DataMac {
        /// Address of the failing block.
        addr: u64,
    },
    /// A tree node failed verification against its parent.
    NodeMac {
        /// The node whose MAC mismatched.
        node: NodeId,
    },
    /// A counter block failed verification against its parent node.
    CounterMac {
        /// Index of the failing counter block.
        index: u64,
    },
    /// The recomputed root did not match the on-chip root register.
    RootMismatch,
    /// An address outside the protected data region was accessed.
    OutOfRange {
        /// The offending address.
        addr: u64,
    },
    /// The underlying device failed.
    Device(NvmError),
    /// The AMNT subtree root level is not a stored level of this tree:
    /// level 1 is the on-chip root, and levels past the bottom do not exist.
    SubtreeLevel {
        /// The configured subtree level.
        level: u32,
        /// The tree's bottom node level, the deepest a subtree root may sit.
        bottom: u32,
    },
    /// An internal structural invariant was violated (e.g. a stored tree
    /// node with no parent). Indicates controller state corruption rather
    /// than data tampering; surfaced as an error instead of a panic so the
    /// crash path stays panic-free.
    Invariant {
        /// Which invariant broke.
        what: &'static str,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::DataMac { addr } => {
                write!(f, "data HMAC mismatch at {addr:#x} (corruption or replay)")
            }
            IntegrityError::NodeMac { node } => {
                write!(f, "integrity-tree node {node} failed verification")
            }
            IntegrityError::CounterMac { index } => {
                write!(f, "counter block {index} failed verification")
            }
            IntegrityError::RootMismatch => {
                write!(f, "recomputed tree root does not match the on-chip root register")
            }
            IntegrityError::OutOfRange { addr } => {
                write!(f, "address {addr:#x} is outside the protected region")
            }
            IntegrityError::Device(e) => write!(f, "device error: {e}"),
            IntegrityError::SubtreeLevel { level, bottom } => write!(
                f,
                "AMNT subtree level {level} is outside this tree's stored levels 2..={bottom}"
            ),
            IntegrityError::Invariant { what } => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IntegrityError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NvmError> for IntegrityError {
    fn from(e: NvmError) -> Self {
        IntegrityError::Device(e)
    }
}

/// Why post-crash recovery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The active protocol gives no crash-consistency guarantee, and the
    /// persisted metadata is inconsistent with the root register.
    Unrecoverable {
        /// Human-readable explanation.
        reason: String,
    },
    /// Counter recovery exhausted its stop-loss budget — corruption, or the
    /// counter was staler than the protocol permits.
    CounterUnrecoverable {
        /// Index of the counter block that could not be recovered.
        index: u64,
    },
    /// The rebuilt tree does not match the on-chip root register(s).
    RootMismatch,
    /// The underlying device failed.
    Device(NvmError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Unrecoverable { reason } => write!(f, "unrecoverable: {reason}"),
            RecoveryError::CounterUnrecoverable { index } => {
                write!(f, "counter block {index} could not be recovered")
            }
            RecoveryError::RootMismatch => {
                write!(f, "rebuilt tree root does not match the on-chip register")
            }
            RecoveryError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NvmError> for RecoveryError {
    fn from(e: NvmError) -> Self {
        RecoveryError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = IntegrityError::DataMac { addr: 0x40 };
        let s = e.to_string();
        assert!(s.contains("0x40"));
        assert!(s.starts_with(char::is_lowercase));
        assert!(IntegrityError::RootMismatch.to_string().contains("root"));
    }

    #[test]
    fn device_errors_chain_as_source() {
        use std::error::Error;
        let e = IntegrityError::Device(NvmError::Misaligned { addr: 3 });
        assert!(e.source().is_some());
        let r = RecoveryError::RootMismatch;
        assert!(r.source().is_none());
    }
}
