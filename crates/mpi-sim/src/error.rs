//! Error type for the simulated MPI runtime.
//!
//! Since the fault-injection work the taxonomy is split into *transient*
//! errors (worth retrying or degrading around: injected link faults,
//! GPU resource pressure) and *fatal* ones (program errors that must
//! propagate); see [`MpiError::is_transient`].

use std::fmt;

use gpu_sim::GpuError;

use crate::datatype::Envelope;

/// Errors raised by the simulated MPI runtime — the moral equivalents of
/// MPI error classes (`MPI_ERR_TYPE`, `MPI_ERR_ARG`, `MPI_ERR_TRUNCATE`,
/// ...), plus propagation of simulated-GPU faults and the transient
/// communication failures produced by the fault injector.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum MpiError {
    /// A datatype handle does not name a live datatype (`MPI_ERR_TYPE`).
    InvalidDatatype,
    /// A datatype was used in communication before `MPI_Type_commit`.
    NotCommitted,
    /// An argument violated a precondition (`MPI_ERR_ARG`); the string says
    /// which.
    InvalidArg(String),
    /// A receive matched a message longer than the posted buffer
    /// (`MPI_ERR_TRUNCATE`).
    Truncated {
        /// Bytes the sender shipped.
        sent: usize,
        /// Bytes the receive buffer could hold.
        capacity: usize,
        /// Envelope of the receiving datatype, when one was involved
        /// (raw-bytes receives carry `None`).
        envelope: Option<Envelope>,
    },
    /// Rank out of range for the communicator (`MPI_ERR_RANK`).
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// Pack/unpack output buffer too small (`MPI_ERR_BUFFER`).
    BufferTooSmall {
        /// Bytes required.
        required: usize,
        /// Bytes available after the current position.
        available: usize,
        /// Envelope of the datatype being packed/unpacked, when known.
        envelope: Option<Envelope>,
    },
    /// A simulated GPU operation failed.
    Gpu(GpuError),
    /// The peer rank exited before matching a pending operation.
    PeerGone,
    /// The communicator was revoked (ULFM `MPI_Comm_revoke`): a rank that
    /// observed a failure poisoned the communicator so every member blocked
    /// in an operation errors out instead of hanging. Only
    /// `agree` and `shrink` are legal until recovery completes.
    Revoked,
    /// A transient communication failure on the link to `peer` — the
    /// retryable condition the fault injector produces. Callers normally
    /// never see this: the p2p layer retries with backoff and surfaces
    /// [`MpiError::CommFailed`] only once the budget is exhausted.
    CommTransient {
        /// The peer rank on the failing link.
        peer: usize,
    },
    /// The link to `peer` still failed after `attempts` tries (the
    /// retry budget was exhausted).
    CommFailed {
        /// The peer rank on the failing link.
        peer: usize,
        /// Total attempts made (1 initial + retries).
        attempts: u32,
    },
    /// Every delivery attempt from `peer` failed its payload checksum: the
    /// NACK/retransmit handshake exhausted its budget without a clean copy.
    /// Like [`MpiError::CommFailed`] this is a *communicator* failure —
    /// the link is lying, not the program — so recovery paths treat it as
    /// repairable by revoke/agree/shrink.
    Corrupted {
        /// The peer rank whose payloads kept failing verification.
        peer: usize,
        /// Total delivery attempts made (1 initial + retransmits).
        attempts: u32,
    },
    /// The world quiesced with operations still pending: every live rank is
    /// parked (in a receive, a wait, a barrier or send backpressure) and
    /// nothing is left running to wake one, so no rank can ever make
    /// progress.
    ///
    /// Produced by the scheduler's structural detector (see
    /// [`crate::sched`]) instead of letting the process hang. Named after the condition,
    /// not a peer: a deadlock is a property of the whole world.
    Deadlock {
        /// World ranks that were blocked when quiescence was detected.
        ranks: Vec<usize>,
        /// Human-readable description of each stuck rank's pending
        /// operation, parallel to `ranks`.
        ops: Vec<String>,
    },
    /// A rank's body panicked. The runtime catches the unwind at the rank
    /// boundary so one crashing rank cannot discard every other rank's
    /// result (or tear down the whole world scope) — the panic surfaces
    /// as this typed error carrying the panicking rank's id and message,
    /// and the run's other results stay observable.
    RankPanicked {
        /// World rank whose body panicked.
        rank: usize,
        /// The panic payload, when it was a string (the common case);
        /// `"<non-string panic payload>"` otherwise.
        message: String,
    },
    /// Every datatype handle is taken: the registry's slots are all live
    /// or retired, and one more would not fit in a handle's slot bits
    /// (`MPI_ERR_INTERN`).
    HandlesExhausted,
    /// Internal invariant violation (a bug in the simulator, not the
    /// application).
    Internal(String),
}

impl MpiError {
    /// Is this error *transient* — a condition that bounded retry or a
    /// degraded path may recover from — rather than a program error?
    ///
    /// Transient: [`MpiError::CommTransient`] and any [`MpiError::Gpu`]
    /// whose GPU error is itself transient ([`GpuError::is_transient`]:
    /// out-of-memory and stream faults). Everything else — bad arguments,
    /// truncation, uncommitted types, exhausted retries, dead peers — is
    /// fatal to the operation that observed it.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            MpiError::CommTransient { .. } => true,
            MpiError::Gpu(e) => e.is_transient(),
            _ => false,
        }
    }

    /// Name the receive's datatype in a [`MpiError::Truncated`] raised by a
    /// layer that moves raw bytes and so could not; any other error passes
    /// through. The envelope is only looked up when it is needed.
    #[must_use]
    pub fn with_envelope(self, envelope: impl FnOnce() -> Option<Envelope>) -> MpiError {
        match self {
            MpiError::Truncated { sent, capacity, .. } => MpiError::Truncated {
                sent,
                capacity,
                envelope: envelope(),
            },
            e => e,
        }
    }

    /// Is this a *communicator* failure — the class of errors a ULFM-style
    /// recovery path (revoke → agree → shrink) can repair, as opposed to a
    /// program error in the operation itself?
    ///
    /// Covers dead peers ([`MpiError::PeerGone`]), revoked communicators
    /// ([`MpiError::Revoked`]), exhausted link retries
    /// ([`MpiError::CommFailed`]) and exhausted corruption retransmits
    /// ([`MpiError::Corrupted`]).
    #[must_use]
    pub fn is_comm_failure(&self) -> bool {
        matches!(
            self,
            MpiError::PeerGone
                | MpiError::Revoked
                | MpiError::CommFailed { .. }
                | MpiError::Corrupted { .. }
        )
    }
}

/// Render the combiner of an optional envelope for error messages.
fn envelope_suffix(envelope: &Option<Envelope>) -> String {
    match envelope {
        Some(env) => format!(" (datatype combiner {:?})", env.combiner),
        None => String::new(),
    }
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::InvalidDatatype => write!(f, "invalid datatype handle"),
            MpiError::NotCommitted => write!(f, "datatype used before MPI_Type_commit"),
            MpiError::InvalidArg(s) => write!(f, "invalid argument: {s}"),
            MpiError::Truncated {
                sent,
                capacity,
                envelope,
            } => {
                write!(
                    f,
                    "message truncated: {sent} bytes sent, buffer holds {capacity}{}",
                    envelope_suffix(envelope)
                )
            }
            MpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::BufferTooSmall {
                required,
                available,
                envelope,
            } => write!(
                f,
                "buffer too small: {required} bytes required, {available} available{}",
                envelope_suffix(envelope)
            ),
            MpiError::Gpu(e) => write!(f, "GPU error: {e}"),
            MpiError::PeerGone => write!(f, "peer rank exited with operations pending"),
            MpiError::Revoked => write!(
                f,
                "communicator revoked; agree on failures and shrink before new operations"
            ),
            MpiError::CommTransient { peer } => {
                write!(f, "transient communication failure on link to rank {peer}")
            }
            MpiError::CommFailed { peer, attempts } => {
                write!(
                    f,
                    "communication with rank {peer} failed after {attempts} attempts"
                )
            }
            MpiError::Corrupted { peer, attempts } => {
                write!(
                    f,
                    "payload from rank {peer} failed checksum verification on all {attempts} delivery attempts"
                )
            }
            MpiError::Deadlock { ranks, ops } => {
                write!(f, "deadlock: world quiesced with operations pending [")?;
                for (i, (r, op)) in ranks.iter().zip(ops.iter()).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "rank {r}: {op}")?;
                }
                write!(f, "]")
            }
            MpiError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            MpiError::HandlesExhausted => write!(f, "no datatype handle left to create"),
            MpiError::Internal(s) => write!(f, "internal simulator error: {s}"),
        }
    }
}

impl std::error::Error for MpiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpiError::Gpu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GpuError> for MpiError {
    fn from(e: GpuError) -> Self {
        MpiError::Gpu(e)
    }
}

/// Result alias for MPI-runtime operations.
pub type MpiResult<T> = Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_taxonomy() {
        assert!(MpiError::CommTransient { peer: 1 }.is_transient());
        assert!(MpiError::Gpu(GpuError::OutOfMemory {
            requested: 8,
            available: 0
        })
        .is_transient());
        assert!(MpiError::Gpu(GpuError::StreamFault { op: "pack".into() }).is_transient());
        assert!(!MpiError::Gpu(GpuError::OverlappingBuffers).is_transient());
        assert!(!MpiError::CommFailed {
            peer: 1,
            attempts: 4
        }
        .is_transient());
        assert!(!MpiError::PeerGone.is_transient());
        assert!(!MpiError::Revoked.is_transient());
        assert!(!MpiError::NotCommitted.is_transient());
        assert!(!MpiError::Truncated {
            sent: 2,
            capacity: 1,
            envelope: None
        }
        .is_transient());
    }

    #[test]
    fn comm_failure_taxonomy() {
        assert!(MpiError::PeerGone.is_comm_failure());
        assert!(MpiError::Revoked.is_comm_failure());
        assert!(MpiError::CommFailed {
            peer: 2,
            attempts: 4
        }
        .is_comm_failure());
        assert!(MpiError::Corrupted {
            peer: 2,
            attempts: 4
        }
        .is_comm_failure());
        assert!(!MpiError::CommTransient { peer: 2 }.is_comm_failure());
        assert!(!MpiError::NotCommitted.is_comm_failure());
        assert!(!MpiError::Internal("x".into()).is_comm_failure());
    }

    #[test]
    fn deadlock_is_neither_transient_nor_repairable() {
        // A quiesced world cannot be retried into progress and revoking
        // the communicator cannot un-stick ranks that already blocked, so
        // the deadlock verdict sits outside both recovery taxonomies.
        let dl = MpiError::Deadlock {
            ranks: vec![0, 2],
            ops: vec!["recv(src=1, tag=5)".into(), "barrier".into()],
        };
        assert!(!dl.is_transient());
        assert!(!dl.is_comm_failure());
        let msg = format!("{dl}");
        assert!(msg.contains("rank 0: recv(src=1, tag=5)"), "{msg}");
        assert!(msg.contains("rank 2: barrier"), "{msg}");
    }

    #[test]
    fn rank_panic_is_fatal_and_names_the_rank() {
        // A panic is a program error: not retryable, and not something
        // revoke/shrink can repair (the rank's state is gone).
        let e = MpiError::RankPanicked {
            rank: 3,
            message: "index out of bounds".into(),
        };
        assert!(!e.is_transient());
        assert!(!e.is_comm_failure());
        let msg = format!("{e}");
        assert!(msg.contains("rank 3"), "{msg}");
        assert!(msg.contains("index out of bounds"), "{msg}");
    }

    #[test]
    fn messages_carry_envelope_context() {
        use crate::datatype::Combiner;
        let env = Envelope {
            num_integers: 3,
            num_addresses: 0,
            num_datatypes: 1,
            combiner: Combiner::Vector,
        };
        let msg = format!(
            "{}",
            MpiError::Truncated {
                sent: 128,
                capacity: 32,
                envelope: Some(env),
            }
        );
        assert!(msg.contains("Vector"), "{msg}");
        let msg = format!(
            "{}",
            MpiError::BufferTooSmall {
                required: 64,
                available: 16,
                envelope: None,
            }
        );
        assert!(!msg.contains("combiner"), "{msg}");
    }
}
