//! Error type for the simulated GPU runtime.
//!
//! These mirror the failure classes a real CUDA program hits: invalid
//! pointers, out-of-bounds accesses, launch-geometry violations, and — the
//! one the simulator is strict about where real hardware is merely
//! crash-prone — device code touching memory the device cannot see.

use std::fmt;

use crate::memory::MemSpace;

/// Errors raised by the simulated GPU runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// The referenced allocation does not exist (never allocated, or freed).
    InvalidPointer {
        /// Numeric id of the allocation handle.
        alloc: u64,
    },
    /// An access ran past the end of its allocation.
    OutOfBounds {
        /// Numeric id of the allocation handle.
        alloc: u64,
        /// First byte of the attempted access, relative to the allocation.
        offset: usize,
        /// Length of the attempted access.
        len: usize,
        /// Size of the allocation.
        size: usize,
    },
    /// Device code (a kernel, or the device side of a copy) touched memory
    /// in a space the device cannot address (pageable host memory).
    NotDeviceAccessible {
        /// The space that was illegally accessed.
        space: MemSpace,
    },
    /// Kernel launch geometry violates device limits.
    InvalidLaunch {
        /// Human-readable description of the violated limit.
        reason: String,
    },
    /// Allocation request exceeded remaining device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// An operation required two distinct buffers but both arguments alias
    /// the same allocation (the simulator does not model intra-allocation
    /// overlapping copies).
    OverlappingBuffers,
    /// A kernel body reported a failure.
    KernelFault {
        /// Kernel name as given at launch.
        kernel: String,
        /// Underlying error.
        source: Box<GpuError>,
    },
    /// An asynchronous stream operation (kernel launch or copy) failed
    /// transiently — the class of driver/stream hiccup the fault injector
    /// models. Real CUDA surfaces these as sticky stream errors; the
    /// simulator keeps them per-operation so callers can retry or degrade.
    StreamFault {
        /// The operation that failed (kernel name or copy primitive).
        op: String,
    },
}

impl GpuError {
    /// Is this error *transient* — a resource-pressure or stream condition
    /// that a caller may reasonably retry or degrade around — rather than
    /// a program error?
    ///
    /// Transient: [`GpuError::OutOfMemory`] (device pressure can subside
    /// when staging buffers are returned, and a smaller/host-side path can
    /// be chosen instead) and [`GpuError::StreamFault`] (injected async
    /// hiccups). A [`GpuError::KernelFault`] inherits the classification
    /// of its source. Everything else — bad pointers, out-of-bounds,
    /// space violations, bad launch geometry — is a program error and
    /// must propagate.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            GpuError::OutOfMemory { .. } | GpuError::StreamFault { .. } => true,
            GpuError::KernelFault { source, .. } => source.is_transient(),
            _ => false,
        }
    }
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::InvalidPointer { alloc } => {
                write!(f, "invalid pointer: allocation #{alloc} does not exist")
            }
            GpuError::OutOfBounds {
                alloc,
                offset,
                len,
                size,
            } => write!(
                f,
                "out-of-bounds access: [{offset}, {}) in allocation #{alloc} of {size} bytes",
                offset + len
            ),
            GpuError::NotDeviceAccessible { space } => {
                write!(
                    f,
                    "device access to non-device-accessible memory ({space:?})"
                )
            }
            GpuError::InvalidLaunch { reason } => write!(f, "invalid kernel launch: {reason}"),
            GpuError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            GpuError::OverlappingBuffers => {
                write!(f, "source and destination alias the same allocation")
            }
            GpuError::KernelFault { kernel, source } => {
                write!(f, "fault in kernel `{kernel}`: {source}")
            }
            GpuError::StreamFault { op } => {
                write!(f, "transient stream fault in `{op}`")
            }
        }
    }
}

impl std::error::Error for GpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpuError::KernelFault { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Result alias for GPU-runtime operations.
pub type GpuResult<T> = Result<T, GpuError>;
