//! # tempi-core — TEMPI: Topology Experiments for MPI (reproduction)
//!
//! The paper's primary contribution, implemented on the simulated
//! substrates of [`gpu_sim`] and [`mpi_sim`]:
//!
//! * [`ir`] — the canonical datatype representation: translation of MPI
//!   derived types to a `DenseData`/`StreamData` tree (Algorithms 1–4),
//!   canonicalization by dense folding + stream elision to a fixed point
//!   (Algorithms 5–7), and conversion to the `StridedBlock` kernel
//!   parameterization (Algorithm 8).
//! * [`kernels`] — kernel selection (word size `W`, power-of-two block
//!   dimensions X→Z under the 1024-thread cap) and the pack/unpack engine:
//!   one dispatch from a committed plan to the plain copy, the 2-D / 3-D /
//!   N-D strided kernel or the block-list kernel, every one of them (and
//!   the CPU copy) the same walk of the typed buffer's runs.
//! * [`model`] — the Section-5 performance model (`T_device`,
//!   `T_oneshot`, `T_staged`) and the per-send method choice, priced from
//!   the same per-method [`config::Recipe`] the send engine executes.
//! * [`commit`] — the `MPI_Type_commit` pipeline, its per-type plan
//!   cache and the plans it keeps, interned by value.
//! * [`tempi`] — the library state: interposed `MPI_Pack`/`MPI_Unpack`, and
//!   datatype-accelerated `MPI_Send`/`MPI_Recv` over intermediate pooled
//!   buffers ([`buffers`]). What TEMPI does not cover it hands to the
//!   system MPI unchanged (`mpi_sim::RankCtx::{pack, unpack, send, recv}`).
//! * [`ladder`] — the degradation ladder as data: the rungs a transient
//!   failure steps down from (the send methods, the kernel path), one
//!   quarantine table over them, and the one body every step-down runs.
//! * [`interpose`] — the Section-4 architecture: a symbol-resolution
//!   table deciding, per MPI entry point, whether TEMPI or the system MPI
//!   serves the call, with automatic fall-through.
//! * [`tuner`] — the online calibration layer: EWMA ratios of measured to
//!   modeled time per model [`Term`], epsilon-greedy re-probing, and
//!   memoized per-(shape, size, peer) method decisions feeding [`tempi`]'s
//!   zero-allocation hot send path.
//!
//! ## Quickstart
//!
//! ```
//! use mpi_sim::{RankCtx, WorldConfig, consts::MPI_BYTE};
//! use tempi_core::interpose::InterposedMpi;
//! use tempi_core::config::TempiConfig;
//!
//! let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
//! let mut mpi = InterposedMpi::new(TempiConfig::default());
//!
//! // a 2-D strided object: 13 rows of 100 bytes in a 256-byte pitch
//! let dt = ctx.type_vector(13, 100, 256, MPI_BYTE).unwrap();
//! mpi.type_commit(&mut ctx, dt).unwrap();
//!
//! let src = ctx.gpu.malloc(13 * 256).unwrap();
//! let dst = ctx.gpu.malloc(1300).unwrap();
//! let mut position = 0;
//! mpi.pack(&mut ctx, src, 1, dt, dst, 1300, &mut position).unwrap();
//! assert_eq!(position, 1300);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffers;
pub mod commit;
pub mod config;
pub mod interpose;
pub mod ir;
pub mod kernels;
pub mod ladder;
pub mod model;
pub mod tempi;
pub mod tuner;

pub use config::{Method, Recipe, TempiConfig, TunerMode};
pub use interpose::{InterposedMpi, Linker, MpiSymbol, Provider};
pub use model::{Breakdown, Choice, SendModel, Term};
pub use tempi::{CommitReport, PlanKind, Tempi, TempiStats, TypePlan};
pub use tempi_trace::{TraceLevel, Tracer};
pub use tuner::{BucketKey, Decision, Tuner, Workload};
