//! # tempi — an interposed MPI library with a canonical representation of CUDA-aware datatypes
//!
//! A simulation-backed, from-scratch Rust reproduction of
//! *TEMPI: An Interposed MPI Library with a Canonical Representation of
//! CUDA-aware Datatypes* (Pearson et al., HPDC 2021).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`gpu`] ([`gpu_sim`]) — the simulated CUDA runtime: address-spaced
//!   memory, streams, kernels, and a virtual-time cost model calibrated to
//!   the paper's Summit measurements.
//! * [`mpi`] ([`mpi_sim`]) — the simulated MPI runtime: the full derived-
//!   datatype engine, vendor baseline profiles (Spectrum MPI / OpenMPI /
//!   MVAPICH2), a network model, and a multi-rank world.
//! * [`core`] ([`tempi_core`]) — the paper's contribution: datatype
//!   translation (Algs. 1–4), canonicalization (Algs. 5–7), the
//!   `StridedBlock` kernel parameterization (Alg. 8), kernel selection,
//!   the Section-5 performance model, and the interposer architecture.
//! * [`stencil`] ([`tempi_stencil`]) — the paper's 3-D 26-point stencil
//!   halo-exchange case study.
//! * [`trace`] ([`tempi_trace`]) — the observability layer: virtual-time
//!   spans, a typed metrics registry, and the Chrome `trace_event`
//!   exporter, zero-overhead when off (`TEMPI_TRACE=off`).
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and the
//! hardware-substitution rationale, and `EXPERIMENTS.md` for
//! paper-vs-measured results of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use tempi::prelude::*;
//!
//! // A single simulated Summit rank with TEMPI interposed.
//! let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
//! let mut mpi = InterposedMpi::new(TempiConfig::default());
//!
//! // 13 rows of 100 bytes, 256 bytes apart — a 2-D strided object.
//! let dt = ctx.type_vector(13, 100, 256, MPI_BYTE).unwrap();
//! mpi.type_commit(&mut ctx, dt).unwrap();
//!
//! // Pack it on the (simulated) GPU.
//! let src = ctx.gpu.malloc(13 * 256).unwrap();
//! let dst = ctx.gpu.malloc(1300).unwrap();
//! let mut pos = 0;
//! mpi.pack(&mut ctx, src, 1, dt, dst, 1300, &mut pos).unwrap();
//! assert_eq!(pos, 1300);
//! ```

#![warn(missing_docs)]

pub use gpu_sim as gpu;
pub use mpi_sim as mpi;
pub use tempi_core as core;
pub use tempi_stencil as stencil;
pub use tempi_trace as trace;

/// The most common imports, for examples and applications.
pub mod prelude {
    pub use gpu_sim::{
        Dim3, GpuContext, GpuCostModel, GpuPtr, MemSpace, PackDir, PackTarget, SimClock, SimTime,
        Stream,
    };
    pub use mpi_sim::consts::*;
    pub use mpi_sim::datatype::{Order, TypeTree};
    pub use mpi_sim::{
        Datatype, MpiError, MpiResult, NetModel, RankCtx, VendorProfile, World, WorldConfig,
    };
    pub use tempi_core::{
        config::{Method, TempiConfig},
        interpose::{InterposedMpi, Linker, MpiSymbol, Provider},
        model::SendModel,
        tempi::{PlanKind, Tempi},
    };
    pub use tempi_stencil::{HaloConfig, HaloExchanger};
    pub use tempi_trace::{TraceLevel, Tracer};
}
