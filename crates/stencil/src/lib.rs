//! # tempi-stencil — the paper's 3-D stencil case study (§6.4)
//!
//! A 26-point stencil over a `N³ × P` periodic grid: each rank owns an
//! `N³` interior with a ghost shell of radius 2. Every iteration, each
//! rank packs its 26 halo regions (each a separate
//! `MPI_Type_create_subarray` datatype) into one buffer, exchanges with a
//! single `MPI_Alltoallv`, unpacks the 26 arriving regions, and applies the
//! stencil. The paper packs with one `MPI_Pack` per region; here the 26
//! regions of a side are one more datatype — `MPI_Type_create_struct` over
//! the 26 subarrays, in exchange order — so a side is one `MPI_Pack` or
//! `MPI_Unpack` call. Pack/unpack run through the interposed MPI — the
//! same application code measures the system-MPI baseline and TEMPI
//! (Fig. 12's comparison, which also measures the per-region calls).
//!
//! ```
//! use mpi_sim::{World, WorldConfig};
//! use tempi_core::{config::TempiConfig, interpose::InterposedMpi};
//! use tempi_stencil::{HaloConfig, HaloExchanger};
//!
//! let cfg = WorldConfig::summit(8);
//! let times = World::run(&cfg, |ctx| {
//!     let mut mpi = InterposedMpi::new(TempiConfig::default());
//!     let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(6))?;
//!     ex.fill(ctx)?;
//!     let t = ex.exchange(ctx, &mut mpi)?;
//!     assert_eq!(ex.verify_ghosts(ctx)?, 0);
//!     Ok(t.total())
//! }).unwrap();
//! assert_eq!(times.len(), 8);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod compute;
pub mod decomp;
pub mod exchange;
pub mod halo;

pub use checkpoint::{CheckpointStore, Frame, GenRecord, Snapshot};
pub use compute::apply_stencil;
pub use decomp::{dir_index, opposite, Decomp, DIRS};
pub use exchange::{cell_value, ExchangeTiming, HaloExchanger, RecoveryOutcome};
pub use halo::{HaloConfig, HaloTypes};
