//! # mpi-sim — a simulated multi-rank MPI runtime with a full derived-datatype engine
//!
//! This crate is the MPI substrate for the TEMPI reproduction (see
//! `DESIGN.md` at the repository root). It provides:
//!
//! * a **derived-datatype engine** ([`datatype`]) — named / contiguous /
//!   vector / hvector / indexed / hindexed / subarray / struct / resized
//!   types with MPI-standard attribute semantics (size, extent, true
//!   extent), full `get_envelope`/`get_contents` introspection (the face
//!   TEMPI's translation consumes), an allocation-free walk of the
//!   typemap's contiguous blocks (the semantics oracle, and what the
//!   baselines copy), and reference CPU pack/unpack;
//! * **vendor profiles** ([`vendor`]) reproducing the baseline GPU datatype
//!   behavior of Spectrum MPI 10.3.1.2, OpenMPI 4.0.5 and MVAPICH2 2.3.4 —
//!   copy-per-block packing, MVAPICH's specialized root-vector kernel and
//!   its contiguous-pack synchronization bug, Spectrum's chunked transfers;
//! * a **network model** ([`net`]) encoding the paper's Fig. 8a
//!   measurements (2.2 µs CPU floor, 11 µs CUDA-aware floor); and
//! * a **multi-rank runtime** ([`runtime`], [`p2p`], [`collective`]) — an
//!   event-driven virtual-time scheduler ([`sched`]) running each rank as
//!   a fiber with one simulated GPU (10,000+ ranks on a laptop),
//!   Lamport-style virtual clocks, blocking send/recv with MPI matching
//!   rules, `Alltoallv`, barriers, and ULFM-style communicator recovery ([`comm`]: revoke /
//!   agree / shrink with epoch-stamped envelopes); and
//! * a **deterministic fault-injection subsystem** ([`fault`]) — seeded,
//!   replayable fault schedules over one table of injection sites
//!   ([`FaultSite`], defined in `gpu-sim` so the device draws from the same
//!   per-rank injector as the message path), and the degradation-event log
//!   the TEMPI layer appends to when it downgrades a send path — consulted
//!   on the message path only through one **reliability layer**
//!   ([`reliability`]): gates with bounded retry + backoff in virtual time,
//!   death notices, and an end-to-end integrity envelope (senders stamp
//!   payloads with a content checksum, [`payload_checksum`]; the injector
//!   can flip bytes in transit; receivers verify and run a bounded
//!   NACK/retransmit handshake before surfacing [`MpiError::Corrupted`]).
//!
//! All timing is virtual and deterministic; all data movement is real bytes
//! verified against the typemap oracle.

#![warn(missing_docs)]
// The context switch and the scoped spawn are the crate's only unsafe code.
#![deny(unsafe_code)]

pub mod collective;
pub mod comm;
pub mod datatype;
pub mod error;
pub mod fault;
pub mod net;
pub mod p2p;
mod pool;
pub mod reliability;
pub mod runtime;
#[allow(unsafe_code)]
pub mod sched;
pub mod vendor;

pub use collective::AlltoallvBlock;
pub use datatype::{consts, Combiner, Contents, Datatype, Envelope, Named, Order, TypeRegistry};
pub use error::{MpiError, MpiResult};
pub use fault::{
    DegradeEvent, DelaySpec, FaultInjector, FaultPlan, FaultSite, FaultStats, RankExit, ScopedFault,
};
pub use net::{NetModel, Transport};
pub use p2p::{
    check_item_offsets, transfer_bytes, Message, PartInfo, Payload, ProbeInfo, Status,
    INLINE_PAYLOAD_BYTES,
};
pub use reliability::{payload_checksum, FaultState};
pub use runtime::{RankCtx, World, WorldConfig};
pub use sched::{INBOX_HWM, PAYLOAD_POOL_BYTES};
pub use tempi_trace::{TraceLevel, Tracer};
pub use vendor::{BaselineMethod, VendorId, VendorProfile};
