//! # gpu-sim — a functional, virtual-time simulated CUDA runtime
//!
//! This crate is the GPU substrate for the TEMPI reproduction. It provides
//! a CUDA-shaped API — devices, address-spaced memory, streams, async
//! copies (including strided 2D DMA), and kernel launches — with two
//! properties the reproduction needs:
//!
//! 1. **Functional fidelity.** Allocations are real byte buffers; copies and
//!    kernel bodies move real bytes, and CUDA's space rule (device code
//!    cannot touch pageable host memory) is *enforced* rather than merely
//!    crash-prone.
//! 2. **Virtual timing.** Every operation advances a deterministic virtual
//!    clock according to an analytic cost model ([`cost::GpuCostModel`])
//!    calibrated to the paper's published Summit measurements (11 µs
//!    memcpy+sync floor, 4.5 µs kernel launch, 212/202 GB/s device
//!    pack/unpack peaks, 32.5/39 GB/s one-shot peaks, coalescing knees at
//!    32 B / 128 B).
//!
//! See `DESIGN.md` at the repository root for how this substitutes for the
//! paper's physical V100/GTX-1070 hardware.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::{GpuContext, DeviceProps, Stream, GpuCostModel, SimClock};
//!
//! let ctx = GpuContext::new(DeviceProps::v100());
//! let mut stream = Stream::new(ctx.clone(), GpuCostModel::summit_v100());
//! let mut clock = SimClock::new();
//!
//! let host = ctx.pinned_alloc(1024).unwrap();
//! let dev = ctx.malloc(1024).unwrap();
//! ctx.memory().poke(host, &[7u8; 1024]).unwrap();
//!
//! stream.memcpy(&mut clock, dev, host, 1024).unwrap();
//! assert_eq!(ctx.memory().peek(dev, 1024).unwrap(), vec![7u8; 1024]);
//! // ~11 µs latency floor, exactly as measured on Summit:
//! assert!(clock.now().as_us_f64() >= 11.0);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod stream;

pub use clock::{SimClock, SimStopwatch, SimTime};
pub use cost::{CopyKind, GpuCostModel, PackDir, PackTarget};
pub use device::DeviceProps;
pub use error::{GpuError, GpuResult};
pub use fault::{FaultSite, SiteInjector, SiteSpec};
pub use kernel::{div_ceil, next_pow2, Dim3, LaunchConfig};
pub use memory::{fnv1a64, Copier, CopyRule, GpuContext, GpuPtr, MemSpace, Memory, Region};
pub use stream::{Stream, StreamStats};
pub use tempi_trace::{TraceLevel, Tracer};
