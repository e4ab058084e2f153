//! Simulated GPU/host memory with distinct address spaces.
//!
//! The simulator gives every allocation a real backing `Vec<u8>` so packing
//! kernels move actual bytes and tests can verify functional correctness.
//! Each allocation is tagged with a [`MemSpace`]; the runtime enforces the
//! same visibility rules a CUDA program lives under:
//!
//! * **Device** memory is visible to kernels and device-side copies only.
//!   Host code must use an explicit copy (or the documented `peek`/`poke`
//!   debug backdoor) to touch it.
//! * **Host** (pageable) memory is *not* visible to device code — a kernel
//!   dereferencing it is an error in the simulator, where on real hardware
//!   it would be a crash or silent corruption.
//! * **Pinned** host memory is visible to the DMA engine (fast copies) but
//!   not directly addressable by kernels.
//! * **Mapped** (zero-copy) host memory is visible to both sides; this is
//!   the buffer class the paper's *one-shot* method packs into.

use std::collections::HashMap;
use std::ops::{Deref, Range};
use std::sync::Arc;

use tempi_trace::sync::{Mutex, MutexGuard};

use crate::device::DeviceProps;
use crate::error::{GpuError, GpuResult};
use crate::fault::{FaultSite, SiteInjector};

/// Address space of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// GPU global memory (`cudaMalloc`).
    Device,
    /// Ordinary pageable host memory (`malloc`).
    Host,
    /// Page-locked host memory (`cudaMallocHost` without mapping).
    Pinned,
    /// Page-locked, device-mapped ("zero-copy") host memory
    /// (`cudaHostAlloc(..., cudaHostAllocMapped)`).
    Mapped,
}

impl MemSpace {
    /// Can a kernel (device code) dereference pointers in this space?
    #[inline]
    pub fn device_accessible(self) -> bool {
        matches!(self, MemSpace::Device | MemSpace::Mapped)
    }

    /// Is this space on the host side of the interconnect (so device access
    /// pays interconnect bandwidth rather than HBM bandwidth)?
    #[inline]
    pub fn on_host(self) -> bool {
        !matches!(self, MemSpace::Device)
    }
}

/// A (typed-as-bytes) pointer into simulated memory: allocation handle plus
/// byte offset. `GpuPtr` is `Copy` and supports pointer arithmetic with
/// [`GpuPtr::add`], like a raw `char*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GpuPtr {
    pub(crate) alloc: u64,
    /// Byte offset from the allocation base.
    pub offset: usize,
    /// Address space (cached from the allocation for cheap checks).
    pub space: MemSpace,
}

impl GpuPtr {
    /// Pointer `self + bytes`.
    // named after raw-pointer `add`, deliberately mirroring CUDA-style
    // pointer arithmetic at call sites
    #[allow(clippy::should_implement_trait)]
    #[inline]
    #[must_use]
    pub fn add(self, bytes: usize) -> GpuPtr {
        GpuPtr {
            alloc: self.alloc,
            offset: self.offset + bytes,
            space: self.space,
        }
    }

    /// Signed pointer arithmetic: `self + delta` bytes. Returns `None` if
    /// the result would fall before the allocation base.
    #[inline]
    #[must_use]
    pub fn offset_by(self, delta: i64) -> Option<GpuPtr> {
        let off = self.offset as i64 + delta;
        if off < 0 {
            None
        } else {
            Some(GpuPtr {
                alloc: self.alloc,
                offset: off as usize,
                space: self.space,
            })
        }
    }

    /// Alignment of this pointer, assuming (as the simulator guarantees)
    /// that every allocation base is 256-byte aligned — the same guarantee
    /// `cudaMalloc` provides. Returns the largest power of two ≤ 256 that
    /// divides the address.
    pub fn alignment(self) -> usize {
        let mut a = 256usize;
        while a > 1 && self.offset % a != 0 {
            a /= 2;
        }
        a
    }

    /// The numeric id of the owning allocation (for diagnostics).
    pub fn alloc_id(self) -> u64 {
        self.alloc
    }
}

struct Alloc {
    data: Vec<u8>,
    space: MemSpace,
}

/// How a [`Copier`] treats address spaces and two runs of one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyRule {
    /// Device code, as in a kernel's body: both ends
    /// device-accessible, a run of no bytes checked for nothing else, and a
    /// copy within one allocation only between disjoint ranges.
    Kernel,
    /// The copy engine, whose caller checks the transfer kind itself:
    /// [`CopyRule::Kernel`] without the space rule.
    Dma,
    /// Host code through the debug backdoor, as [`Memory::peek`] then
    /// [`Memory::poke`]: no space rule, a run of no bytes still held to its
    /// bounds, and overlapping ranges of one allocation moved as by
    /// `memmove`.
    Backdoor,
}

impl CopyRule {
    /// `found`, allocation `alloc`'s entry, as an end of a copy under this
    /// rule: live, and in a space the rule may touch.
    fn end<A: Deref<Target = Alloc>>(self, alloc: u64, found: Option<A>) -> GpuResult<A> {
        let a = found.ok_or(GpuError::InvalidPointer { alloc })?;
        if self == CopyRule::Kernel && !a.space.device_accessible() {
            return Err(GpuError::NotDeviceAccessible { space: a.space });
        }
        Ok(a)
    }
}

/// The one bounds rule of every accessor: the `len` bytes at `at` of
/// allocation `alloc`, which is `size` bytes long.
#[inline]
fn span(alloc: u64, size: usize, at: usize, len: usize) -> GpuResult<Range<usize>> {
    match at.checked_add(len) {
        Some(end) if end <= size => Ok(at..end),
        _ => Err(GpuError::OutOfBounds {
            alloc,
            offset: at,
            len,
            size,
        }),
    }
}

/// One allocation looked up once, for any number of accesses: its bytes,
/// or why they cannot be touched, reported at the first access — a region
/// never accessed never fails. Offsets are from the allocation base.
pub struct Region<B> {
    alloc: u64,
    bytes: GpuResult<B>,
}

impl<B: AsRef<[u8]>> Region<B> {
    /// The `len` bytes at offset `at`.
    #[inline]
    pub fn read(&self, at: usize, len: usize) -> GpuResult<&[u8]> {
        let bytes = self.bytes.as_ref().map_err(GpuError::clone)?.as_ref();
        Ok(&bytes[span(self.alloc, bytes.len(), at, len)?])
    }
}

impl<B: AsMut<[u8]>> Region<B> {
    /// The `len` bytes at offset `at`, to overwrite.
    #[inline]
    fn run_mut(&mut self, at: usize, len: usize) -> GpuResult<&mut [u8]> {
        let bytes = self.bytes.as_mut().map_err(|e| e.clone())?.as_mut();
        let run = span(self.alloc, bytes.len(), at, len)?;
        Ok(&mut bytes[run])
    }

    /// Overwrite the bytes at offset `at` with `data`.
    #[inline]
    pub fn write(&mut self, at: usize, data: &[u8]) -> GpuResult<()> {
        self.run_mut(at, data.len())?.copy_from_slice(data);
        Ok(())
    }
}

/// Copies between two allocations looked up and checked under one
/// [`CopyRule`] once, for any number of runs — a kernel launch's: each run
/// then pays only its bounds check, and the overlap rule when both ends
/// are one allocation, and a row of equal runs one check for all of them
/// ([`Copier::copy_row`]). Every run fails as the same copy made alone
/// would, with the same error. Made by [`Memory::copier`].
pub struct Copier<'m> {
    rule: CopyRule,
    ends: Ends<'m>,
}

/// A [`Copier`]'s allocations.
enum Ends<'m> {
    /// Two allocations: the destination, then the source.
    Apart(Region<&'m mut [u8]>, Region<&'m [u8]>),
    /// Both ends in one allocation.
    Shared(Region<&'m mut [u8]>),
}

impl Copier<'_> {
    /// Copy the `len` bytes at offset `src` of the source allocation to
    /// offset `dst` of the destination. Under [`CopyRule::Kernel`] and
    /// [`CopyRule::Dma`], each end's lookup and space check (source first)
    /// come before the overlap rule, and that before the bounds (source
    /// first); under [`CopyRule::Backdoor`], the source's lookup and bounds
    /// come before the destination's.
    #[inline]
    pub fn copy(&mut self, dst: usize, src: usize, len: usize) -> GpuResult<()> {
        let checked = self.rule != CopyRule::Backdoor;
        match &mut self.ends {
            Ends::Apart(to, from) => {
                if checked {
                    from.bytes.as_ref().map_err(GpuError::clone)?;
                    to.bytes.as_ref().map_err(GpuError::clone)?;
                    if len == 0 {
                        return Ok(());
                    }
                }
                let run = from.read(src, len)?;
                to.run_mut(dst, len)?.copy_from_slice(run);
            }
            Ends::Shared(one) => {
                let bytes = one.bytes.as_mut().map_err(|e| e.clone())?;
                if checked && len == 0 {
                    return Ok(());
                }
                if checked && src.abs_diff(dst) < len {
                    return Err(GpuError::OverlappingBuffers);
                }
                let run = span(one.alloc, bytes.len(), src, len)?;
                span(one.alloc, bytes.len(), dst, len)?;
                bytes.copy_within(run, dst);
            }
        }
        Ok(())
    }

    /// Copy a row of `count` runs of `len` bytes: the `k`-th at offset
    /// `src.0 + k * src.1` of the source to `dst.0 + k * dst.1` of the
    /// destination (each end its first run and its step, which may be
    /// negative). One check covers the row: both ends resolved, and each
    /// end's lowest and highest byte inside its allocation. `false`, with
    /// nothing moved, when the row needs [`Copier::copy`]'s rules run by
    /// run instead: an end that failed its lookup or space check, a row
    /// that does not fit wholly, both ends in one allocation, or runs of
    /// no bytes — so a fault is still the one its run alone reports.
    pub fn copy_row(&mut self, dst: (i64, i64), src: (i64, i64), len: usize, count: usize) -> bool {
        let Ends::Apart(to, from) = &mut self.ends else {
            return false;
        };
        let (Ok(to), Ok(from)) = (to.bytes.as_mut(), from.bytes.as_ref()) else {
            return false;
        };
        let fit = |end, size: usize| inside(end, len, count, size);
        match (len, fit(dst, to.len()), fit(src, from.len())) {
            (1.., Some(d), Some(s)) => move_runs(to, from, d, s, len, count),
            _ => return false,
        }
        true
    }
}

/// A row end's first run and step as offsets, if each of its `count` runs
/// of `len` bytes lies wholly inside an allocation of `size` bytes.
fn inside((at, step): (i64, i64), len: usize, count: usize, size: usize) -> Option<(usize, usize)> {
    let far = step.checked_mul(i64::try_from(count.checked_sub(1)?).ok()?)?;
    let lo = at.checked_add(far.min(0))?;
    let hi = at
        .checked_add(far.max(0))?
        .checked_add(i64::try_from(len).ok()?)?;
    // a negative step as its two's complement: added wrapping, it steps down
    (lo >= 0 && hi <= i64::try_from(size).ok()?).then_some((at as usize, step as usize))
}

/// The runs of a row that fits: a run of up to four words of 1–16 B is
/// that many fixed-size moves, a longer one one `memcpy`.
fn move_runs(
    to: &mut [u8],
    from: &[u8],
    d: (usize, usize),
    s: (usize, usize),
    len: usize,
    count: usize,
) {
    let log_word = len.trailing_zeros().min(4);
    match (1 << log_word, len >> log_word) {
        // longer: one `memcpy` a run
        (_, 5..) => row_of::<1>(to, from, d, s, count, len),
        (16, words) => row_of::<16>(to, from, d, s, count, words),
        (8, words) => row_of::<8>(to, from, d, s, count, words),
        (4, words) => row_of::<4>(to, from, d, s, count, words),
        (2, words) => row_of::<2>(to, from, d, s, count, words),
        (_, words) => row_of::<1>(to, from, d, s, count, words),
    }
}

/// `count` runs of `words` words of `W` bytes, each end stepping by its
/// own stride after every run. Each width is called once, so an optimized
/// build inlines it; a debug build keeps it out of line, where six inlined
/// copies cost every pack kernel 4 KiB of a rank's fiber stack.
#[inline]
fn row_of<const W: usize>(
    to: &mut [u8],
    from: &[u8],
    (mut d, d_step): (usize, usize),
    (mut s, s_step): (usize, usize),
    count: usize,
    words: usize,
) {
    let len = W * words;
    for _ in 0..count {
        if words > 4 {
            to[d..d + len].copy_from_slice(&from[s..s + len]);
        } else {
            for w in 0..words {
                let (dw, sw) = (d + w * W, s + w * W);
                to[dw..dw + W].copy_from_slice(&from[sw..sw + W]);
            }
        }
        d = d.wrapping_add(d_step);
        s = s.wrapping_add(s_step);
    }
}

/// FNV-1a 64 over `bytes`: the one content checksum of the workspace —
/// device regions ([`Memory::checksum_region`]), integrity-enveloped
/// payloads in flight and checkpoint frames at rest all sum with it, so a
/// region, the payload packed from it and a frame holding it agree.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The memory state of one simulated device + its host process.
///
/// Obtained from [`GpuContext::memory`]; kernels receive `&mut Memory` and
/// use the checked accessors here.
pub struct Memory {
    allocs: HashMap<u64, Alloc>,
    next_id: u64,
    device_capacity: usize,
    device_used: usize,
    faults: Option<Arc<SiteInjector>>,
}

impl Memory {
    fn new(device_capacity: usize) -> Self {
        Memory {
            allocs: HashMap::new(),
            next_id: 1,
            device_capacity,
            device_used: 0,
            faults: None,
        }
    }

    fn alloc(&mut self, len: usize, space: MemSpace) -> GpuResult<GpuPtr> {
        if space == MemSpace::Device {
            let available = self.device_capacity - self.device_used;
            let injected = self.fault_injector();
            if injected.is_some_and(|f| f.should_fail(FaultSite::Alloc)) || len > available {
                return Err(GpuError::OutOfMemory {
                    requested: len,
                    available,
                });
            }
            self.device_used += len;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.allocs.insert(
            id,
            Alloc {
                data: vec![0u8; len],
                space,
            },
        );
        Ok(GpuPtr {
            alloc: id,
            offset: 0,
            space,
        })
    }

    fn free(&mut self, ptr: GpuPtr) -> GpuResult<()> {
        match self.allocs.remove(&ptr.alloc) {
            Some(a) => {
                if a.space == MemSpace::Device {
                    self.device_used -= a.data.len();
                }
                Ok(())
            }
            None => Err(GpuError::InvalidPointer { alloc: ptr.alloc }),
        }
    }

    /// `ptr`'s allocation, for any number of reads through the debug
    /// backdoor ([`Memory::peek`] looked up once): no space rule, no
    /// virtual time.
    pub fn region(&self, ptr: GpuPtr) -> Region<&[u8]> {
        let found = CopyRule::Backdoor.end(ptr.alloc, self.allocs.get(&ptr.alloc));
        Region {
            alloc: ptr.alloc,
            bytes: found.map(|a| &a.data[..]),
        }
    }

    /// [`Memory::region`] to write ([`Memory::poke`] looked up once).
    pub fn region_mut(&mut self, ptr: GpuPtr) -> Region<&mut [u8]> {
        let found = CopyRule::Backdoor.end(ptr.alloc, self.allocs.get_mut(&ptr.alloc));
        Region {
            alloc: ptr.alloc,
            bytes: found.map(|a| &mut a.data[..]),
        }
    }

    /// Copies from `src`'s allocation to `dst`'s under `rule`, both looked
    /// up and checked once here; an error is reported at the first run.
    /// The kernels' byte mover: one per launch.
    pub fn copier(&mut self, rule: CopyRule, dst: GpuPtr, src: GpuPtr) -> Copier<'_> {
        if dst.alloc == src.alloc {
            let found = rule.end(dst.alloc, self.allocs.get_mut(&dst.alloc));
            let one = Region {
                alloc: dst.alloc,
                bytes: found.map(|a| &mut a.data[..]),
            };
            return Copier {
                rule,
                ends: Ends::Shared(one),
            };
        }
        let from = rule.end(src.alloc, self.allocs.get(&src.alloc));
        let from = from.map(|a| &a.data[..] as *const [u8]);
        let to = rule.end(dst.alloc, self.allocs.get_mut(&dst.alloc));
        // SAFETY: `src.alloc != dst.alloc`, so the source slice is another
        // `Vec<u8>`'s buffer than the destination's and cannot alias it;
        // the copier borrows `self` mutably for as long as it holds both,
        // so neither buffer can be freed or reallocated meanwhile. (HashMap
        // has no two-key `get_mut` at the workspace's minimum Rust.)
        let from = from.map(|s| unsafe { &*s });
        let ends = Ends::Apart(
            Region {
                alloc: dst.alloc,
                bytes: to.map(|a| &mut a.data[..]),
            },
            Region {
                alloc: src.alloc,
                bytes: from,
            },
        );
        Copier { rule, ends }
    }

    /// The address space an allocation actually lives in (authoritative,
    /// unlike the cached tag on the pointer).
    pub fn space_of(&self, ptr: GpuPtr) -> GpuResult<MemSpace> {
        self.allocs
            .get(&ptr.alloc)
            .map(|a| a.space)
            .ok_or(GpuError::InvalidPointer { alloc: ptr.alloc })
    }

    /// Device-side write (as from a kernel): target must be device-accessible.
    pub fn dev_write(&mut self, ptr: GpuPtr, data: &[u8]) -> GpuResult<()> {
        let space = self.space_of(ptr)?;
        if !space.device_accessible() {
            return Err(GpuError::NotDeviceAccessible { space });
        }
        self.region_mut(ptr).write(ptr.offset, data)
    }

    /// Debug backdoor read ignoring space rules (like a debugger). Costs no
    /// virtual time; intended for test setup and verification only.
    pub fn peek(&self, ptr: GpuPtr, len: usize) -> GpuResult<Vec<u8>> {
        Ok(self.region(ptr).read(ptr.offset, len)?.to_vec())
    }

    /// Debug backdoor write ignoring space rules. Costs no virtual time;
    /// intended for test setup only.
    pub fn poke(&mut self, ptr: GpuPtr, data: &[u8]) -> GpuResult<()> {
        self.region_mut(ptr).write(ptr.offset, data)
    }

    /// [`fnv1a64`] over `len` bytes at `ptr`, ignoring space rules (the
    /// verification analogue of the `peek` backdoor: snapshot framing and
    /// integrity checks need to summarize device bytes without staging
    /// them through a host copy). Costs no virtual time.
    pub fn checksum_region(&self, ptr: GpuPtr, len: usize) -> GpuResult<u64> {
        Ok(fnv1a64(self.region(ptr).read(ptr.offset, len)?))
    }

    /// Install (or, with `None`, remove) a deterministic fault injector.
    /// Every clone of the owning [`GpuContext`] and every stream bound to
    /// it observes the change, since they all share this `Memory`.
    pub fn set_fault_injector(&mut self, inj: Option<Arc<SiteInjector>>) {
        self.faults = inj;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&SiteInjector> {
        self.faults.as_deref()
    }

    /// Number of live allocations across all spaces.
    pub fn live_allocations(&self) -> usize {
        self.allocs.len()
    }
}

/// Handle to one simulated GPU and its host process memory. Cheap to clone;
/// all clones share the same memory state.
#[derive(Clone)]
pub struct GpuContext {
    mem: Arc<Mutex<Memory>>,
    props: Arc<DeviceProps>,
}

impl GpuContext {
    /// Create a context for the given device model: a fresh one, or one
    /// shared with other contexts, which then allocates no copy of it.
    pub fn new(props: impl Into<Arc<DeviceProps>>) -> Self {
        let props = props.into();
        GpuContext {
            mem: Arc::new(Mutex::new(Memory::new(props.global_mem_bytes))),
            props,
        }
    }

    /// The device description this context simulates.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// Lock and access the memory state. Hold the guard only for the
    /// duration of one operation.
    pub fn memory(&self) -> MutexGuard<'_, Memory> {
        self.mem.lock()
    }

    /// `cudaMalloc`: allocate device global memory.
    pub fn malloc(&self, len: usize) -> GpuResult<GpuPtr> {
        self.memory().alloc(len, MemSpace::Device)
    }

    /// `malloc`: allocate pageable host memory.
    pub fn host_alloc(&self, len: usize) -> GpuResult<GpuPtr> {
        self.memory().alloc(len, MemSpace::Host)
    }

    /// `cudaMallocHost`: allocate pinned (page-locked) host memory.
    pub fn pinned_alloc(&self, len: usize) -> GpuResult<GpuPtr> {
        self.memory().alloc(len, MemSpace::Pinned)
    }

    /// `cudaHostAlloc(cudaHostAllocMapped)`: allocate mapped zero-copy host
    /// memory, addressable from kernels.
    pub fn mapped_alloc(&self, len: usize) -> GpuResult<GpuPtr> {
        self.memory().alloc(len, MemSpace::Mapped)
    }

    /// Free any allocation.
    pub fn free(&self, ptr: GpuPtr) -> GpuResult<()> {
        self.memory().free(ptr)
    }

    /// Install (or, with `None`, remove) a deterministic fault injector on
    /// this device. Convenience for [`Memory::set_fault_injector`].
    pub fn set_fault_injector(&self, inj: Option<Arc<SiteInjector>>) {
        self.memory().set_fault_injector(inj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> GpuContext {
        GpuContext::new(DeviceProps::v100())
    }

    /// Every allocation's bytes, by id.
    fn bytes_of(mem: &Memory) -> Vec<(u64, Vec<u8>)> {
        let mut all: Vec<_> = mem
            .allocs
            .iter()
            .map(|(&id, a)| (id, a.data.clone()))
            .collect();
        all.sort();
        all
    }

    /// One run of a fresh [`CopyRule::Kernel`] copier, as device code
    /// makes it.
    fn kernel_copy(mem: &mut Memory, dst: GpuPtr, src: GpuPtr, len: usize) -> GpuResult<()> {
        mem.copier(CopyRule::Kernel, dst, src)
            .copy(dst.offset, src.offset, len)
    }

    /// `kernel_copy(dst, src, len)`, then — from the same bytes — the same run
    /// twice through one copier resolved beforehand, as a launch makes it:
    /// every run must leave the same bytes and fail with the same error,
    /// variant and fields. Returns that result.
    fn both_ways(c: &GpuContext, dst: GpuPtr, src: GpuPtr, len: usize) -> GpuResult<()> {
        let mut mem = c.memory();
        let before = bytes_of(&mem);
        let alone = kernel_copy(&mut mem, dst, src, len);
        let after = bytes_of(&mem);
        for (id, data) in before {
            mem.allocs.get_mut(&id).unwrap().data = data;
        }
        let mut copier = mem.copier(CopyRule::Kernel, dst, src);
        for _ in 0..2 {
            assert_eq!(copier.copy(dst.offset, src.offset, len), alone);
        }
        assert_eq!(bytes_of(&mem), after);
        alone
    }

    #[test]
    fn alloc_and_backdoor_roundtrip() {
        let c = ctx();
        let p = c.malloc(64).unwrap();
        c.memory().poke(p, &[7u8; 64]).unwrap();
        assert_eq!(c.memory().peek(p, 64).unwrap(), vec![7u8; 64]);
        c.free(p).unwrap();
    }

    #[test]
    fn device_cannot_touch_pageable_host_memory() {
        let c = ctx();
        let h = c.host_alloc(16).unwrap();
        let d = c.malloc(16).unwrap();
        let host = Err(GpuError::NotDeviceAccessible {
            space: MemSpace::Host,
        });
        assert_eq!(c.memory().dev_write(h, &[0u8; 4]), host);
        assert_eq!(both_ways(&c, d, h, 4), host);
        assert_eq!(both_ways(&c, h, d, 4), host);
        // the space rule holds for a run of no bytes too
        assert_eq!(both_ways(&c, d, h, 0), host);
    }

    #[test]
    fn device_can_touch_mapped_memory() {
        let c = ctx();
        let m = c.mapped_alloc(16).unwrap();
        let d = c.malloc(16).unwrap();
        c.memory().poke(d, &[3u8; 16]).unwrap();
        kernel_copy(&mut c.memory(), m, d, 16).unwrap();
        assert_eq!(c.memory().peek(m, 16).unwrap(), vec![3u8; 16]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let c = ctx();
        let p = c.malloc(8).unwrap();
        let err = c.memory().peek(p.add(4), 8).unwrap_err();
        let past_p = GpuError::OutOfBounds {
            alloc: p.alloc_id(),
            offset: 4,
            len: 8,
            size: 8,
        };
        assert_eq!(err, past_p);
        // a copy runs past its source first, then its destination
        let q = c.malloc(8).unwrap();
        assert_eq!(both_ways(&c, q, p.add(4), 8), Err(past_p.clone()));
        assert_eq!(both_ways(&c, p.add(4), q, 8), Err(past_p));
        let past = |offset, len| GpuError::OutOfBounds {
            alloc: p.alloc_id(),
            offset,
            len,
            size: 8,
        };
        assert_eq!(both_ways(&c, p.add(4), p.add(12), 8), Err(past(12, 8)));
        assert_eq!(both_ways(&c, p.add(12), p, 4), Err(past(12, 4)));
    }

    #[test]
    fn use_after_free_detected() {
        let c = ctx();
        let p = c.malloc(8).unwrap();
        c.free(p).unwrap();
        let freed = Err(GpuError::InvalidPointer {
            alloc: p.alloc_id(),
        });
        assert_eq!(c.memory().peek(p, 1), freed.clone().map(|()| vec![]));
        let q = c.malloc(8).unwrap();
        assert_eq!(both_ways(&c, q, p, 1), freed);
        assert_eq!(both_ways(&c, p, q, 1), freed);
        assert_eq!(both_ways(&c, p, p.add(4), 1), freed);
        // a device copy of no bytes still checks both ends are live
        assert_eq!(both_ways(&c, q, p, 0), freed);
        assert_eq!(c.free(p), freed);
    }

    #[test]
    fn device_memory_exhaustion() {
        let c = GpuContext::new(DeviceProps {
            global_mem_bytes: 1024,
            ..DeviceProps::v100()
        });
        let _a = c.malloc(1000).unwrap();
        let err = c.malloc(100).unwrap_err();
        assert!(matches!(
            err,
            GpuError::OutOfMemory {
                requested: 100,
                available: 24
            }
        ));
    }

    #[test]
    fn an_injected_alloc_fault_is_scripted_and_reported() {
        use crate::fault::{FaultSite, SiteInjector, SiteSpec};
        let c = ctx();
        let mut specs: [SiteSpec; FaultSite::COUNT] = Default::default();
        specs[FaultSite::Alloc as usize] = SiteSpec::at(&[0]);
        c.set_fault_injector(Some(Arc::new(SiteInjector::new(42, specs))));
        // plenty of capacity, but the script kills the first device alloc
        let err = c.malloc(64).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { requested: 64, .. }));
        assert!(err.is_transient());
        // the very next device alloc succeeds; host allocs are never hit
        assert!(c.malloc(64).is_ok());
        assert!(c.host_alloc(64).is_ok());
        let mem = c.memory();
        let inj = mem.fault_injector().unwrap();
        assert_eq!(inj.injected(FaultSite::Alloc), 1);
        assert_eq!(inj.calls(FaultSite::Alloc), 2);
        drop(mem);
        // uninstalling restores the happy path
        c.set_fault_injector(None);
        assert!(c.memory().fault_injector().is_none());
    }

    #[test]
    fn free_returns_device_capacity() {
        let c = GpuContext::new(DeviceProps {
            global_mem_bytes: 1024,
            ..DeviceProps::v100()
        });
        let a = c.malloc(1024).unwrap();
        c.free(a).unwrap();
        assert!(c.malloc(1024).is_ok());
    }

    #[test]
    fn same_alloc_copy_disjoint_ok_overlap_err() {
        let c = ctx();
        let p = c.malloc(32).unwrap();
        c.memory()
            .poke(p, &(0..32).map(|b| b as u8).collect::<Vec<_>>())
            .unwrap();
        both_ways(&c, p.add(16), p, 16).unwrap();
        assert_eq!(c.memory().peek(p.add(16), 4).unwrap(), vec![0, 1, 2, 3]);
        let overlap = Err(GpuError::OverlappingBuffers);
        assert_eq!(both_ways(&c, p.add(8), p, 16), overlap);
        assert_eq!(both_ways(&c, p, p.add(8), 16), overlap);
        // the overlap rule comes before the bounds
        assert_eq!(both_ways(&c, p.add(24), p.add(20), 16), overlap);
    }

    #[test]
    fn pointer_arithmetic_and_alignment() {
        let c = ctx();
        let p = c.malloc(1024).unwrap();
        assert_eq!(p.alignment(), 256);
        assert_eq!(p.add(4).alignment(), 4);
        assert_eq!(p.add(12).alignment(), 4);
        assert_eq!(p.add(16).alignment(), 16);
        assert_eq!(p.add(3).alignment(), 1);
    }

    #[test]
    fn zero_length_ops_are_fine() {
        let c = ctx();
        let a = c.malloc(0).unwrap();
        let b = c.malloc(0).unwrap();
        both_ways(&c, a, b, 0).unwrap();
        both_ways(&c, a, a, 0).unwrap();
        // a device run of no bytes is not held to its bounds
        both_ways(&c, a.add(5), b.add(9), 0).unwrap();
        assert_eq!(c.memory().peek(a, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn a_backdoor_copier_is_peek_then_poke() {
        let c = ctx();
        let h = c.host_alloc(16).unwrap();
        let d = c.malloc(16).unwrap();
        let data: Vec<u8> = (0..16).collect();
        c.memory().poke(h, &data).unwrap();
        let mut mem = c.memory();
        // no space rule: pageable host memory to device memory
        let mut copier = mem.copier(CopyRule::Backdoor, d, h);
        copier.copy(4, 0, 8).unwrap();
        // a run of no bytes is still held to its bounds, as `peek` is
        let past = |alloc, offset, len| GpuError::OutOfBounds {
            alloc,
            offset,
            len,
            size: 16,
        };
        assert_eq!(copier.copy(0, 17, 0), Err(past(h.alloc_id(), 17, 0)));
        assert_eq!(copier.copy(17, 0, 0), Err(past(d.alloc_id(), 17, 0)));
        drop(copier);
        assert_eq!(mem.peek(d.add(4), 8).unwrap(), data[..8]);
        // overlapping ranges of one allocation move as by memmove
        mem.copier(CopyRule::Backdoor, h, h).copy(2, 0, 8).unwrap();
        let mut want = data.clone();
        want.copy_within(0..8, 2);
        assert_eq!(mem.peek(h, 16).unwrap(), want);
        // the source's bounds come before the destination's lookup
        drop(mem);
        let gone = c.malloc(4).unwrap();
        c.free(gone).unwrap();
        let mut mem = c.memory();
        let mut copier = mem.copier(CopyRule::Backdoor, gone, h);
        assert_eq!(copier.copy(0, 12, 8), Err(past(h.alloc_id(), 12, 8)));
        let freed = GpuError::InvalidPointer {
            alloc: gone.alloc_id(),
        };
        assert_eq!(copier.copy(0, 0, 8), Err(freed));
    }

    #[test]
    fn a_row_moves_whole_or_not_at_all() {
        let c = ctx();
        let (d, h) = (c.malloc(16).unwrap(), c.host_alloc(32).unwrap());
        let data: Vec<u8> = (0..32).collect();
        c.memory().poke(h, &data).unwrap();
        let mut mem = c.memory();
        let mut copier = mem.copier(CopyRule::Backdoor, d, h);
        // three runs of 4 B from 24 down to 8 of the source, packed
        assert!(copier.copy_row((0, 4), (24, -8), 4, 3));
        // past either end, or runs of no bytes: left to `copy`, run by run
        assert!(!copier.copy_row((8, 4), (24, -8), 4, 3));
        assert!(!copier.copy_row((0, 4), (8, -8), 4, 3));
        assert!(!copier.copy_row((0, 0), (0, 8), 0, 3));
        drop(copier);
        assert!(!mem
            .copier(CopyRule::Backdoor, h, h)
            .copy_row((0, 4), (8, 8), 4, 2));
        // a kernel may not touch pageable memory: that end never resolved
        assert!(!mem
            .copier(CopyRule::Kernel, d, h)
            .copy_row((0, 4), (0, 8), 4, 2));
        let want: Vec<u8> = [24..28, 16..20, 8..12].into_iter().flatten().collect();
        assert_eq!(mem.peek(d, 12).unwrap(), want);
        assert_eq!(mem.peek(d.add(12), 4).unwrap(), [0; 4]);
    }

    #[test]
    fn checksum_region_is_content_addressed() {
        let c = ctx();
        let a = c.malloc(32).unwrap();
        let b = c.host_alloc(32).unwrap();
        let data: Vec<u8> = (0..32).collect();
        c.memory().poke(a, &data).unwrap();
        c.memory().poke(b, &data).unwrap();
        let mem = c.memory();
        // same bytes → same sum, regardless of address space
        assert_eq!(
            mem.checksum_region(a, 32).unwrap(),
            mem.checksum_region(b, 32).unwrap()
        );
        // a sub-range sums differently, and a single flipped byte changes it
        assert_ne!(
            mem.checksum_region(a, 32).unwrap(),
            mem.checksum_region(a, 16).unwrap()
        );
        drop(mem);
        let before = c.memory().checksum_region(a, 32).unwrap();
        c.memory().poke(a.add(7), &[0xFF]).unwrap();
        assert_ne!(before, c.memory().checksum_region(a, 32).unwrap());
        // bounds are enforced like every other accessor
        assert!(matches!(
            c.memory().checksum_region(a.add(30), 8),
            Err(GpuError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn space_queries() {
        let c = ctx();
        let d = c.malloc(1).unwrap();
        let h = c.host_alloc(1).unwrap();
        let p = c.pinned_alloc(1).unwrap();
        let m = c.mapped_alloc(1).unwrap();
        let mem = c.memory();
        assert_eq!(mem.space_of(d).unwrap(), MemSpace::Device);
        assert_eq!(mem.space_of(h).unwrap(), MemSpace::Host);
        assert_eq!(mem.space_of(p).unwrap(), MemSpace::Pinned);
        assert_eq!(mem.space_of(m).unwrap(), MemSpace::Mapped);
        assert!(MemSpace::Mapped.device_accessible());
        assert!(!MemSpace::Pinned.device_accessible());
        assert!(!MemSpace::Device.on_host());
    }
}
