//! Point-to-point messaging with system-MPI datatype semantics.
//!
//! `send`/`recv` here behave like the *system MPI* of the emulated vendor:
//! CUDA-aware (device buffers allowed), with non-contiguous GPU datatypes
//! handled by the vendor's baseline copy-per-block machinery
//! ([`crate::vendor`]). TEMPI's accelerated path in `tempi-core` is built
//! *on top of* the raw-bytes entry points ([`RankCtx::send_bytes`] /
//! [`RankCtx::recv_bytes`]), exactly as the real interposer can only invoke
//! the underlying implementation through its public interface.
//!
//! The raw-bytes entry points are five: [`RankCtx::send_bytes`] (one
//! contiguous message), [`RankCtx::send_bytes_part`] (one part of a
//! pipelined transfer), [`RankCtx::send_bytes_runs`] (a train: a typed
//! buffer's runs as one message), [`RankCtx::recv_bytes`] (a message, or a
//! pipelined transfer whole) and [`RankCtx::recv_bytes_runs`] (exactly one
//! message, landed in runs). They and the typed `send` / `recv` move bytes
//! one way: a block source names a buffer's bytes as `(offset, len)`
//! regions in packed order (one run, a train's runs, or a committed type's
//! typemap); one gather reads a payload through it and one scatter lands
//! one.
//!
//! Timing: a send deposits a message stamped with its departure instant;
//! the wire time is charged on the receive side as
//! `completion = max(local now, depart + transfer_time)`. Message order per
//! (source, destination) pair is preserved (MPI's non-overtaking rule).

use std::sync::Arc;

use gpu_sim::{GpuPtr, MemSpace, PackDir, SimTime};
use tempi_trace::sync::RwLock;

use crate::datatype::{typemap, Combiner, Datatype, TypeRegistry};
use crate::error::{MpiError, MpiResult};
use crate::net::Transport;
use crate::pool::class as payload_class;
use crate::runtime::{Members, RankCtx};
use crate::sched::{Examined, ParkOp};
use crate::vendor::{baseline_gpu_xfer, offset_ptr};

/// Most bytes of capacity a payload may have to be kept as a rank's spare
/// ([`RankCtx::spend`]): an exchange's messages, not a bulk transfer's parts.
/// The spare carries only a send of its own capacity class
/// ([`RankCtx::take_payload`]).
const SPARE_BYTES: usize = 4 << 10;

/// Tags below this value are reserved for internal collectives.
pub(crate) const MIN_USER_TAG: i32 = 0;
/// Internal tag used by `alltoallv`.
pub(crate) const TAG_ALLTOALLV: i32 = -100;
/// Control message: the sender observed its own scheduled death. Sent to
/// every world rank exactly once; `depart` carries the *scheduled* exit
/// instant so every observer converges on the same virtual time.
pub(crate) const TAG_DEATH: i32 = -110;
/// Control message: the communicator identified by the message epoch was
/// revoked (ULFM `MPI_Comm_revoke`).
pub(crate) const TAG_REVOKE: i32 = -111;
/// Agreement protocol: a participant ships its locally-known failure set
/// to the current coordinator candidate.
pub(crate) const TAG_AGREE_GATHER: i32 = -112;
/// Agreement protocol: the decided failure set, flooded to every member.
pub(crate) const TAG_AGREE_DECIDE: i32 = -113;

/// Part metadata for multi-part transfers (TEMPI's §8 pipelining extension
/// and its run cut ride on the envelope, like a real rendezvous protocol
/// header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartInfo {
    /// Zero-based index of the message's first part.
    pub index: u32,
    /// Total number of parts in this logical message.
    pub total: u32,
    /// Consecutive equal-length parts the message carries, priced on
    /// delivery as that many messages: 1 for a chunk of the §8 pipeline,
    /// `total` for a train of runs ([`RankCtx::send_bytes_runs`]).
    pub runs: u32,
}

/// Most bytes a payload carries inside its message ([`Payload::Inline`]):
/// an exchange's small messages move without a buffer of their own.
pub const INLINE_PAYLOAD_BYTES: usize = 64;

/// The bytes a message carries: at most [`INLINE_PAYLOAD_BYTES`] in the
/// message itself, more in a buffer off the router's free list.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Bytes carried in the message itself.
    Inline {
        /// How many of `bytes` are the payload.
        len: u8,
        /// The payload, then unused bytes.
        bytes: [u8; INLINE_PAYLOAD_BYTES],
    },
    /// A pooled buffer ([`crate::PAYLOAD_POOL_BYTES`]).
    Pooled(Vec<u8>),
}

impl Payload {
    /// No bytes, in the message.
    pub const EMPTY: Payload = Payload::Inline {
        len: 0,
        bytes: [0; INLINE_PAYLOAD_BYTES],
    };

    /// Append `more`; inline bytes that would pass
    /// [`INLINE_PAYLOAD_BYTES`] move to a buffer of their own first.
    pub fn extend_from_slice(&mut self, more: &[u8]) {
        if let Payload::Inline { len, bytes } = self {
            let (at, end) = (*len as usize, *len as usize + more.len());
            if end <= INLINE_PAYLOAD_BYTES {
                bytes[at..end].copy_from_slice(more);
                *len = end as u8;
                return;
            }
            *self = Payload::Pooled(bytes[..at].to_vec());
        }
        if let Payload::Pooled(buf) = self {
            buf.extend_from_slice(more);
        }
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Payload::Inline { len, bytes } => &bytes[..*len as usize],
            Payload::Pooled(buf) => buf,
        }
    }
}

impl std::ops::DerefMut for Payload {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            Payload::Inline { len, bytes } => &mut bytes[..*len as usize],
            Payload::Pooled(buf) => buf,
        }
    }
}

/// A message in flight: 120 bytes, most of a slot of the router's store.
/// Ranks and epochs are `u32`s, as MPI's ranks are `int`s.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank in the original world — stable across shrinks; drives
    /// the network model's node-locality decisions. Its rank in the
    /// communicator is its place among the members, on which every member
    /// of the message's epoch agrees.
    pub src_world: u32,
    /// Communicator epoch the message was sent under. Receivers only match
    /// traffic from their current epoch; anything older is late traffic
    /// from before a shrink and is dropped, not misdelivered.
    pub epoch: u32,
    /// Message tag.
    pub tag: i32,
    /// The packed payload bytes.
    pub payload: Payload,
    /// Address space of the sender's buffer (drives CUDA-aware routing).
    pub sender_space: MemSpace,
    /// Sender's virtual clock at departure.
    pub depart: SimTime,
    /// Chunk metadata when this is one part of a pipelined transfer.
    pub part: Option<PartInfo>,
    /// FNV-1a 64 of `payload`, stamped by senders in a world with
    /// integrity on (0 otherwise) and verified by its receivers against
    /// the bytes that crossed the (possibly corrupting) wire; without
    /// integrity, corruption is delivered silently.
    pub checksum: u64,
}

impl Message {
    /// Does this message satisfy a receive of `(src, tag)` posted under
    /// `epoch`, `src` named by its world rank? `None` is a wildcard
    /// (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
    /// Only current-epoch traffic matches, and wildcards only see user
    /// traffic (tag >= 0) — except that an explicit internal tag
    /// (collectives) may match wildcard-source.
    pub(crate) fn matches(&self, epoch: u32, src: Option<usize>, tag: Option<i32>) -> bool {
        let user = self.tag >= MIN_USER_TAG;
        let src_ok = match src {
            Some(s) => self.src_world as usize == s,
            None => user || tag.is_some_and(|t| t < MIN_USER_TAG),
        };
        let tag_ok = match tag {
            Some(t) => self.tag == t,
            None => user,
        };
        self.epoch == epoch && src_ok && tag_ok
    }
}

/// Completion information of a receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Actual source rank.
    pub source: usize,
    /// Actual tag.
    pub tag: i32,
    /// Payload size in bytes (`MPI_Get_count` with `MPI_BYTE`).
    pub bytes: usize,
}

/// Result of an `MPI_Probe`: message metadata without consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeInfo {
    /// Sending rank.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Address space of the sender's buffer.
    pub sender_space: MemSpace,
    /// Chunk metadata when the matched message is part of a pipelined
    /// transfer.
    pub part: Option<PartInfo>,
}

/// The packed size of `count` items of `size` bytes each. The count is the
/// caller's: a product that does not fit is an invalid argument, never a
/// wrapped size.
pub fn transfer_bytes(size: usize, count: usize) -> MpiResult<usize> {
    size.checked_mul(count).ok_or_else(|| {
        MpiError::InvalidArg(format!(
            "{count} items of {size} bytes overflow the transfer size"
        ))
    })
}

/// Check that `count` items `extent` bytes apart, each reaching bytes
/// `lo..hi` of its own origin, lie at offsets an `i64` names: the run
/// walkers add `item × extent` to every offset, and a product that wraps
/// addresses the wrong bytes.
pub fn check_item_offsets(count: usize, extent: i64, (lo, hi): (i64, i64)) -> MpiResult<()> {
    let base = i64::try_from(count.saturating_sub(1))
        .ok()
        .and_then(|k| k.checked_mul(extent));
    let far = base.and_then(|b| b.checked_add(lo).and(b.checked_add(hi)));
    far.map(drop).ok_or_else(|| {
        MpiError::InvalidArg(format!(
            "{count} items {extent} B apart pass a 64-bit offset"
        ))
    })
}

/// Everything the system MPI's pack/unpack and send/recv paths need to know
/// about a datatype, taken by one walk of its typemap per call (the TEMPI
/// layer caches its own richer plan instead). The blocks themselves are
/// walked again where they move ([`WireType::for_each_block`]).
pub(crate) struct WireType {
    registry: Arc<RwLock<TypeRegistry>>,
    dt: Datatype,
    /// Contiguous blocks in one item.
    pub blocks: usize,
    /// Bytes of one item's largest block.
    pub max_block: usize,
    /// Offset of one item's first block (0 for a type of no data).
    pub first: i64,
    pub extent: i64,
    pub size: usize,
    pub root_is_vector: bool,
    /// `MPI_Type_get_true_extent`'s bounds of one item's data.
    pub true_bounds: (i64, i64),
}

impl WireType {
    /// The summary of committed `dt`, checked from root to leaves: a
    /// dead handle anywhere in the tree fails here, before any byte moves.
    pub fn new(registry: &Arc<RwLock<TypeRegistry>>, dt: Datatype) -> MpiResult<WireType> {
        let reg = registry.read();
        if !reg.is_committed(dt)? {
            return Err(MpiError::NotCommitted);
        }
        let (info, mut blocks, mut max_block, mut first) = (reg.info(dt)?, 0, 0, None);
        typemap::for_each_block(&reg, dt, |b| {
            blocks += 1;
            max_block = max_block.max(b.len as usize);
            first.get_or_insert(b.off);
            Ok(())
        })?;
        Ok(WireType {
            registry: Arc::clone(registry),
            dt,
            blocks,
            max_block,
            first: first.unwrap_or(0),
            extent: info.attrs.extent(),
            size: info.attrs.size as usize,
            root_is_vector: info.def.combiner() == Combiner::Vector,
            true_bounds: (info.attrs.true_lb, info.attrs.true_ub),
        })
    }

    /// Hand `block` each block of `count` items `extent` apart, in typemap
    /// order: its offset in the typed buffer, its length, and where its
    /// bytes sit in the packed stream. The registry stays read-locked
    /// across the walk, so `block` must never park the fiber.
    pub fn for_each_block(
        &self,
        count: usize,
        mut block: impl FnMut(i64, usize, usize) -> MpiResult<()>,
    ) -> MpiResult<()> {
        let reg = self.registry.read();
        let mut pos = 0;
        for item in 0..count {
            typemap::for_each_block(&reg, self.dt, |b| {
                block(item as i64 * self.extent + b.off, b.len as usize, pos)?;
                pos += b.len as usize;
                Ok(())
            })?;
        }
        Ok(())
    }

    /// The packed size of `count` items, once their offsets are known to fit.
    fn transfer(&self, count: usize) -> MpiResult<usize> {
        check_item_offsets(count, self.extent, self.true_bounds)?;
        transfer_bytes(self.size, count)
    }

    /// Are `count` items one contiguous run (so a plain copy moves them)?
    pub fn fully_contiguous(&self, count: usize) -> bool {
        self.blocks <= 1 && (count <= 1 || self.size as i64 == self.extent)
    }
}

/// A walk over a train's runs: it hands its sink each run's offset, in
/// order.
type RunWalk<'a> = dyn Fn(&mut dyn FnMut(i64)) + 'a;

/// A block source: a buffer's bytes as `(offset, len)` regions, in packed
/// order. Every send reads its payload through one ([`RankCtx::gather`])
/// and every receive lands one through one ([`RankCtx::scatter`]).
#[derive(Clone, Copy)]
enum Blocks<'a> {
    /// One run from the buffer's start: every byte that moves.
    Whole,
    /// Runs of this many bytes, at the offsets the walk hands its sink.
    Runs(usize, &'a RunWalk<'a>),
    /// Items of a committed type, in typemap order.
    Typed(&'a WireType, usize),
}

impl Blocks<'_> {
    /// Hand `sink` each region of the `bytes` that move, up to its first
    /// error.
    fn each(
        self,
        bytes: usize,
        mut sink: impl FnMut(i64, usize) -> MpiResult<()>,
    ) -> MpiResult<()> {
        match self {
            Blocks::Whole => sink(0, bytes),
            Blocks::Runs(run, walk) => {
                let mut done = Ok(());
                walk(&mut |off| {
                    if done.is_ok() {
                        done = sink(off, run);
                    }
                });
                done
            }
            Blocks::Typed(wt, count) => wt.for_each_block(count, |off, len, _| sink(off, len)),
        }
    }
}

impl RankCtx {
    /// Gather the `bytes` of `buf` that `blocks` names into a payload off
    /// the free list (functional effect only; callers charge the timing
    /// appropriate to their path). A failed read spends the payload.
    fn gather(&mut self, buf: GpuPtr, bytes: usize, blocks: Blocks) -> MpiResult<Payload> {
        let mut out = self.take_payload(bytes);
        let mem = self.gpu.memory();
        let from = mem.region(buf);
        let read = blocks.each(bytes, |off, len| {
            out.extend_from_slice(from.read(offset_ptr(buf, off)?.offset, len)?);
            Ok(())
        });
        drop(mem);
        if let Err(e) = read {
            self.spend(out);
            return Err(e);
        }
        Ok(out)
    }

    /// Land `payload` in the regions of `buf` that `blocks` names, in
    /// order, until it runs out (functional effect only).
    fn scatter(&self, buf: GpuPtr, payload: &[u8], blocks: Blocks) -> MpiResult<()> {
        let (mut mem, mut rest) = (self.gpu.memory(), payload);
        let mut to = mem.region_mut(buf);
        blocks.each(payload.len(), |off, len| {
            let (now, later) = rest.split_at(len.min(rest.len()));
            rest = later;
            Ok(to.write(offset_ptr(buf, off)?.offset, now)?)
        })
    }

    // ---- the system MPI's MPI_Pack / MPI_Unpack -------------------------

    /// `MPI_Pack_size`: the packed size of `incount` items of `dt`.
    pub fn pack_size(&mut self, incount: usize, dt: Datatype) -> MpiResult<usize> {
        transfer_bytes(self.type_size(dt)? as usize, incount)
    }

    /// Where `bytes` packed at `position` of a `capacity`-byte buffer end:
    /// the window check of `MPI_Pack` / `MPI_Unpack` of `dt`, the system
    /// MPI's and TEMPI's alike.
    pub fn packed_window(
        &self,
        dt: Datatype,
        position: usize,
        bytes: usize,
        capacity: usize,
    ) -> MpiResult<usize> {
        match position.checked_add(bytes) {
            Some(end) if end <= capacity => Ok(end),
            Some(required) => Err(MpiError::BufferTooSmall {
                required,
                available: capacity,
                envelope: self.registry().read().get_envelope(dt).ok(),
            }),
            None => Err(MpiError::InvalidArg(format!(
                "position {position} + {bytes} bytes overflows a buffer size"
            ))),
        }
    }

    /// `MPI_Pack`: pack `incount` items of `dt` from `inbuf` into
    /// `outbuf[*position..outsize]`, advancing `*position` — the vendor's
    /// baseline handling, what runs when TEMPI is not interposed and what
    /// TEMPI falls through to.
    pub fn pack(
        &mut self,
        inbuf: GpuPtr,
        incount: usize,
        dt: Datatype,
        outbuf: GpuPtr,
        outsize: usize,
        position: &mut usize,
    ) -> MpiResult<()> {
        self.pack_dir(PackDir::Pack, inbuf, incount, dt, outbuf, outsize, position)
    }

    /// `MPI_Unpack`: the mirror of [`RankCtx::pack`] (`inbuf` holds packed
    /// bytes at `*position..insize`; `outbuf` is the typed destination).
    pub fn unpack(
        &mut self,
        inbuf: GpuPtr,
        insize: usize,
        position: &mut usize,
        outbuf: GpuPtr,
        outcount: usize,
        dt: Datatype,
    ) -> MpiResult<()> {
        self.pack_dir(
            PackDir::Unpack,
            outbuf,
            outcount,
            dt,
            inbuf,
            insize,
            position,
        )
    }

    /// [`RankCtx::pack`] and [`RankCtx::unpack`]: `count` items of `dt` at
    /// `typed` against `packed[*position..packed_size]`.
    #[allow(clippy::too_many_arguments)]
    fn pack_dir(
        &mut self,
        dir: PackDir,
        typed: GpuPtr,
        count: usize,
        dt: Datatype,
        packed: GpuPtr,
        packed_size: usize,
        position: &mut usize,
    ) -> MpiResult<()> {
        let wt = WireType::new(&self.registry, dt)?;
        let bytes = wt.transfer(count)?;
        let end = self.packed_window(dt, *position, bytes, packed_size)?;
        self.wire_xfer(dir, &wt, typed, count, packed.add(*position))?;
        *position = end;
        Ok(())
    }

    /// The system MPI's datatype handling, one body for both directions and
    /// for every caller (`MPI_Pack` / `MPI_Unpack`, and the typed
    /// `MPI_Send` / `MPI_Recv` below for device data): `count` items of
    /// `wt` at `typed` against the packed bytes at `packed`. GPU buffers
    /// take the vendor's baseline ([`crate::vendor`]); anything else is
    /// packed on the CPU.
    fn wire_xfer(
        &mut self,
        dir: PackDir,
        wt: &WireType,
        typed: GpuPtr,
        count: usize,
        packed: GpuPtr,
    ) -> MpiResult<()> {
        if typed.space.device_accessible() && packed.space.device_accessible() {
            let on = (&mut self.stream, &mut self.clock);
            return baseline_gpu_xfer(&self.vendor, on, wt, typed, count, packed, dir).map(drop);
        }
        let bytes = wt.size * count;
        let (typed, packed) = ((typed, Blocks::Typed(wt, count)), (packed, Blocks::Whole));
        let ((from, read), (to, land)) = match dir {
            PackDir::Pack => (typed, packed),
            PackDir::Unpack => (packed, typed),
        };
        let payload = self.gather(from, bytes, read)?;
        let landed = self.scatter(to, &payload, land);
        self.spend(payload);
        landed?;
        let t = self.vendor.host_pack_time(bytes, wt.blocks * count);
        self.clock.advance(t);
        Ok(())
    }

    /// Receive-side delivery of a matched message: charge the wire time
    /// (`completion = max(now, depart + transfer)`) on this rank's clock,
    /// then hand the message to the reliability layer
    /// ([`RankCtx::verified`]), which returns the bytes that actually land
    /// in the receive buffer.
    ///
    /// Parts of one pipelined transfer share the sender's link: part `k`
    /// starts serialising only once part `k-1`'s bytes are off the wire
    /// (`start = max(depart, link_free)`), so N parts never complete before
    /// `Σ bytes ÷ bandwidth` and each pays the latency floor on top of its
    /// own start. A message that is not a part is priced as if alone; one
    /// that carries a train of `runs` parts is priced as that many, part `k`
    /// departing `k` send overheads after the first and paying its own
    /// receive overhead.
    pub(crate) fn deliver_payload(
        &mut self,
        msg: Message,
        dst_space: MemSpace,
    ) -> MpiResult<Payload> {
        let bytes = msg.payload.len();
        let transport = Transport::for_spaces(msg.sender_space, dst_space);
        let (from, net) = (msg.src_world as usize, &self.net);
        let runs = msg.part.map_or(1, |p| p.runs.max(1));
        let len = bytes / runs as usize;
        let ser = net.serialization_time(len, transport, from, self.world_rank);
        let latency = net.latency(transport, from, self.world_rank);
        for k in 0..runs {
            let mut start = msg.depart + self.net.send_overhead * u64::from(k);
            if let Some(part) = msg.part {
                if part.index + k > 0 {
                    start = start.max(self.part_link_free);
                }
                self.part_link_free = start + ser;
            }
            self.clock.advance_to(start + latency + ser);
            self.extra_delay();
            self.clock.advance(self.net.recv_overhead);
        }
        self.verified(msg, transport)
    }

    /// Match a message of `(src, tag)` past the receive gate and deliver
    /// it and, when `whole` and it is a part of a pipelined transfer, every
    /// later part of that transfer in order, handing each delivered payload
    /// and its byte offset within the transfer to `land`. Every receive but
    /// the one-message one ([`RankCtx::recv_bytes_runs`]) completes a
    /// part-tagged transfer this way, so a peer without TEMPI (or TEMPI's
    /// own fall-through) gets all the bytes rather than the first chunk. A
    /// transfer larger than `capacity` is consumed whole and reported as
    /// [`MpiError::Truncated`]. `land` returns the buffer it is done with
    /// (empty if it kept the bytes); every spent buffer goes back to the
    /// router's free list, as do the parts consumed unread.
    fn recv_transfer(
        &mut self,
        (src, tag): (Option<usize>, Option<i32>),
        (capacity, whole): (usize, bool),
        dst_space: MemSpace,
        mut land: impl FnMut(&mut RankCtx, usize, Payload) -> MpiResult<Payload>,
    ) -> MpiResult<Status> {
        self.recv_gate(src)?;
        let mut msg = self.match_message(src, tag)?;
        let (source, tag) = (self.comm_members.rank_of(msg.src_world), msg.tag);
        let (mut bytes, mut failed) = (0, None);
        loop {
            let part = msg.part;
            let len = msg.payload.len();
            if failed.is_none() && bytes + len <= capacity {
                let landed = self
                    .deliver_payload(msg, dst_space)
                    .and_then(|payload| land(self, bytes, payload));
                match landed {
                    Ok(spent) => self.spend(spent),
                    Err(e) => failed = Some(e),
                }
            } else {
                // a part consumed unread goes back to the free list too
                self.spend(msg.payload);
            }
            bytes += len;
            if !whole || part.is_none_or(|p| p.index + p.runs >= p.total) {
                break;
            }
            msg = self.match_message(Some(source), Some(tag))?;
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if bytes > capacity {
            return Err(MpiError::Truncated {
                sent: bytes,
                capacity,
                envelope: None,
            });
        }
        Ok(Status { source, tag, bytes })
    }

    /// Bytes of buffer capacity the world's payload free list holds
    /// (never more than [`crate::PAYLOAD_POOL_BYTES`]).
    pub fn pooled_payload_bytes(&self) -> usize {
        self.router.pooled_payload_bytes()
    }

    /// Post a message whose payload only becomes available at `ready_at`
    /// (e.g. produced by an asynchronous GPU kernel): the departure instant
    /// is the later of the CPU posting time and the data-ready time.
    pub(crate) fn post_at(
        &mut self,
        dest: usize,
        tag: i32,
        payload: Payload,
        sender_space: MemSpace,
        ready_at: SimTime,
        part: Option<PartInfo>,
    ) -> MpiResult<()> {
        self.clock.advance(self.net.send_overhead);
        // `dest` is a rank in the *current* communicator; the router is
        // indexed by world rank.
        let dest_world = self.comm_members.get(dest).unwrap_or(dest);
        let checksum = self.stamp(&payload);
        let msg = Message {
            src_world: self.world_rank as u32,
            epoch: self.epoch,
            tag,
            payload,
            sender_space,
            depart: self.clock.now().max(ready_at),
            part,
            checksum,
        };
        // the later parts of a train are posted a send overhead apart
        let later = part.map_or(0, |p| p.runs.saturating_sub(1));
        self.clock
            .advance(self.net.send_overhead * u64::from(later));
        // Stamped at the CPU's now (not the possibly-future departure
        // instant) so lane timestamps stay monotone; the actual departure
        // goes in the args.
        self.tracer.debug_instant(
            self.world_rank as u32,
            tempi_trace::LANE_CPU,
            "mpi",
            "wire.depart",
            self.clock.now().as_ps(),
            || {
                vec![
                    ("dest", dest_world.into()),
                    ("tag", f64::from(tag).into()),
                    ("bytes", msg.payload.len().into()),
                    ("depart_ps", msg.depart.as_ps().into()),
                ]
            },
        );
        // Router pushes never fail — an inbox has no "disconnected" state;
        // traffic to an exited rank just sits in its queue.
        //
        // User payloads to a remote rank go through the bounded path: a
        // full destination inbox parks *this sender* until the receiver
        // drains (backpressure — what keeps a 4,096-rank send storm at
        // O(ranks · HWM) memory). Control traffic (negative tags) and
        // self-sends are exempt: recovery progress is built on them, and a
        // rank's send to itself can never be drained while it is parked.
        if tag >= MIN_USER_TAG && dest_world != self.world_rank {
            self.router
                .push_bounded(self.world_rank, dest_world, msg, self.clock.now());
        } else {
            self.router.push(dest_world, msg);
        }
        Ok(())
    }

    /// The one send body, after the gate: gather `bytes` of `buf` from
    /// `blocks`, charge their host pack ([`RankCtx::host_pack`]) and post
    /// the payload, as `part` of a transfer if it is one, departing no
    /// earlier than `ready_at`.
    fn ship(
        &mut self,
        buf: GpuPtr,
        (bytes, blocks): (usize, Blocks),
        (dest, tag): (usize, i32),
        (ready_at, part): (SimTime, Option<PartInfo>),
    ) -> MpiResult<()> {
        let payload = self.gather(buf, bytes, blocks)?;
        self.host_pack(buf, bytes, blocks);
        self.post_at(dest, tag, payload, buf.space, ready_at, part)
    }

    /// Charge the vendor's CPU pack of the `bytes` of `buf` that `blocks`
    /// names, gathered or scattered: a typed buffer's non-contiguous host
    /// data costs it, anything else moves as it lies.
    fn host_pack(&mut self, buf: GpuPtr, bytes: usize, blocks: Blocks) {
        if let Blocks::Typed(wt, count) = blocks {
            if buf.space != MemSpace::Device && !wt.fully_contiguous(count) {
                let t = self.vendor.host_pack_time(bytes, wt.blocks * count);
                self.clock.advance(t);
            }
        }
    }

    /// Send raw bytes as one chunk of a pipelined transfer: the wire
    /// departure waits for `ready_at` (when the packing kernel producing
    /// this chunk completes on the GPU timeline). A transfer of one part
    /// is a plain message, as [`RankCtx::send_bytes`] sends.
    pub fn send_bytes_part(
        &mut self,
        buf: GpuPtr,
        len: usize,
        dest: usize,
        tag: i32,
        ready_at: SimTime,
        part: PartInfo,
    ) -> MpiResult<()> {
        self.send_gate(dest)?;
        let (whole, part) = ((len, Blocks::Whole), Some(part).filter(|p| p.total > 1));
        self.ship(buf, whole, (dest, tag), (ready_at, part))
    }

    /// An empty payload with room for `len` bytes to send: inline up to
    /// [`INLINE_PAYLOAD_BYTES`]; past that, this rank's spare when it fits
    /// and `len` is of its capacity class, the rule the world's free list
    /// picks by, else one off that list. A spare of a larger class stays
    /// for the sends of its own size.
    fn take_payload(&mut self, len: usize) -> Payload {
        if len <= INLINE_PAYLOAD_BYTES {
            return Payload::EMPTY;
        }
        let cap = self.spare.capacity();
        let buf = match cap >= len && payload_class(cap) == payload_class(len) {
            true => std::mem::take(&mut self.spare),
            false => self.router.take_payload(len),
        };
        Payload::Pooled(buf)
    }

    /// Hand back a payload this rank is done with: an inline one is simply
    /// dropped; a buffer is kept as its spare when that is free and the
    /// buffer small, else goes to the world's free list. Sends and
    /// receives alternate in an exchange, so most payloads go round one
    /// rank without touching the shared list.
    fn spend(&mut self, payload: Payload) {
        let Payload::Pooled(mut buf) = payload else {
            return;
        };
        if self.spare.capacity() > 0 || buf.capacity() > SPARE_BYTES {
            return self.router.recycle_payload(buf);
        }
        buf.clear();
        self.spare = buf;
    }

    /// Send a train: the `n` runs of `run` bytes of the typed buffer `buf`
    /// at the `n` offsets `runs` hands its sink, in that order, as the `n`
    /// parts of one transfer — what sending each run straight from `buf`
    /// costs ([`PartInfo::runs`]), in one pooled payload.
    pub fn send_bytes_runs(
        &mut self,
        buf: GpuPtr,
        (run, n): (usize, usize),
        dest: usize,
        tag: i32,
        runs: impl Fn(&mut dyn FnMut(i64)),
    ) -> MpiResult<()> {
        self.send_gate(dest)?;
        let total = n as u32;
        let part = PartInfo {
            index: 0,
            total,
            runs: total,
        };
        let blocks = (run * n, Blocks::Runs(run, &runs));
        self.ship(buf, blocks, (dest, tag), (SimTime::ZERO, Some(part)))
    }

    /// Blocking match of `(src, tag)`; `None` means wildcard
    /// (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`; wildcards never match internal
    /// collective traffic): the first match among the messages earlier
    /// receives passed over, else the first new arrival that matches. Only
    /// messages from the current communicator epoch match. The awaited
    /// peer's death — or a revocation of the communicator — terminates a
    /// blocked match with an error instead of hanging
    /// ([`RankCtx::await_arrival`]).
    pub(crate) fn match_message(
        &mut self,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<Message> {
        let want = self.wanted(src, tag);
        match self
            .router
            .kept(self.world_rank, |m| Examined::take_if(want(m)))
        {
            Some(m) => Ok(m),
            None => self.await_arrival(ParkOp::Recv { src, tag }, want),
        }
    }

    /// `MPI_Probe`: block until a matching message is available, without
    /// consuming it. The returned info includes the sender's buffer space,
    /// which TEMPI's receive path uses to pick the matching unpack method.
    pub fn probe(&mut self, src: Option<usize>, tag: Option<i32>) -> MpiResult<ProbeInfo> {
        self.check_comm()?;
        let (me, want) = (self.world_rank, self.wanted(src, tag));
        let info = |members: &Members, m: &Message| ProbeInfo {
            source: members.rank_of(m.src_world),
            tag: m.tag,
            bytes: m.payload.len(),
            sender_space: m.sender_space,
            part: m.part,
        };
        let mut found = None;
        self.router.kept(me, |m| {
            found = found.or_else(|| want(m).then(|| info(&self.comm_members, m)));
            Examined::Keep
        });
        if let Some(found) = found {
            return Ok(found);
        }
        // examined, and left for the receive that follows
        let m = self.await_arrival(ParkOp::Probe { src, tag }, want)?;
        let found = info(&self.comm_members, &m);
        self.router.keep(me, m);
        Ok(found)
    }

    /// What a receive of `(src, tag)` on this rank takes
    /// ([`Message::matches`]); a `src` outside the communicator names no
    /// world rank, and matches nothing.
    fn wanted(&self, src: Option<usize>, tag: Option<i32>) -> impl Fn(&Message) -> bool {
        let epoch = self.epoch;
        let from = src.map(|s| self.comm_members.get(s).unwrap_or(usize::MAX));
        move |m| m.matches(epoch, from, tag)
    }

    // ---- raw-bytes entry points (what an interposer can target) --------

    /// Send `len` raw bytes from `buf` (contiguous, like `MPI_Send` with
    /// `MPI_BYTE`). CUDA-aware: `buf` may be device memory.
    pub fn send_bytes(&mut self, buf: GpuPtr, len: usize, dest: usize, tag: i32) -> MpiResult<()> {
        self.send_gate(dest)?;
        let whole = (len, Blocks::Whole);
        self.ship(buf, whole, (dest, tag), (SimTime::ZERO, None))
    }

    /// Receive raw bytes into `buf` (capacity `maxlen`). Returns the
    /// completion [`Status`]. A pipelined transfer is reassembled part by
    /// part, in order, into consecutive bytes of `buf`.
    pub fn recv_bytes(
        &mut self,
        buf: GpuPtr,
        maxlen: usize,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<Status> {
        let whole = (maxlen, true);
        self.recv_transfer((src, tag), whole, buf.space, |ctx, off, payload| {
            ctx.scatter(buf.add(off), &payload, Blocks::Whole)?;
            Ok(payload)
        })
    }

    /// Receive exactly one message, even when it is one part of a pipelined
    /// transfer, into at most `maxlen` bytes of `buf`: its k-th `run` bytes
    /// land at the k-th offset `runs` hands its sink. The mirror of
    /// [`RankCtx::send_bytes_runs`], and, as one run at offset 0, of
    /// [`RankCtx::send_bytes_part`], for a receiver that overlaps its own
    /// work with the parts still on the wire.
    pub fn recv_bytes_runs(
        &mut self,
        buf: GpuPtr,
        (run, maxlen): (usize, usize),
        src: Option<usize>,
        tag: Option<i32>,
        runs: impl Fn(&mut dyn FnMut(i64)),
    ) -> MpiResult<Status> {
        let one = (maxlen, false);
        self.recv_transfer((src, tag), one, buf.space, |ctx, _, payload| {
            ctx.scatter(buf, &payload, Blocks::Runs(run, &runs))?;
            Ok(payload)
        })
    }

    // ---- datatype-aware system-MPI send/recv ----------------------------

    /// `MPI_Send`: send `count` items of `dt` from `buf`, using the
    /// vendor's baseline datatype handling when `buf` is non-contiguous GPU
    /// memory.
    pub fn send(
        &mut self,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        self.send_gate(dest)?;
        let wt = WireType::new(&self.registry, dt)?;
        let bytes = wt.transfer(count)?;
        let fully_contiguous = wt.fully_contiguous(count);

        if bytes == 0 {
            return self.post_at(dest, tag, Payload::EMPTY, buf.space, SimTime::ZERO, None);
        }

        if buf.space == MemSpace::Device && !fully_contiguous {
            // Vendor baseline: pack on the GPU block-by-block into a
            // temporary device buffer, then CUDA-aware transfer. The
            // buffer is freed, and a payload taken is spent, on every exit.
            let tmp = self.gpu.malloc(bytes)?;
            let packed = (self.wire_xfer(PackDir::Pack, &wt, buf, count, tmp))
                .and_then(|()| self.gather(tmp, bytes, Blocks::Whole));
            let freed = self.gpu.free(tmp).map_err(MpiError::from);
            let payload = packed?;
            if let Err(e) = freed {
                self.spend(payload);
                return Err(e);
            }
            return self.post_at(dest, tag, payload, buf.space, SimTime::ZERO, None);
        }

        // contiguous device data, or host data packed on the CPU (out of
        // the frame the vendor's device pack runs beneath, on a rank's
        // fiber stack)
        let blocks = (bytes, Blocks::Typed(&wt, count));
        self.ship(buf, blocks, (dest, tag), (SimTime::ZERO, None))
    }

    /// `MPI_Recv`: receive `count` items of `dt` into `buf`.
    pub fn recv(
        &mut self,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<Status> {
        self.check_comm()?;
        let wt = WireType::new(&self.registry, dt)?;
        let capacity = wt.transfer(count)?;
        let (st, payload) = self.recv_payload((src, tag), capacity, buf.space, dt)?;
        let bytes = st.bytes;

        let items = bytes.checked_div(wt.size).unwrap_or(0);
        let fully_contiguous = wt.fully_contiguous(items);

        if bytes == 0 {
            return Ok(st);
        }

        if buf.space == MemSpace::Device && !fully_contiguous {
            // Vendor baseline: stage packed bytes in a temporary device
            // buffer (delivery covered by the transfer), then unpack
            // block-by-block. The payload is spent, and the buffer freed,
            // on every exit.
            let tmp = match self.gpu.malloc(bytes) {
                Ok(tmp) => tmp,
                Err(e) => {
                    self.spend(payload);
                    return Err(e.into());
                }
            };
            let poked = self.scatter(tmp, &payload, Blocks::Whole);
            self.spend(payload);
            let unpacked =
                poked.and_then(|()| self.wire_xfer(PackDir::Unpack, &wt, buf, items, tmp));
            let freed = self.gpu.free(tmp).map_err(MpiError::from);
            unpacked.and(freed)?;
        } else {
            let blocks = Blocks::Typed(&wt, items);
            let landed = self.scatter(buf, &payload, blocks);
            self.spend(payload);
            landed?;
            self.host_pack(buf, bytes, blocks);
        }
        Ok(st)
    }

    /// [`RankCtx::recv`]'s delivery of a message of `(src, tag)`, received
    /// into `space` as `capacity` bytes of `dt`: its status and packed
    /// payload. One message is consumed as it is; the parts of a pipelined transfer are
    /// gathered, in order, into one payload first. (Out of the frame the
    /// landing's unpack runs beneath, on a rank's fiber stack.)
    fn recv_payload(
        &mut self,
        from: (Option<usize>, Option<i32>),
        capacity: usize,
        space: MemSpace,
        dt: Datatype,
    ) -> MpiResult<(Status, Payload)> {
        let mut payload = Payload::EMPTY;
        let st = self
            .recv_transfer(from, (capacity, true), space, |_, off, part| {
                if off == 0 {
                    payload = part;
                    return Ok(Payload::EMPTY);
                }
                payload.extend_from_slice(&part);
                Ok(part)
            })
            .map_err(|e| e.with_envelope(|| self.registry().read().get_envelope(dt).ok()))?;
        Ok((st, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::consts::*;
    use crate::runtime::{World, WorldConfig};

    #[test]
    fn bytes_roundtrip_host() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(64)?;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &[5u8; 64])?;
                ctx.send_bytes(buf, 64, 1, 7)?;
                Ok(0)
            } else {
                let st = ctx.recv_bytes(buf, 64, Some(0), Some(7))?;
                assert_eq!(
                    st,
                    Status {
                        source: 0,
                        tag: 7,
                        bytes: 64
                    }
                );
                assert_eq!(ctx.gpu.memory().peek(buf, 64)?, vec![5u8; 64]);
                Ok(ctx.clock.now().as_ps())
            }
        })
        .unwrap();
        // receiver clock includes the 2.2 µs CPU floor (ranks 0 and 1 share
        // a node on Summit: intra-node 0.8µs floor)
        let t = SimTime::from_ps(results[1]);
        assert!(t.as_us_f64() >= 0.8, "{t}");
    }

    #[test]
    fn gpu_transfer_uses_gpu_floor() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1; // force inter-node
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.malloc(16)?;
            if ctx.rank == 0 {
                ctx.send_bytes(buf, 16, 1, 1)?;
                Ok(0)
            } else {
                ctx.recv_bytes(buf, 16, Some(0), Some(1))?;
                Ok(ctx.clock.now().as_ps())
            }
        })
        .unwrap();
        let t = SimTime::from_ps(results[1]).as_us_f64();
        assert!(t >= 11.0, "GPU path floor: {t} µs");
    }

    #[test]
    fn truncation_detected() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(64)?;
            if ctx.rank == 0 {
                ctx.send_bytes(buf, 64, 1, 0)?;
                Ok(true)
            } else {
                let small = ctx.gpu.host_alloc(16)?;
                Ok(matches!(
                    ctx.recv_bytes(small, 16, Some(0), Some(0)),
                    Err(MpiError::Truncated {
                        sent: 64,
                        capacity: 16,
                        ..
                    })
                ))
            }
        })
        .unwrap();
        assert!(results[1]);
    }

    #[test]
    fn non_overtaking_order_per_pair() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(1)?;
            if ctx.rank == 0 {
                for i in 0..4u8 {
                    ctx.gpu.memory().poke(buf, &[i])?;
                    ctx.send_bytes(buf, 1, 1, 9)?;
                }
                Ok(vec![])
            } else {
                let mut got = vec![];
                for _ in 0..4 {
                    ctx.recv_bytes(buf, 1, Some(0), Some(9))?;
                    got.push(ctx.gpu.memory().peek(buf, 1)?[0]);
                }
                Ok(got)
            }
        })
        .unwrap();
        assert_eq!(results[1], vec![0, 1, 2, 3]);
    }

    #[test]
    fn wildcard_recv_matches_any_user_tag() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(4)?;
            if ctx.rank == 0 {
                ctx.send_bytes(buf, 4, 1, 42)?;
                Ok((0, 0))
            } else {
                let st = ctx.recv_bytes(buf, 4, None, None)?;
                Ok((st.source, st.tag))
            }
        })
        .unwrap();
        assert_eq!(results[1], (0, 42));
    }

    #[test]
    fn derived_type_send_recv_gpu() {
        // send a vector from GPU memory; receiver unpacks into a different
        // (subarray) layout of the same size — exercising baseline pack and
        // unpack on both sides
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let vec_t = ctx.type_vector(4, 2, 4, MPI_BYTE)?; // 8 bytes from 14-byte span
            ctx.type_commit_native(vec_t)?;
            let buf = ctx.gpu.malloc(16)?;
            if ctx.rank == 0 {
                let data: Vec<u8> = (0..16).collect();
                ctx.gpu.memory().poke(buf, &data)?;
                ctx.send(buf, 1, vec_t, 1, 3)?;
                Ok(vec![])
            } else {
                let st = ctx.recv(buf, 1, vec_t, Some(0), Some(3))?;
                assert_eq!(st.bytes, 8);
                let got = ctx.gpu.memory().peek(buf, 16)?;
                // vector blocks at offsets 0,4,8,12 (len 2) carry 0,1,4,5,8,9,12,13
                assert_eq!(&got[0..2], &[0, 1]);
                assert_eq!(&got[4..6], &[4, 5]);
                assert_eq!(&got[12..14], &[12, 13]);
                Ok(got)
            }
        })
        .unwrap();
        assert_eq!(results[1].len(), 16);
    }

    /// Rank 0 posts `n` parts of `len` bytes, all ready at once.
    fn post_parts(ctx: &mut RankCtx, buf: GpuPtr, len: usize, n: u32, tag: i32) -> MpiResult<()> {
        for index in 0..n {
            let part = PartInfo {
                index,
                total: n,
                runs: 1,
            };
            ctx.send_bytes_part(buf, len, 1, tag, SimTime::ZERO, part)?;
        }
        Ok(())
    }

    #[test]
    fn parts_of_one_transfer_serialise_on_the_link() {
        // eight 128 KiB parts posted back to back: each crosses the link
        // after the one before it, so the last cannot land before the sum
        // of their bandwidth terms, while a lone message of a part's size
        // is priced exactly as a message always was
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let (len, n) = (128usize << 10, 8u32);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.pinned_alloc(len * n as usize)?;
            ctx.barrier();
            ctx.reset_clock();
            if ctx.rank == 0 {
                post_parts(ctx, buf, len, n, 0)?;
                ctx.send_bytes(buf, len, 1, 1)?;
                return Ok(vec![]);
            }
            let mut landed = Vec::new();
            for _ in 0..n {
                ctx.recv_bytes_runs(buf, (len, len), Some(0), Some(0), |at| at(0))?;
                landed.push(ctx.clock.now());
            }
            let before = ctx.clock.now();
            ctx.recv_bytes(buf, len, Some(0), Some(1))?;
            landed.push(ctx.clock.now() - before);
            Ok(landed)
        })
        .unwrap();
        let net = &cfg.net;
        let ser = net.serialization_time(len, Transport::Cpu, 0, 1);
        let landed = &results[1];
        assert!(landed[n as usize - 1] >= ser * n as u64, "{landed:?}");
        for pair in landed[..n as usize].windows(2) {
            assert!(pair[1] - pair[0] >= ser, "{landed:?}");
        }
        // the lone message had long arrived: only the receive overhead
        assert_eq!(landed[n as usize], net.recv_overhead);
    }

    #[test]
    fn a_train_lands_when_its_parts_would_on_both_clocks() {
        // n runs of 48 B, every other 48 B of a device buffer, sent as one
        // train and as n parts one by one: the sender's clock after posting
        // and the receiver's after landing agree to the picosecond, between
        // two nodes, within one, and from a rank to itself
        let run = 48;
        for n in [1usize, 2, 16, 64, 1024] {
            for (ranks, ranks_per_node) in [(2, 1), (2, 2), (1, 1)] {
                let mut cfg = WorldConfig::summit(ranks);
                cfg.net.ranks_per_node = ranks_per_node;
                let clocks = |train: bool| {
                    World::run(&cfg, |ctx| {
                        let (from, to) =
                            (ctx.gpu.malloc(2 * run * n)?, ctx.gpu.malloc(2 * run * n)?);
                        let pattern: Vec<u8> = (0..2 * run * n).map(|i| i as u8 | 1).collect();
                        ctx.gpu.memory().poke(from, &pattern)?;
                        let (dest, total) = (ranks - 1, n as u32);
                        let offsets = |sink: &mut dyn FnMut(i64)| {
                            (0..n).for_each(|k| sink((2 * run * k) as i64))
                        };
                        ctx.barrier();
                        ctx.reset_clock();
                        let mut sent = SimTime::ZERO;
                        if ctx.rank == 0 {
                            if train {
                                ctx.send_bytes_runs(from, (run, n), dest, 0, offsets)?;
                            }
                            for index in (0..total).filter(|_| !train) {
                                let part = PartInfo {
                                    index,
                                    total,
                                    runs: 1,
                                };
                                let at = from.add(2 * run * index as usize);
                                ctx.send_bytes_part(at, run, dest, 0, SimTime::ZERO, part)?;
                            }
                            sent = ctx.clock.now();
                        }
                        if ctx.rank == dest {
                            if train {
                                ctx.recv_bytes_runs(to, (run, run * n), Some(0), Some(0), offsets)?;
                            }
                            for k in (0..n).filter(|_| !train) {
                                let to = to.add(2 * run * k);
                                ctx.recv_bytes_runs(to, (run, run), Some(0), Some(0), |at| at(0))?;
                            }
                            let got = ctx.gpu.memory().peek(to, 2 * run * n)?;
                            let landed = (0..n).all(|k| {
                                got[2 * run * k..][..run] == pattern[2 * run * k..][..run]
                            });
                            assert!(landed, "{n} runs: a run landed out of place");
                        }
                        Ok((sent, ctx.clock.now()))
                    })
                    .unwrap()
                };
                let (train, parts) = (clocks(true), clocks(false));
                assert_eq!(
                    train, parts,
                    "{n} runs, {ranks} ranks, {ranks_per_node} per node"
                );
            }
        }
    }

    #[test]
    fn a_typed_recv_gathers_small_parts_past_the_inline_bytes() {
        // three 40-byte parts: the first travels inline, and the typed
        // receive that gathers all three into one payload outgrows it
        let (len, n) = (40usize, 3u32);
        let results = World::run(&WorldConfig::summit(2), |ctx| {
            let buf = ctx.gpu.host_alloc(len * n as usize)?;
            if ctx.rank == 0 {
                let data: Vec<u8> = (0..len * n as usize).map(|i| i as u8).collect();
                ctx.gpu.memory().poke(buf, &data)?;
                for index in 0..n {
                    let part = PartInfo {
                        index,
                        total: n,
                        runs: 1,
                    };
                    let at = buf.add(index as usize * len);
                    ctx.send_bytes_part(at, len, 1, 0, SimTime::ZERO, part)?;
                }
                return Ok(vec![]);
            }
            let st = ctx.recv(buf, len * n as usize, MPI_BYTE, Some(0), Some(0))?;
            assert_eq!(st.bytes, len * n as usize);
            Ok(ctx.gpu.memory().peek(buf, len * n as usize)?)
        })
        .unwrap();
        let want: Vec<u8> = (0..len * n as usize).map(|i| i as u8).collect();
        assert_eq!(results[1], want);
    }

    #[test]
    fn recv_bytes_reassembles_parts_and_consumes_an_oversized_transfer_whole() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let (len, n) = (1000usize, 4u32);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(len * n as usize)?;
            if ctx.rank == 0 {
                for tag in [0, 1] {
                    for index in 0..n {
                        let at = buf.add(index as usize * len);
                        ctx.gpu.memory().poke(at, &vec![index as u8 + 1; len])?;
                        let part = PartInfo {
                            index,
                            total: n,
                            runs: 1,
                        };
                        ctx.send_bytes_part(at, len, 1, tag, SimTime::ZERO, part)?;
                    }
                }
                ctx.gpu.memory().poke(buf, &[9u8; 8])?;
                ctx.send_bytes(buf, 8, 1, 1)?;
                return Ok(true);
            }
            // all four parts land, in order, in one receive
            let st = ctx.recv_bytes(buf, len * n as usize, Some(0), Some(0))?;
            let got = ctx.gpu.memory().peek(buf, len * n as usize)?;
            let in_order = (0..n as usize).all(|k| got[k * len..][..len] == vec![k as u8 + 1; len]);
            // too small a buffer: an error, and no part is left behind to
            // be mistaken for the next message
            let small = ctx.recv_bytes(buf, 2 * len, Some(0), Some(1));
            let truncated = matches!(
                small,
                Err(MpiError::Truncated { sent, capacity, .. })
                    if sent == len * n as usize && capacity == 2 * len
            );
            let next = ctx.recv_bytes(buf, 8, Some(0), Some(1))?;
            Ok(st.bytes == len * n as usize
                && in_order
                && truncated
                && next.bytes == 8
                && ctx.pooled_payload_bytes() <= crate::PAYLOAD_POOL_BYTES)
        })
        .unwrap();
        assert!(results[1]);
    }

    #[test]
    fn a_ping_pong_of_mixed_sizes_recycles_every_payload() {
        // each round both ranks send and receive every size, large and
        // small: after the first, no payload is allocated or dropped, so
        // the world's free list holds the same bytes at every round's end
        // (read by rank 0 after its last receive, rank 1 then parked)
        let sizes = [64usize, 8 << 10, 100, 1 << 20, 8];
        let results = World::run(&WorldConfig::summit(2), |ctx| {
            let buf = ctx.gpu.host_alloc(1 << 20)?;
            let peer = 1 - ctx.rank;
            let mut pooled = Vec::new();
            for _ in 0..4 {
                for &len in &sizes {
                    if ctx.rank == 1 {
                        ctx.recv_bytes(buf, len, Some(peer), Some(0))?;
                    }
                    ctx.send_bytes(buf, len, peer, 0)?;
                    if ctx.rank == 0 {
                        ctx.recv_bytes(buf, len, Some(peer), Some(0))?;
                    }
                }
                pooled.push(ctx.pooled_payload_bytes());
            }
            Ok(pooled)
        })
        .unwrap();
        let rounds = &results[0];
        assert!(rounds[0] > 0, "{rounds:?}");
        assert!(rounds.iter().all(|&b| b == rounds[0]), "{rounds:?}");
    }

    #[test]
    fn uncommitted_type_rejected() {
        let cfg = WorldConfig::summit(1);
        let mut ctx = crate::runtime::RankCtx::standalone(&cfg);
        let t = ctx.type_vector(2, 1, 2, MPI_BYTE).unwrap();
        let buf = ctx.gpu.host_alloc(16).unwrap();
        assert_eq!(ctx.send(buf, 1, t, 0, 0), Err(MpiError::NotCommitted));
        // refused before matching: nothing is queued, so no deadlock either
        assert_eq!(ctx.recv(buf, 1, t, None, None), Err(MpiError::NotCommitted));
    }

    #[test]
    fn self_send_recv_works() {
        let cfg = WorldConfig::summit(1);
        let mut ctx = crate::runtime::RankCtx::standalone(&cfg);
        let a = ctx.gpu.host_alloc(8).unwrap();
        let b = ctx.gpu.host_alloc(8).unwrap();
        ctx.gpu.memory().poke(a, &[3u8; 8]).unwrap();
        ctx.send_bytes(a, 8, 0, 0).unwrap();
        let st = ctx.recv_bytes(b, 8, Some(0), Some(0)).unwrap();
        assert_eq!(st.bytes, 8);
        assert_eq!(ctx.gpu.memory().peek(b, 8).unwrap(), vec![3u8; 8]);
    }

    #[test]
    fn ping_pong_half_time_matches_model() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let bytes = 1 << 20;
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(bytes)?;
            let peer = 1 - ctx.rank;
            ctx.barrier();
            ctx.reset_clock();
            if ctx.rank == 0 {
                ctx.send_bytes(buf, bytes, peer, 0)?;
                ctx.recv_bytes(buf, bytes, Some(peer), Some(0))?;
            } else {
                ctx.recv_bytes(buf, bytes, Some(peer), Some(0))?;
                ctx.send_bytes(buf, bytes, peer, 0)?;
            }
            Ok(ctx.clock.now().as_ps())
        })
        .unwrap();
        let total = SimTime::from_ps(results[0]).as_us_f64();
        // each direction: 2.2 µs floor + 1 MiB / 12.5 B/ns ≈ 84 µs → ~172 µs
        assert!(total > 160.0 && total < 200.0, "round trip {total} µs");
    }
}
