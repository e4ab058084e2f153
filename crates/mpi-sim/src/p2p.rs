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
//! Timing: a send deposits a message stamped with its departure instant;
//! the wire time is charged on the receive side as
//! `completion = max(local now, depart + transfer_time)`. Message order per
//! (source, destination) pair is preserved (MPI's non-overtaking rule).

use std::sync::Arc;

use gpu_sim::{GpuPtr, MemSpace, Memory, PackDir, SimTime};
use tempi_trace::sync::RwLock;

use crate::datatype::{typemap, Combiner, Datatype, TypeRegistry};
use crate::error::{MpiError, MpiResult};
use crate::net::Transport;
use crate::runtime::RankCtx;
use crate::sched::{payload_class, Examined, ParkOp};
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

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank (in the sender's communicator at send time).
    pub src: usize,
    /// Sending rank in the original world — stable across shrinks; drives
    /// the network model's node-locality decisions.
    pub src_world: usize,
    /// Communicator epoch the message was sent under. Receivers only match
    /// traffic from their current epoch; anything older is late traffic
    /// from before a shrink and is dropped, not misdelivered.
    pub epoch: u64,
    /// Message tag.
    pub tag: i32,
    /// The packed payload bytes.
    pub payload: Vec<u8>,
    /// Address space of the sender's buffer (drives CUDA-aware routing).
    pub sender_space: MemSpace,
    /// Sender's virtual clock at departure.
    pub depart: SimTime,
    /// Chunk metadata when this is one part of a pipelined transfer.
    pub part: Option<PartInfo>,
    /// FNV-1a 64 of `payload`, stamped by integrity-enabled senders.
    /// Receivers verify it against the bytes that crossed the (possibly
    /// corrupting) wire; `None` means the envelope carries no integrity
    /// information and corruption is delivered silently.
    pub checksum: Option<u64>,
}

impl Message {
    /// Does this message satisfy a receive of `(src, tag)` posted under
    /// `epoch`? `None` is a wildcard (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
    /// Only current-epoch traffic matches, and wildcards only see user
    /// traffic (tag >= 0) — except that an explicit internal tag
    /// (collectives) may match wildcard-source.
    pub(crate) fn matches(&self, epoch: u64, src: Option<usize>, tag: Option<i32>) -> bool {
        let user = self.tag >= MIN_USER_TAG;
        let src_ok = match src {
            Some(s) => self.src == s,
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

impl RankCtx {
    /// Gather the bytes a datatype covers into a payload off the free list
    /// (functional effect only; callers charge the timing appropriate to
    /// their path).
    pub(crate) fn gather_payload(
        &mut self,
        buf: GpuPtr,
        count: usize,
        wt: &WireType,
    ) -> MpiResult<Vec<u8>> {
        let mut out = self.take_payload(wt.size * count);
        let mem = self.gpu.memory();
        let from = mem.region(buf);
        wt.for_each_block(count, |off, len, _| {
            out.extend_from_slice(from.read(offset_ptr(buf, off)?.offset, len)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Scatter payload bytes into a datatype layout (functional effect
    /// only).
    pub(crate) fn scatter_payload(
        &self,
        buf: GpuPtr,
        count: usize,
        wt: &WireType,
        payload: &[u8],
    ) -> MpiResult<()> {
        let mut mem = self.gpu.memory();
        let mut to = mem.region_mut(buf);
        wt.for_each_block(count, |off, len, pos| {
            Ok(to.write(offset_ptr(buf, off)?.offset, &payload[pos..pos + len])?)
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
        match dir {
            PackDir::Pack => {
                let payload = self.gather_payload(typed, count, wt)?;
                let put = self.gpu.memory().poke(packed, &payload);
                self.spend(payload);
                put?;
            }
            PackDir::Unpack => {
                let mut payload = self.take_payload(bytes);
                self.gpu.memory().peek_into(packed, bytes, &mut payload)?;
                let landed = self.scatter_payload(typed, count, wt, &payload);
                self.spend(payload);
                landed?;
            }
        }
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
    ) -> MpiResult<Vec<u8>> {
        let bytes = msg.payload.len();
        let transport = Transport::for_spaces(msg.sender_space, dst_space);
        let (from, net) = (msg.src_world, &self.net);
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

    /// Deliver `first` and, when it is a part of a pipelined transfer,
    /// every later part of that transfer in order, handing each delivered
    /// payload and its byte offset within the transfer to `land`. Any
    /// matching receive completes a part-tagged transfer this way, so a
    /// peer without TEMPI (or TEMPI's own fall-through) gets all the bytes
    /// rather than the first chunk. A transfer larger than `capacity` is
    /// consumed whole and reported as [`MpiError::Truncated`]. `land`
    /// returns the buffer it is done with (empty if it kept the bytes);
    /// every spent buffer goes back to the router's free list, as do the
    /// parts consumed unread.
    pub(crate) fn deliver_transfer(
        &mut self,
        first: Message,
        capacity: usize,
        dst_space: MemSpace,
        mut land: impl FnMut(&mut RankCtx, usize, Vec<u8>) -> MpiResult<Vec<u8>>,
    ) -> MpiResult<Status> {
        let (src, tag) = (first.src, first.tag);
        let mut received = 0usize;
        let mut failed = None;
        let mut msg = first;
        loop {
            let part = msg.part;
            let len = msg.payload.len();
            if failed.is_none() && received + len <= capacity {
                let landed = self
                    .deliver_payload(msg, dst_space)
                    .and_then(|payload| land(self, received, payload));
                match landed {
                    Ok(spent) => self.spend(spent),
                    Err(e) => failed = Some(e),
                }
            } else {
                // a part consumed unread goes back to the free list too
                self.spend(msg.payload);
            }
            received += len;
            if part.is_none_or(|p| p.index + p.runs >= p.total) {
                break;
            }
            msg = self.match_message(Some(src), Some(tag))?;
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if received > capacity {
            return Err(MpiError::Truncated {
                sent: received,
                capacity,
                envelope: None,
            });
        }
        Ok(Status {
            source: src,
            tag,
            bytes: received,
        })
    }

    /// Bytes of buffer capacity the world's payload free list holds
    /// (never more than [`crate::PAYLOAD_POOL_BYTES`]).
    pub fn pooled_payload_bytes(&self) -> usize {
        self.router.pooled_payload_bytes()
    }

    fn post(
        &mut self,
        dest: usize,
        tag: i32,
        payload: Vec<u8>,
        sender_space: MemSpace,
    ) -> MpiResult<()> {
        self.post_at(dest, tag, payload, sender_space, SimTime::ZERO, None)
    }

    /// Post a message whose payload only becomes available at `ready_at`
    /// (e.g. produced by an asynchronous GPU kernel): the departure instant
    /// is the later of the CPU posting time and the data-ready time.
    pub(crate) fn post_at(
        &mut self,
        dest: usize,
        tag: i32,
        payload: Vec<u8>,
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
            src: self.rank,
            src_world: self.world_rank,
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

    /// Send raw bytes as one chunk of a pipelined transfer: the wire
    /// departure waits for `ready_at` (when the packing kernel producing
    /// this chunk completes on the GPU timeline).
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
        let mut payload = self.take_payload(len);
        self.gpu.memory().peek_into(buf, len, &mut payload)?;
        self.post_at(dest, tag, payload, buf.space, ready_at, Some(part))
    }

    /// An empty buffer with room for `len` bytes to send: this rank's
    /// spare when it fits and `len` is of its capacity class, the rule the
    /// world's free list picks by, else one off that list. A spare of a
    /// larger class stays for the sends of its own size.
    fn take_payload(&mut self, len: usize) -> Vec<u8> {
        let cap = self.spare.capacity();
        match len > 0 && cap >= len && payload_class(cap) == payload_class(len) {
            true => std::mem::take(&mut self.spare),
            false => self.router.take_payload(len),
        }
    }

    /// Hand back a payload this rank is done with: kept as its spare when
    /// that is free and the buffer small, else to the world's free list.
    /// Sends and receives alternate in an exchange, so most payloads go
    /// round one rank without touching the shared list.
    fn spend(&mut self, mut buf: Vec<u8>) {
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
        runs: impl FnOnce(&mut dyn FnMut(i64)),
    ) -> MpiResult<()> {
        self.send_gate(dest)?;
        let (mut payload, mut read) = (self.take_payload(run * n), Ok(()));
        let mem = self.gpu.memory();
        let from = mem.region(buf);
        runs(&mut |off| {
            if read.is_ok() {
                read = offset_ptr(buf, off).and_then(|at| {
                    payload.extend_from_slice(from.read(at.offset, run)?);
                    Ok(())
                });
            }
        });
        drop(mem);
        if let Err(e) = read {
            self.spend(payload);
            return Err(e);
        }
        let (index, total) = (0, n as u32);
        let part = PartInfo {
            index,
            total,
            runs: total,
        };
        self.post_at(dest, tag, payload, buf.space, SimTime::ZERO, Some(part))
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
        let epoch = self.epoch;
        let want = |m: &Message| m.matches(epoch, src, tag);
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
        let (epoch, me) = (self.epoch, self.world_rank);
        let want = |m: &Message| m.matches(epoch, src, tag);
        let info = |m: &Message| ProbeInfo {
            source: m.src,
            tag: m.tag,
            bytes: m.payload.len(),
            sender_space: m.sender_space,
            part: m.part,
        };
        let mut found = None;
        self.router.kept(me, |m| {
            found = found.or_else(|| want(m).then(|| info(m)));
            Examined::Keep
        });
        if let Some(found) = found {
            return Ok(found);
        }
        // examined, and left for the receive that follows
        let m = self.await_arrival(ParkOp::Probe { src, tag }, want)?;
        let found = info(&m);
        self.router.keep(me, m);
        Ok(found)
    }

    // ---- raw-bytes entry points (what an interposer can target) --------

    /// Send `len` raw bytes from `buf` (contiguous, like `MPI_Send` with
    /// `MPI_BYTE`). CUDA-aware: `buf` may be device memory.
    pub fn send_bytes(&mut self, buf: GpuPtr, len: usize, dest: usize, tag: i32) -> MpiResult<()> {
        self.send_gate(dest)?;
        let mut payload = self.take_payload(len);
        self.gpu.memory().peek_into(buf, len, &mut payload)?;
        self.post(dest, tag, payload, buf.space)
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
        self.recv_gate(src)?;
        let msg = self.match_message(src, tag)?;
        self.deliver_transfer(msg, maxlen, buf.space, |ctx, off, payload| {
            ctx.gpu.memory().poke(buf.add(off), &payload)?;
            Ok(payload)
        })
    }

    /// Receive exactly one message into `buf`, even when it is one part of
    /// a pipelined transfer — the mirror of [`RankCtx::send_bytes_part`],
    /// for a receiver that overlaps its own work with the parts still on
    /// the wire.
    pub fn recv_bytes_part(
        &mut self,
        buf: GpuPtr,
        maxlen: usize,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<Status> {
        self.recv_one(buf.space, maxlen, (src, tag), |mem, payload| {
            Ok(mem.poke(buf, payload)?)
        })
    }

    /// Receive exactly one message straight into the runs of a typed
    /// buffer: its k-th `run` bytes land at the k-th offset `runs` hands
    /// its sink — the mirror of [`RankCtx::send_bytes_runs`].
    pub fn recv_bytes_runs(
        &mut self,
        buf: GpuPtr,
        (run, maxlen): (usize, usize),
        src: Option<usize>,
        tag: Option<i32>,
        runs: impl FnOnce(&mut dyn FnMut(i64)),
    ) -> MpiResult<Status> {
        self.recv_one(buf.space, maxlen, (src, tag), |mem, payload| {
            let (mut landed, mut chunks) = (Ok(()), payload.chunks(run.max(1)));
            let mut to = mem.region_mut(buf);
            runs(&mut |off| match chunks.next() {
                Some(bytes) if landed.is_ok() => {
                    landed = offset_ptr(buf, off).and_then(|at| Ok(to.write(at.offset, bytes)?));
                }
                _ => {}
            });
            landed
        })
    }

    /// Match and deliver one message of at most `maxlen` bytes into
    /// `space`, handing its bytes to `land`; the payload goes back to the
    /// free list.
    fn recv_one(
        &mut self,
        space: MemSpace,
        maxlen: usize,
        (src, tag): (Option<usize>, Option<i32>),
        land: impl FnOnce(&mut Memory, &[u8]) -> MpiResult<()>,
    ) -> MpiResult<Status> {
        self.recv_gate(src)?;
        let msg = self.match_message(src, tag)?;
        let (source, tag, bytes) = (msg.src, msg.tag, msg.payload.len());
        if bytes > maxlen {
            self.spend(msg.payload);
            return Err(MpiError::Truncated {
                sent: bytes,
                capacity: maxlen,
                envelope: None,
            });
        }
        let payload = self.deliver_payload(msg, space)?;
        let landed = land(&mut self.gpu.memory(), &payload);
        self.spend(payload);
        landed?;
        Ok(Status { source, tag, bytes })
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
            return self.post(dest, tag, Vec::new(), buf.space);
        }

        if buf.space == MemSpace::Device && !fully_contiguous {
            // Vendor baseline: pack on the GPU block-by-block into a
            // temporary device buffer, then CUDA-aware transfer. The
            // buffer is freed, and a payload taken is spent, on every exit.
            let tmp = self.gpu.malloc(bytes)?;
            let mut payload = Vec::new();
            let packed = (self.wire_xfer(PackDir::Pack, &wt, buf, count, tmp)).and_then(|()| {
                payload = self.take_payload(bytes);
                Ok(self.gpu.memory().peek_into(tmp, bytes, &mut payload)?)
            });
            let freed = self.gpu.free(tmp).map_err(MpiError::from);
            if let Err(e) = packed.and(freed) {
                self.spend(payload);
                return Err(e);
            }
            return self.post(dest, tag, payload, MemSpace::Device);
        }

        self.send_gathered(buf, count, &wt, dest, tag)
    }

    /// [`RankCtx::send`] of contiguous device data, or of host data
    /// (packed on the CPU). (Out of the frame the vendor's device pack
    /// runs beneath, on a rank's fiber stack.)
    fn send_gathered(
        &mut self,
        buf: GpuPtr,
        count: usize,
        wt: &WireType,
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        let payload = self.gather_payload(buf, count, wt)?;
        if buf.space != MemSpace::Device && !wt.fully_contiguous(count) {
            let t = self
                .vendor
                .host_pack_time(wt.size * count, wt.blocks * count);
            self.clock.advance(t);
        }
        self.post(dest, tag, payload, buf.space)
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
        self.recv_gate(src)?;
        let msg = self.match_message(src, tag)?;
        let (st, payload) = self.recv_payload(msg, capacity, buf.space, dt)?;
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
            let poked = self
                .gpu
                .memory()
                .poke(tmp, &payload)
                .map_err(MpiError::from);
            self.spend(payload);
            let unpacked =
                poked.and_then(|()| self.wire_xfer(PackDir::Unpack, &wt, buf, items, tmp));
            let freed = self.gpu.free(tmp).map_err(MpiError::from);
            unpacked.and(freed)?;
        } else {
            self.scatter_payload(buf, items, &wt, &payload)?;
            self.spend(payload);
            if buf.space != MemSpace::Device && !fully_contiguous {
                let t = self.vendor.host_pack_time(bytes, wt.blocks * items);
                self.clock.advance(t);
            }
        }
        Ok(st)
    }

    /// [`RankCtx::recv`]'s delivery of `msg`, received into `space` as
    /// `capacity` bytes of `dt`: its status and packed payload. One message
    /// is consumed as it is; the parts of a pipelined transfer are
    /// gathered, in order, into one payload first. (Out of the frame the
    /// landing's unpack runs beneath, on a rank's fiber stack.)
    fn recv_payload(
        &mut self,
        msg: Message,
        capacity: usize,
        space: MemSpace,
        dt: Datatype,
    ) -> MpiResult<(Status, Vec<u8>)> {
        let mut payload = Vec::new();
        let st = self
            .deliver_transfer(msg, capacity, space, |_, off, part| {
                if off == 0 {
                    payload = part;
                    return Ok(Vec::new());
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
                ctx.recv_bytes_part(buf, len, Some(0), Some(0))?;
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
                                ctx.recv_bytes_part(to.add(2 * run * k), run, Some(0), Some(0))?;
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
