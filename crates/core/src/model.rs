//! The Section-5 performance model of datatype-accelerated MPI primitives.
//!
//! The interposer cannot reach inside the system MPI, so a non-contiguous
//! send must be composed from packing and contiguous transfers. What each
//! composition consists of is written down once, as the method's
//! [`Recipe`]; [`SendModel::terms`] prices a recipe stage by stage, and
//! Eqs. 1–3 ([`SendModel::t_device`], [`SendModel::t_oneshot`],
//! [`SendModel::t_staged`]) are that sum for the three one-piece methods —
//! the same table the send and receive executors walk, so the model and the
//! send path cannot drift apart.
//!
//! The paper shows that — contrary to prior work's preference for
//! one-shot — the *device* method wins for larger, less-contiguous
//! objects, while one-shot wins for smaller, more-contiguous ones, and
//! staged, run as one piece, is never competitive. Its §8 names the way
//! staged does become competitive: run in chunks, its five stages overlap,
//! and above roughly a megabyte the overlap pays for the D2H + H2D trips
//! several times over. [`SendModel::t_pipelined`] prices that by replaying
//! the executor's own issue order ([`PipelineTerms::total`]).
//! [`SendModel::choose`] ranks all four — device, one-shot, staged, and
//! pipelined at its best chunk — and the figure harnesses evaluate the same
//! equations to regenerate Figs. 8, 10 and 11. The decision TEMPI applies
//! per send, in every tuner mode, is [`SendModel::choose_among_runs`]: the
//! same ranking plus, for an object whose runs share one length, the device
//! recipe cut at those runs with no pack at all ([`SendModel::t_cut`]).

use std::sync::Arc;

use gpu_sim::{CopyKind, GpuCostModel, PackDir, PackTarget, SimTime};
use mpi_sim::{NetModel, Transport};

use crate::config::{Method, Recipe};

/// The model, parameterized by the calibrated GPU and network models and a
/// (source, destination) rank placement.
///
/// The cost tables are `Arc`-shared rather than owned: the send hot path
/// builds one of these per call, and an Arc bump must be all that costs.
#[derive(Debug, Clone)]
pub struct SendModel {
    /// GPU cost model (pack kernels, DMA engine).
    pub gpu: Arc<GpuCostModel>,
    /// Fabric model.
    pub net: Arc<NetModel>,
    /// Source rank (placement decides intra- vs inter-node).
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
}

/// A modeled time split into its equation terms (for Figs. 8b/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// Pack term.
    pub pack: SimTime,
    /// Wire / staging terms (everything between pack and unpack).
    pub transfer: SimTime,
    /// Unpack term.
    pub unpack: SimTime,
}

impl Breakdown {
    /// Sum of the terms.
    pub fn total(&self) -> SimTime {
        self.pack + self.transfer + self.unpack
    }
}

/// Chunk sizes considered for the pipelined method, chosen around the
/// D2H/wire bandwidth crossover on Summit-class hardware.
pub const CHUNK_CANDIDATES: [usize; 5] = [64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20];

/// Staging slots per space and per side of a pipelined transfer: chunk
/// `k` stages through slot `k % RING_SLOTS`, so a transfer of any size
/// holds this many chunks of device and of pinned memory, not two copies
/// of the object. Two is enough: on an in-order stream the work that
/// refills a slot already queues behind the work that drained it.
pub const RING_SLOTS: usize = 2;

/// How a pipelined transfer of `bytes` is cut: chunks hold whole blocks, so
/// a chunk is `chunk` rounded down to a multiple of `block` (one block at
/// least). Returns `(chunk bytes, chunk count)`, or `None` when everything
/// fits one chunk and there is nothing to overlap. The executor cuts with
/// this same function.
pub fn pipeline_chunks(bytes: usize, block: usize, chunk: usize) -> Option<(usize, usize)> {
    let block = block.max(1);
    let chunk = (chunk / block).max(1) * block;
    (chunk < bytes).then(|| (chunk, bytes.div_ceil(chunk)))
}

/// One calibrated term of the §5 model: the pack and unpack kernels per
/// [`PackTarget`], the copy engine per [`CopyKind`], or the wire per
/// ([`Transport`], peer shares the sender's node). The model scales each
/// term it prices by a ratio (measured ÷ modelled) looked up by its
/// `Term`: `&|_| 1.0` is the analytical model, the online tuner's
/// [`Tuner::ratio`](crate::tuner::Tuner::ratio) the calibrated one. A
/// wire term's peer class is the model's own: whether `src` and `dst`
/// share a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// Pack and unpack kernels against a target.
    Pack(PackTarget),
    /// Copy-engine transfers in one direction.
    Copy(CopyKind),
    /// Wire transfers over a transport to a peer class.
    Wire(Transport, bool),
}

impl Term {
    /// The term's slot in the tuner's ratio array. D2D/H2H copies are not
    /// staged-path components; they fold onto the nearest engine direction
    /// so an observation is never dropped.
    pub(crate) fn index(self) -> usize {
        match self {
            Term::Pack(PackTarget::Device) => 0,
            Term::Pack(PackTarget::MappedHost) => 1,
            Term::Copy(CopyKind::D2H | CopyKind::D2D) => 2,
            Term::Copy(CopyKind::H2D | CopyKind::H2H) => 3,
            Term::Wire(transport, intra) => {
                4 + 2 * (transport == Transport::Gpu) as usize + !intra as usize
            }
        }
    }
}

/// The outcome of [`SendModel::choose`]: a method and, for
/// [`Method::Pipelined`], the chunk size it was priced at — or, for
/// [`Method::Device`], the run length of the run cut
/// ([`SendModel::choose_among_runs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The fastest method.
    pub method: Method,
    /// Its chunk size when it is the pipelined one, its run length when it
    /// is the device recipe cut at the object's runs.
    pub chunk: Option<usize>,
}

/// A recipe priced stage by stage. For a one-piece method
/// ([`SendModel::terms`]) each term carries its call overheads and its
/// synchronize, and the copies are zero unless the recipe bounces; for one
/// chunk of the §8 pipeline ([`PipelineTerms`]) each is GPU or link
/// occupancy alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTerms {
    /// Pack kernel.
    pub pack: SimTime,
    /// D2H engine copy.
    pub d2h: SimTime,
    /// The wire (for a chunk: the bandwidth term alone).
    pub wire: SimTime,
    /// H2D engine copy on the receiver.
    pub h2d: SimTime,
    /// Unpack kernel.
    pub unpack: SimTime,
}

impl StageTerms {
    /// Each stage of recipe `r` scaled by its [`Term`]'s ratio, the wire's
    /// to the peer class `intra`.
    fn scaled(self, r: Recipe, intra: bool, ratio: &impl Fn(Term) -> f64) -> StageTerms {
        let scale = |t: SimTime, term| SimTime::from_ns_f64(t.as_ns_f64() * ratio(term));
        StageTerms {
            pack: scale(self.pack, Term::Pack(r.pack)),
            d2h: scale(self.d2h, Term::Copy(CopyKind::D2H)),
            wire: scale(self.wire, Term::Wire(r.wire, intra)),
            h2d: scale(self.h2d, Term::Copy(CopyKind::H2D)),
            unpack: scale(self.unpack, Term::Pack(r.pack)),
        }
    }
}

/// The §8 pipeline as the executor runs it: `n` chunks, each passing
/// through five occupancies, issued by two CPUs that pay a fixed overhead
/// per call (see [`SendModel::pipeline_terms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineTerms {
    /// Number of chunks (at least 2).
    pub n: u64,
    /// Every chunk but the last.
    pub chunk: StageTerms,
    /// The last chunk, which may be short.
    pub last: StageTerms,
    /// CPU cost of one kernel launch.
    pub launch: SimTime,
    /// CPU cost of one `cudaMemcpyAsync` call.
    pub memcpy: SimTime,
    /// Sender-side CPU overhead of posting one part.
    pub send_overhead: SimTime,
    /// Receiver-side CPU overhead of matching one part.
    pub recv_overhead: SimTime,
    /// Wire latency floor, paid by every part on top of its link time.
    pub latency: SimTime,
    /// One trailing stream synchronize.
    pub sync: SimTime,
}

impl PipelineTerms {
    /// The terms with each stage scaled by its [`Term`]'s ratio, the
    /// wire's (latency included) to the peer class `intra`.
    pub fn scaled(self, intra: bool, ratio: &impl Fn(Term) -> f64) -> PipelineTerms {
        let r = Method::Pipelined.recipe();
        PipelineTerms {
            chunk: self.chunk.scaled(r, intra, ratio),
            last: self.last.scaled(r, intra, ratio),
            latency: SimTime::from_ns_f64(
                self.latency.as_ns_f64() * ratio(Term::Wire(r.wire, intra)),
            ),
            ..self
        }
    }

    /// Receiver-side completion time of the pipeline, both ranks starting
    /// together: a replay of the executor's issue order. Each side has one
    /// CPU, which pays the call overheads in program order, and one
    /// in-order stream, on which a chunk's kernel and copy queue; the link
    /// carries one part at a time; a pinned receive slot is reused only
    /// once the copy that drained it is done. Whatever is the bottleneck —
    /// a GPU, the link, or a CPU issuing small chunks — falls out of the
    /// replay rather than being assumed.
    pub fn total(&self) -> SimTime {
        let (mut cpu_s, mut gpu_s) = (SimTime::ZERO, SimTime::ZERO);
        let (mut cpu_r, mut gpu_r) = (SimTime::ZERO, SimTime::ZERO);
        let mut link_free = SimTime::ZERO;
        let mut drained = [SimTime::ZERO; RING_SLOTS];
        for k in 0..self.n {
            let t = if k + 1 == self.n {
                self.last
            } else {
                self.chunk
            };
            // sender: launch the pack, queue the D2H behind it, post the part
            cpu_s += self.launch;
            gpu_s = gpu_s.max(cpu_s) + t.pack;
            cpu_s += self.memcpy;
            gpu_s = gpu_s.max(cpu_s) + t.d2h;
            cpu_s += self.send_overhead;
            // link: the part leaves when its bytes are staged and the link is free
            link_free = cpu_s.max(gpu_s).max(link_free) + t.wire;
            // receiver: match the part, queue the H2D, launch the unpack
            let slot = &mut drained[k as usize % RING_SLOTS];
            cpu_r = cpu_r.max(*slot).max(link_free + self.latency) + self.recv_overhead;
            cpu_r += self.memcpy;
            gpu_r = gpu_r.max(cpu_r) + t.h2d;
            *slot = gpu_r;
            cpu_r += self.launch;
            gpu_r = gpu_r.max(cpu_r) + t.unpack;
        }
        cpu_r.max(gpu_r) + self.sync
    }
}

impl SendModel {
    /// Model with both ranks on different Summit nodes (the paper's
    /// measurement placement).
    pub fn summit_internode() -> Self {
        let net = Arc::new(NetModel::summit());
        SendModel {
            gpu: Arc::new(GpuCostModel::summit_v100()),
            net,
            src: 0,
            dst: 6, // different node (6 ranks/node)
        }
    }

    /// Whether `src` and `dst` share a node: the peer class of this
    /// model's wire [`Term`]s.
    pub fn intra_node(&self) -> bool {
        self.net.same_node(self.src, self.dst)
    }

    /// One pack or unpack operation: launch + kernel + synchronize.
    pub fn t_pack(
        &self,
        dir: PackDir,
        target: PackTarget,
        bytes: usize,
        block: usize,
        word: usize,
    ) -> SimTime {
        self.gpu.kernel_launch_overhead
            + self.gpu.pack_kernel_time(dir, target, bytes, block, word)
            + self.gpu.stream_sync_overhead
    }

    /// MPI transfer of `bytes` over `transport`, overheads of both ends
    /// included.
    pub fn t_wire(&self, transport: Transport, bytes: usize) -> SimTime {
        self.net.send_overhead
            + self.net.transfer_time(bytes, transport, self.src, self.dst)
            + self.net.recv_overhead
    }

    /// CUDA-aware GPU–GPU MPI transfer of `bytes` (Fig. 8a upper curve).
    pub fn t_gpu_gpu(&self, bytes: usize) -> SimTime {
        self.t_wire(Transport::Gpu, bytes)
    }

    /// CPU–CPU MPI transfer of `bytes` (Fig. 8a lower curve).
    pub fn t_cpu_cpu(&self, bytes: usize) -> SimTime {
        self.t_wire(Transport::Cpu, bytes)
    }

    /// One engine copy: `cudaMemcpyAsync` + synchronize.
    pub fn t_copy(&self, kind: CopyKind, bytes: usize) -> SimTime {
        self.gpu.memcpy_async_overhead
            + self.gpu.copy_engine_time(kind, bytes)
            + self.gpu.stream_sync_overhead
    }

    /// `cudaMemcpyAsync` D2H + synchronize (Fig. 8a).
    pub fn t_d2h(&self, bytes: usize) -> SimTime {
        self.t_copy(CopyKind::D2H, bytes)
    }

    /// `cudaMemcpyAsync` H2D + synchronize (Fig. 8a).
    pub fn t_h2d(&self, bytes: usize) -> SimTime {
        self.t_copy(CopyKind::H2D, bytes)
    }

    /// A method's recipe priced as one piece, stage by stage: the pack
    /// ratio follows the recipe's target, the wire its transport, and the
    /// copies exist only when it bounces. The pipelined method run as one
    /// piece is the staged one.
    pub fn terms(&self, method: Method, bytes: usize, block: usize, word: usize) -> StageTerms {
        let r = method.recipe();
        let copy = |kind| match r.bounce {
            true => self.t_copy(kind, bytes),
            false => SimTime::ZERO,
        };
        StageTerms {
            pack: self.t_pack(PackDir::Pack, r.pack, bytes, block, word),
            d2h: copy(CopyKind::D2H),
            wire: self.t_wire(r.wire, bytes),
            h2d: copy(CopyKind::H2D),
            unpack: self.t_pack(PackDir::Unpack, r.pack, bytes, block, word),
        }
    }

    /// Eqs. 1–3: [`SendModel::terms`] with everything between pack and
    /// unpack summed into `transfer`.
    pub fn breakdown(&self, method: Method, bytes: usize, block: usize, word: usize) -> Breakdown {
        let t = self.terms(method, bytes, block, word);
        Breakdown {
            pack: t.pack,
            transfer: t.d2h + t.wire + t.h2d,
            unpack: t.unpack,
        }
    }

    /// Equation 1: the device method.
    pub fn t_device(&self, bytes: usize, block: usize, word: usize) -> Breakdown {
        self.breakdown(Method::Device, bytes, block, word)
    }

    /// Equation 2: the one-shot method.
    pub fn t_oneshot(&self, bytes: usize, block: usize, word: usize) -> Breakdown {
        self.breakdown(Method::OneShot, bytes, block, word)
    }

    /// Equation 3: the staged method.
    pub fn t_staged(&self, bytes: usize, block: usize, word: usize) -> Breakdown {
        self.breakdown(Method::Staged, bytes, block, word)
    }

    /// The §8 pipeline's terms for a given chunk size, or `None` when the
    /// object fits one chunk ([`pipeline_chunks`]).
    pub fn pipeline_terms(
        &self,
        bytes: usize,
        block: usize,
        word: usize,
        chunk: usize,
    ) -> Option<PipelineTerms> {
        let (chunk, n) = pipeline_chunks(bytes, block, chunk)?;
        let r = Method::Pipelined.recipe();
        let terms = |len: usize| StageTerms {
            pack: self
                .gpu
                .pack_kernel_time(PackDir::Pack, r.pack, len, block, word),
            d2h: self.gpu.copy_engine_time(CopyKind::D2H, len),
            wire: self.net.serialization_time(len, r.wire, self.src, self.dst),
            h2d: self.gpu.copy_engine_time(CopyKind::H2D, len),
            unpack: self
                .gpu
                .pack_kernel_time(PackDir::Unpack, r.pack, len, block, word),
        };
        Some(PipelineTerms {
            n: n as u64,
            chunk: terms(chunk),
            last: terms(bytes - (n - 1) * chunk),
            launch: self.gpu.kernel_launch_overhead,
            memcpy: self.gpu.memcpy_async_overhead,
            send_overhead: self.net.send_overhead,
            recv_overhead: self.net.recv_overhead,
            latency: self.net.latency(r.wire, self.src, self.dst),
            sync: self.gpu.stream_sync_overhead,
        })
    }

    /// The §8 pipelining extension: the staged composition executed in
    /// `chunk`-byte pieces so its stages overlap. An object that fits one
    /// chunk is just staged.
    pub fn t_pipelined(&self, bytes: usize, block: usize, word: usize, chunk: usize) -> SimTime {
        match self.pipeline_terms(bytes, block, word, chunk) {
            Some(t) => t.total(),
            None => self.t_staged(bytes, block, word).total(),
        }
    }

    /// The run cut: the device recipe with no pack, the object's
    /// `bytes / run` runs shipped straight from the typed buffer as the
    /// parts of one CUDA-aware transfer and landed in place. One latency
    /// plus a flow shop of identical jobs through three stages — send
    /// overhead, link serialisation, receive overhead — whose slowest stage
    /// paces every part after the first: [`PipelineTerms::total`] with no
    /// GPU stage, in closed form.
    pub fn t_cut(&self, bytes: usize, run: usize) -> SimTime {
        let (net, wire) = (&self.net, Transport::Gpu);
        let ser = net.serialization_time(run, wire, self.src, self.dst);
        let stages = [net.send_overhead, ser, net.recv_overhead];
        let pace = stages.into_iter().max().unwrap_or(SimTime::ZERO);
        let later = (bytes / run.max(1)).saturating_sub(1) as u64;
        net.latency(wire, self.src, self.dst) + stages.into_iter().sum::<SimTime>() + pace * later
    }

    /// The fastest pipelined composition over [`CHUNK_CANDIDATES`], in
    /// calibrated ns with its chunk. Only cuts of at least
    /// `2 * RING_SLOTS` chunks are proposed, so that the two staging rings
    /// together never hold more than the one object-sized buffer of the
    /// method they replace; `None` when no candidate is that small.
    fn best_pipelined(
        &self,
        bytes: usize,
        block: usize,
        word: usize,
        ratio: &impl Fn(Term) -> f64,
    ) -> Option<(f64, usize)> {
        let intra = self.intra_node();
        CHUNK_CANDIDATES
            .iter()
            .filter_map(|&chunk| {
                let t = self.pipeline_terms(bytes, block, word, chunk)?;
                (t.n >= 2 * RING_SLOTS as u64)
                    .then(|| (t.scaled(intra, ratio).total().as_ns_f64(), chunk))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Calibrated estimate (ns) of a method run as one piece: each of its
    /// [`SendModel::terms`] times the ratio of its [`Term`], so with the
    /// unit ratio `&|_| 1.0` this *is* Eqs. 1–3.
    fn estimate(
        &self,
        method: Method,
        bytes: usize,
        block: usize,
        word: usize,
        ratio: &impl Fn(Term) -> f64,
    ) -> f64 {
        let (r, t) = (method.recipe(), self.terms(method, bytes, block, word));
        (t.pack + t.unpack).as_ns_f64() * ratio(Term::Pack(r.pack))
            + t.d2h.as_ns_f64() * ratio(Term::Copy(CopyKind::D2H))
            + t.wire.as_ns_f64() * ratio(Term::Wire(r.wire, self.intra_node()))
            + t.h2d.as_ns_f64() * ratio(Term::Copy(CopyKind::H2D))
    }

    /// The per-send decision: whichever of device, one-shot, staged and
    /// pipelined (at its best chunk) the model says is fastest.
    pub fn choose(&self, bytes: usize, block: usize, word: usize) -> Choice {
        self.choose_among(&Method::LADDER, bytes, block, word, &|_| 1.0)
    }

    /// [`SendModel::choose`] over the candidates in `allowed` only (the
    /// caller drops quarantined methods and, for plans that cannot be cut,
    /// the pipelined one), with every term scaled by its [`Term`]'s
    /// `ratio`. Ties go to the earlier candidate; an empty `allowed` yields
    /// the device method.
    pub fn choose_among(
        &self,
        allowed: &[Method],
        bytes: usize,
        block: usize,
        word: usize,
        ratio: &impl Fn(Term) -> f64,
    ) -> Choice {
        self.choose_among_runs(allowed, false, bytes, block, word, ratio)
    }

    /// [`SendModel::choose_among`] with the run cut ([`SendModel::t_cut`],
    /// its wire scaled by `ratio`) one more candidate — the last, so ties go
    /// to the paper's methods — when `runs` says every run of the object is
    /// `block` bytes long, there are at least two, and the device method is
    /// allowed: the cut is that method's recipe, and its choice is
    /// `Choice { method: Device, chunk: Some(block) }`.
    pub fn choose_among_runs(
        &self,
        allowed: &[Method],
        runs: bool,
        bytes: usize,
        block: usize,
        word: usize,
        ratio: &impl Fn(Term) -> f64,
    ) -> Choice {
        let mut best = Choice {
            method: allowed.first().copied().unwrap_or(Method::Device),
            chunk: None,
        };
        let mut best_ns = f64::INFINITY;
        for &method in allowed {
            let (ns, chunk) = match method {
                Method::Pipelined => match self.best_pipelined(bytes, block, word, ratio) {
                    Some((ns, chunk)) => (ns, Some(chunk)),
                    None => continue,
                },
                _ => (self.estimate(method, bytes, block, word, ratio), None),
            };
            if ns < best_ns {
                best_ns = ns;
                best = Choice { method, chunk };
            }
        }
        let cut = runs && block > 0 && bytes / block >= 2 && allowed.contains(&Method::Device);
        let cut_wire = Term::Wire(Transport::Gpu, self.intra_node());
        if cut && self.t_cut(bytes, block).as_ns_f64() * ratio(cut_wire) < best_ns {
            best = Choice {
                method: Method::Device,
                chunk: Some(block),
            };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> SendModel {
        SendModel::summit_internode()
    }

    /// The paper's three one-piece methods (Eqs. 1–3).
    const SECTION5: [Method; 3] = [Method::Device, Method::OneShot, Method::Staged];

    fn section5(m: &SendModel, bytes: usize, block: usize, word: usize) -> Method {
        m.choose_among(&SECTION5, bytes, block, word, &|_| 1.0)
            .method
    }

    #[test]
    fn gpu_gpu_floor_11us_cpu_cpu_floor_2_2us() {
        let m = m();
        let g = m.t_gpu_gpu(1).as_us_f64();
        let c = m.t_cpu_cpu(1).as_us_f64();
        assert!((g - 11.4).abs() < 0.1, "gpu {g}");
        assert!((c - 2.6).abs() < 0.1, "cpu {c}");
    }

    #[test]
    fn staged_never_beats_device() {
        // Fig. 8b: the cpu-cpu advantage never covers D2H + H2D.
        let m = m();
        for bytes in [1usize << 10, 1 << 16, 1 << 20, 4 << 20, 64 << 20] {
            for block in [8usize, 64, 512, 4096] {
                let dev = m.t_device(bytes, block, 4).total();
                let st = m.t_staged(bytes, block, 4).total();
                assert!(st >= dev, "staged beat device at {bytes}/{block}");
            }
        }
    }

    #[test]
    fn oneshot_wins_small_contiguous_device_wins_large_strided() {
        let m = m();
        // 1 MiB with large blocks: one-shot (Fig. 10a)
        assert_eq!(section5(&m, 1 << 20, 4096, 8), Method::OneShot);
        // 4 MiB with small blocks: device (Fig. 10b)
        assert_eq!(section5(&m, 4 << 20, 16, 4), Method::Device);
    }

    #[test]
    fn crossover_moves_with_block_size() {
        // For a fixed 4 MiB object, small blocks favor device (one-shot
        // pack suffers more from the 128 B knee), large blocks favor
        // one-shot-or-tie.
        let m = m();
        let dev_small = m.t_device(4 << 20, 8, 4).total();
        let osh_small = m.t_oneshot(4 << 20, 8, 4).total();
        assert!(dev_small < osh_small);
    }

    #[test]
    fn d2h_h2d_gap_at_1mib_about_80us() {
        // Fig. 8b: around 1 MiB T_cpu-cpu beats T_gpu-gpu by ~80-100 µs,
        // but that saving is consumed by the D2H and H2D transfers — so
        // staged never becomes competitive.
        let m = m();
        let cpu_saving = m
            .t_gpu_gpu(1 << 20)
            .saturating_sub(m.t_cpu_cpu(1 << 20))
            .as_us_f64();
        assert!(
            cpu_saving > 60.0 && cpu_saving < 130.0,
            "saving {cpu_saving} µs"
        );
        let extra = (m.t_d2h(1 << 20) + m.t_h2d(1 << 20)).as_us_f64();
        assert!(
            extra >= cpu_saving,
            "d2h+h2d {extra} must consume {cpu_saving}"
        );
    }

    #[test]
    fn the_recipe_table_prices_to_the_papers_equations() {
        let m = m();
        let (bytes, block, word) = (1usize << 20, 64, 4);
        let pk = |dir, target| m.t_pack(dir, target, bytes, block, word);
        let (dev, map) = (PackTarget::Device, PackTarget::MappedHost);
        // Eq. 1
        assert_eq!(
            m.t_device(bytes, block, word).total(),
            pk(PackDir::Pack, dev) + m.t_gpu_gpu(bytes) + pk(PackDir::Unpack, dev)
        );
        // Eq. 2
        assert_eq!(
            m.t_oneshot(bytes, block, word).total(),
            pk(PackDir::Pack, map) + m.t_cpu_cpu(bytes) + pk(PackDir::Unpack, map)
        );
        // Eq. 3
        assert_eq!(
            m.t_staged(bytes, block, word).total(),
            pk(PackDir::Pack, dev)
                + m.t_d2h(bytes)
                + m.t_cpu_cpu(bytes)
                + m.t_h2d(bytes)
                + pk(PackDir::Unpack, dev)
        );
        for method in Method::LADDER {
            // uncalibrated, the estimate is the breakdown
            let total = m.breakdown(method, bytes, block, word).total();
            let est = m.estimate(method, bytes, block, word, &|_| 1.0);
            assert!((est - total.as_ns_f64()).abs() < 1e-6, "{method:?}");
        }
        // a pipeline of one chunk is the staged method
        assert_eq!(
            m.breakdown(Method::Pipelined, bytes, block, word),
            m.t_staged(bytes, block, word)
        );
    }

    #[test]
    fn the_run_cut_is_the_pipeline_replay_with_no_gpu_stage() {
        // the closed form against the replay of n parts, with runs that make
        // each of the three stages the one that paces the train
        let m = m();
        let (wire, none) = (Transport::Gpu, SimTime::ZERO);
        for run in [8usize, 1200, 4096] {
            for n in 2..=1024 {
                let stage = StageTerms {
                    pack: none,
                    d2h: none,
                    wire: m.net.serialization_time(run, wire, m.src, m.dst),
                    h2d: none,
                    unpack: none,
                };
                let replay = PipelineTerms {
                    n,
                    chunk: stage,
                    last: stage,
                    launch: none,
                    memcpy: none,
                    send_overhead: m.net.send_overhead,
                    recv_overhead: m.net.recv_overhead,
                    latency: m.net.latency(wire, m.src, m.dst),
                    sync: none,
                };
                let bytes = run * n as usize;
                assert_eq!(m.t_cut(bytes, run), replay.total(), "{n} runs of {run} B");
            }
        }
    }

    #[test]
    fn the_run_cut_is_a_candidate_only_of_objects_of_equal_runs() {
        // 8 runs of 2 KiB: the paper's ranking sends them one-shot; told the
        // runs are equal, the model ships them as they lie — as the device
        // recipe, so not where the device method is not allowed
        let m = m();
        let (bytes, run) = (16usize << 10, 2048);
        assert_eq!(section5(&m, bytes, run, 8), Method::OneShot);
        let ranked =
            |allowed: &[Method], runs| m.choose_among_runs(allowed, runs, bytes, run, 8, &|_| 1.0);
        let cut = Choice {
            method: Method::Device,
            chunk: Some(run),
        };
        assert_eq!(ranked(&SECTION5, true), cut);
        assert_eq!(ranked(&Method::LADDER, true), cut);
        assert_eq!(ranked(&SECTION5, false).method, Method::OneShot);
        assert_eq!(ranked(&SECTION5[1..], true).method, Method::OneShot);
        assert!(m.t_cut(bytes, run) < m.t_oneshot(bytes, run, 8).total());
        // one run is no cut; 2,048 runs of 8 B pack
        assert_eq!(
            m.choose_among_runs(&SECTION5, true, 64, 64, 8, &|_| 1.0)
                .chunk,
            None
        );
        let fine = m.choose_among_runs(&SECTION5, true, bytes, 8, 8, &|_| 1.0);
        assert_eq!(fine.chunk, None);
    }

    #[test]
    fn breakdown_total_is_sum() {
        let m = m();
        let b = m.t_device(1 << 20, 64, 4);
        assert_eq!(b.total(), b.pack + b.transfer + b.unpack);
    }

    #[test]
    fn model_is_monotone_in_bytes() {
        let m = m();
        let mut last = SimTime::ZERO;
        for bytes in [1usize << 10, 1 << 14, 1 << 18, 1 << 22] {
            let t = m.t_oneshot(bytes, 512, 8).total();
            assert!(t >= last);
            last = t;
        }
    }
}
