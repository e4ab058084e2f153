//! `Alltoallv`, the one data-moving collective (the halo-exchange
//! primitive of the paper's Section 6.4), built over point-to-point and
//! spelled two ways: dense per-rank arrays and sparse block lists.
//! `MPI_Barrier` is [`RankCtx::barrier`]; agreement lives in [`crate::comm`].
//!
//! Both `alltoallv` calls run one schedule: eager sends and peer-by-peer
//! receives, both walking outward from the caller (pairwise-exchange
//! order), the sends at most a window of 32 ahead of the receives. A call
//! of at most 32 sends thus posts them all before its first receive, so a
//! neighbourhood exchange pays one latency, and a larger one keeps enough
//! messages in flight to hide the link latency behind its overheads. The
//! dense call feeds it its non-zero entries, the sparse call its block
//! lists, so the same exchange costs the same either way and
//! a neighbor exchange costs the same in a world of any size. Each receive
//! completes at `max(now, depart_j + wire_j)`, whatever the wall-clock
//! interleaving.
//!
//! Both calls enter through the reliability layer's collective gate
//! ([`crate::reliability`]): it fails fast with [`MpiError::PeerGone`] when
//! any current member is already dead at entry (ULFM semantics — a
//! collective cannot complete once a participant failed), its constituent
//! sends/receives pass through the same gates as user point-to-point
//! traffic, and a revocation observed mid-collective surfaces as
//! [`MpiError::Revoked`] instead of a hang.

use gpu_sim::GpuPtr;

use crate::error::{MpiError, MpiResult};
use crate::p2p::TAG_ALLTOALLV;
use crate::runtime::RankCtx;

/// How many sends an `alltoallv` posts ahead of its receives, MPICH's
/// default alltoall throttle. Hiding an inter-node CUDA-aware latency
/// behind the 0.4 µs of send and receive overhead each message costs
/// takes about 28 messages in flight per rank, and a neighbourhood
/// exchange (26 peers in 3-D) posts all its sends before its first
/// receive, as a linear `MPI_Alltoallv` does, paying one latency.
const ALLTOALLV_WINDOW: usize = 32;

/// One peer's slice of a sparse `alltoallv`: `count` bytes at
/// `buf + displ` exchanged with communicator rank `peer`. See
/// [`RankCtx::alltoallv_sparse_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlltoallvBlock {
    /// Communicator rank of the peer (same rank space as the dense
    /// `sendcounts` index).
    pub peer: usize,
    /// Bytes exchanged with `peer`. Must be non-zero — zero-count peers
    /// are simply omitted from the list.
    pub count: usize,
    /// Byte offset of the peer's slice within the shared send/recv
    /// buffer.
    pub displ: usize,
}

/// The checks every block of either `alltoallv` call passes before any
/// traffic moves, so an invalid call leaves no peer waiting: a peer of the
/// `n`-rank communicator, a non-zero count, and bytes at `buf + displ`
/// that end at an offset a `usize` names — a sum that wraps would address
/// bytes before the buffer.
fn check_block(buf: GpuPtr, b: &AlltoallvBlock, n: usize) -> MpiResult<()> {
    let AlltoallvBlock { peer, count, displ } = *b;
    let reach = usize::checked_add(buf.offset, displ).and_then(|at| at.checked_add(count));
    let bad = if peer >= n {
        format!("alltoallv block names peer {peer} in a {n}-rank communicator")
    } else if count == 0 {
        "alltoallv blocks must have non-zero counts (omit the peer)".to_string()
    } else if reach.is_none() {
        format!("alltoallv block for peer {peer}: {count} B at displacement {displ} wrap")
    } else {
        return Ok(());
    };
    Err(MpiError::InvalidArg(bad))
}

impl RankCtx {
    /// `MPI_Alltoallv` on raw bytes (`MPI_BYTE` counts/displacements), the
    /// shape the paper's stencil uses after packing all halos into one
    /// buffer. Buffers may live in device or host memory (CUDA-aware).
    ///
    /// `sendcounts[j]` bytes at `sendbuf + sdispls[j]` go to rank `j`;
    /// `recvcounts[j]` bytes arriving from rank `j` land at
    /// `recvbuf + rdispls[j]`. The non-zero entries run the schedule of
    /// [`RankCtx::alltoallv_sparse_bytes`], so the two calls cost the same
    /// on the same exchange.
    pub fn alltoallv_bytes(
        &mut self,
        sendbuf: GpuPtr,
        sendcounts: &[usize],
        sdispls: &[usize],
        recvbuf: GpuPtr,
        recvcounts: &[usize],
        rdispls: &[usize],
    ) -> MpiResult<()> {
        let sum = |counts: &[usize]| counts.iter().sum();
        let bytes = || (sum(sendcounts), sum(recvcounts));
        self.alltoallv_span(bytes, |ctx| {
            ctx.collective_gate()?;
            let (n, me) = (ctx.size, ctx.rank);
            if [sendcounts, sdispls, recvcounts, rdispls]
                .iter()
                .any(|l| l.len() != n)
            {
                return Err(MpiError::InvalidArg(
                    "alltoallv argument arrays must have one entry per rank".to_string(),
                ));
            }
            // rank `peer`'s block, if it moves any bytes
            let block = |counts: &[usize], displs: &[usize], peer: usize| {
                let (count, displ) = (counts[peer], displs[peer]);
                (count > 0).then_some(AlltoallvBlock { peer, count, displ })
            };
            for (buf, counts, displs) in [
                (sendbuf, sendcounts, sdispls),
                (recvbuf, recvcounts, rdispls),
            ] {
                for b in (0..n).filter_map(|j| block(counts, displs, j)) {
                    check_block(buf, &b, n)?;
                }
            }
            // ascending send distance, then ascending receive distance
            let sends = (0..=me).rev().chain((me + 1..n).rev());
            let recvs = (me..n).chain(0..me);
            ctx.alltoallv_schedule(
                (sendbuf, sends.filter_map(|j| block(sendcounts, sdispls, j))),
                (recvbuf, recvs.filter_map(|j| block(recvcounts, rdispls, j))),
            )
        })
    }

    /// `MPI_Alltoallv` over the peers that actually exchange data:
    /// `sends`/`recvs` list the non-zero blocks in strictly ascending peer
    /// order. Same bytes, schedule and clocks as
    /// [`RankCtx::alltoallv_bytes`] on the blocks scattered into
    /// zero-padded arrays, at O(degree) per rank instead of O(size): a
    /// 26-neighbor exchange takes the same virtual time at 64 ranks and at
    /// 10,000.
    pub fn alltoallv_sparse_bytes(
        &mut self,
        sendbuf: GpuPtr,
        sends: &[AlltoallvBlock],
        recvbuf: GpuPtr,
        recvs: &[AlltoallvBlock],
    ) -> MpiResult<()> {
        let sum = |list: &[AlltoallvBlock]| list.iter().map(|b| b.count).sum();
        let bytes = || (sum(sends), sum(recvs));
        self.alltoallv_span(bytes, |ctx| {
            ctx.collective_gate()?;
            let n = ctx.size;
            for (buf, list) in [(sendbuf, sends), (recvbuf, recvs)] {
                for (i, b) in list.iter().enumerate() {
                    check_block(buf, b, n)?;
                    if i > 0 && list[i - 1].peer >= b.peer {
                        return Err(MpiError::InvalidArg(
                            "sparse alltoallv blocks must be in strictly ascending peer order"
                                .to_string(),
                        ));
                    }
                }
            }
            let me = ctx.rank;
            let (below, above) = sends.split_at(sends.partition_point(|b| b.peer <= me));
            let sends = below.iter().rev().chain(above.iter().rev());
            let (below, above) = recvs.split_at(recvs.partition_point(|b| b.peer < me));
            let recvs = above.iter().chain(below);
            ctx.alltoallv_schedule((sendbuf, sends.copied()), (recvbuf, recvs.copied()))
        })
    }

    /// Run an `alltoallv` body inside its trace span, whose end records
    /// the bytes each way (`bytes` is called only when tracing).
    fn alltoallv_span(
        &mut self,
        bytes: impl FnOnce() -> (usize, usize),
        body: impl FnOnce(&mut RankCtx) -> MpiResult<()>,
    ) -> MpiResult<()> {
        self.with_span_args("mpi", "alltoallv", body, |r| {
            let (sent, received) = bytes();
            vec![
                ("send_bytes", sent.into()),
                ("recv_bytes", received.into()),
                ("ok", r.is_ok().into()),
            ]
        })
    }

    /// The one `alltoallv` schedule: `sends` in ascending send distance
    /// `(me − peer) mod n`, `recvs` in ascending receive distance
    /// `(peer − me) mod n` — pairwise-exchange order, walking outward from
    /// this rank — every block already validated.
    ///
    /// A message p → i has the same distance at both ends. Before
    /// blocking on a receive of distance m every send of distance ≤ m is
    /// posted; beyond that, sends run at most [`ALLTOALLV_WINDOW`] ahead.
    /// The first rule alone rules out deadlock for any lists: a rank
    /// blocked at m waits on a peer whose distance-m send is unposted, so
    /// that peer is blocked at a distance < m, and no wait-for chain can
    /// close.
    fn alltoallv_schedule(
        &mut self,
        (sendbuf, sends): (GpuPtr, impl Iterator<Item = AlltoallvBlock>),
        (recvbuf, recvs): (GpuPtr, impl Iterator<Item = AlltoallvBlock>),
    ) -> MpiResult<()> {
        let (n, me) = (self.size, self.rank);
        let mut to_send = sends.peekable();
        let mut posted = 0;
        for (ri, r) in recvs.enumerate() {
            let m = (r.peer + n - me) % n;
            while let Some(s) =
                to_send.next_if(|s| (me + n - s.peer) % n <= m || posted < ri + ALLTOALLV_WINDOW)
            {
                self.send_bytes(sendbuf.add(s.displ), s.count, s.peer, TAG_ALLTOALLV)?;
                posted += 1;
            }
            let st = self.recv_bytes(
                recvbuf.add(r.displ),
                r.count,
                Some(r.peer),
                Some(TAG_ALLTOALLV),
            )?;
            if st.bytes != r.count {
                return Err(MpiError::Internal(format!(
                    "alltoallv count mismatch from rank {}: got {}, expected {}",
                    r.peer, st.bytes, r.count
                )));
            }
        }
        for s in to_send {
            self.send_bytes(sendbuf.add(s.displ), s.count, s.peer, TAG_ALLTOALLV)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runtime::{World, WorldConfig};
    use gpu_sim::SimTime;

    #[test]
    fn alltoallv_exchanges_rank_stamped_bytes() {
        let n = 4;
        let cfg = WorldConfig::summit(n);
        let results = World::run(&cfg, |ctx| {
            let chunk = 8;
            let send = ctx.gpu.host_alloc(chunk * n)?;
            let recv = ctx.gpu.host_alloc(chunk * n)?;
            // rank r sends bytes [r*16 + j] to rank j
            let data: Vec<u8> = (0..n)
                .flat_map(|j| std::iter::repeat_n((ctx.rank * 16 + j) as u8, chunk))
                .collect();
            ctx.gpu.memory().poke(send, &data)?;
            let counts = vec![chunk; n];
            let displs: Vec<usize> = (0..n).map(|j| j * chunk).collect();
            ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
            ctx.gpu.memory().peek(recv, chunk * n).map_err(Into::into)
        })
        .unwrap();
        for (r, got) in results.iter().enumerate() {
            for j in 0..n {
                let expect = (j * 16 + r) as u8;
                assert!(
                    got[j * 8..(j + 1) * 8].iter().all(|&b| b == expect),
                    "rank {r} from {j}"
                );
            }
        }
    }

    #[test]
    fn alltoallv_zero_counts_skip() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(8)?;
            // only rank 0 → rank 1 transfers anything
            let (sc, rc) = if ctx.rank == 0 {
                (vec![0, 8], vec![0, 0])
            } else {
                (vec![0, 0], vec![8, 0])
            };
            ctx.alltoallv_bytes(buf, &sc, &[0, 0], buf, &rc, &[0, 0])?;
            Ok(true)
        })
        .unwrap();
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn alltoallv_validates_lengths() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(8)?;
            Ok(matches!(
                ctx.alltoallv_bytes(buf, &[1], &[0, 0], buf, &[1, 1], &[0, 0]),
                Err(MpiError::InvalidArg(_))
            ))
        })
        .unwrap();
        assert!(results.iter().all(|&b| b));
    }

    #[test]
    fn alltoallv_device_buffers() {
        let n = 3;
        let cfg = WorldConfig::summit(n);
        let results = World::run(&cfg, |ctx| {
            let chunk = 16;
            let send = ctx.gpu.malloc(chunk * n)?;
            let recv = ctx.gpu.malloc(chunk * n)?;
            let data: Vec<u8> = (0..chunk * n).map(|i| (ctx.rank * 64 + i) as u8).collect();
            ctx.gpu.memory().poke(send, &data)?;
            let counts = vec![chunk; n];
            let displs: Vec<usize> = (0..n).map(|j| j * chunk).collect();
            ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
            let got = ctx.gpu.memory().peek(recv, chunk * n)?;
            // block j came from rank j's block `ctx.rank`
            for j in 0..n {
                let expect0 = (j * 64 + ctx.rank * chunk) as u8;
                assert_eq!(got[j * chunk], expect0);
            }
            Ok(ctx.clock.now().as_ps())
        })
        .unwrap();
        // device buffers → GPU-path floors apply
        assert!(results.iter().all(|&t| t > 0));
    }

    #[test]
    fn alltoallv_beyond_window_still_exchanges_correctly() {
        // more ranks than ALLTOALLV_WINDOW: the interleaved (bounded
        // in-flight) schedule must deliver the same bytes as post-all
        let n = ALLTOALLV_WINDOW + 4;
        let cfg = WorldConfig::summit(n);
        let results = World::run(&cfg, |ctx| {
            let send = ctx.gpu.host_alloc(n)?;
            let recv = ctx.gpu.host_alloc(n)?;
            let data: Vec<u8> = (0..n).map(|j| (ctx.rank * 31 + j) as u8).collect();
            ctx.gpu.memory().poke(send, &data)?;
            let counts = vec![1usize; n];
            let displs: Vec<usize> = (0..n).collect();
            ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
            ctx.gpu.memory().peek(recv, n).map_err(Into::into)
        })
        .unwrap();
        for (r, got) in results.iter().enumerate() {
            for (j, &byte) in got.iter().enumerate() {
                assert_eq!(byte, (j * 31 + r) as u8, "rank {r} from {j}");
            }
        }
    }

    /// A directed exchange pattern: `(src, dst, bytes)` edges, at most one
    /// per ordered pair.
    type Edges = Vec<(usize, usize, usize)>;

    /// Rank `me`'s sparse block lists for `edges`: ascending peers, slices
    /// laid out back to back.
    fn blocks_of(edges: &Edges, me: usize) -> (Vec<AlltoallvBlock>, Vec<AlltoallvBlock>) {
        fn list(mut peers: Vec<(usize, usize)>) -> Vec<AlltoallvBlock> {
            peers.sort_unstable();
            let mut end = 0;
            let block = |(peer, count)| {
                end += count;
                AlltoallvBlock {
                    peer,
                    count,
                    displ: end - count,
                }
            };
            peers.into_iter().map(block).collect()
        }
        let to = edges.iter().filter(|e| e.0 == me).map(|e| (e.1, e.2));
        let from = edges.iter().filter(|e| e.1 == me).map(|e| (e.0, e.2));
        (list(to.collect()), list(from.collect()))
    }

    /// Byte `k` of the `src → dst` message of call `round`.
    fn stamp(src: usize, dst: usize, k: usize, round: usize) -> u8 {
        (src * 31 + dst * 7 + k + round * 13) as u8
    }

    /// Run `rounds` back-to-back exchanges of `edges` (no barrier between
    /// them) through the sparse call, or through the dense call on the
    /// same blocks scattered into zero-padded arrays. Returns each rank's
    /// receive buffer after every round, and its time in the collective.
    fn exchange(n: usize, edges: &Edges, sparse: bool, rounds: usize) -> Vec<(Vec<u8>, SimTime)> {
        let cfg = WorldConfig::summit(n);
        World::run(&cfg, |ctx| {
            let (sends, recvs) = blocks_of(edges, ctx.rank);
            let bytes = |l: &[AlltoallvBlock]| l.iter().map(|b| b.count).sum::<usize>();
            let send = ctx.gpu.malloc(bytes(&sends).max(1))?;
            let recv = ctx.gpu.malloc(bytes(&recvs).max(1))?;
            let dense = |l: &[AlltoallvBlock]| {
                let (mut counts, mut displs) = (vec![0; n], vec![0; n]);
                for b in l {
                    counts[b.peer] = b.count;
                    displs[b.peer] = b.displ;
                }
                (counts, displs)
            };
            let ((sc, sd), (rc, rd)) = (dense(&sends), dense(&recvs));
            ctx.barrier();
            let t0 = ctx.clock.now();
            let mut got = Vec::new();
            for round in 0..rounds {
                for b in &sends {
                    let data: Vec<u8> = (0..b.count)
                        .map(|k| stamp(ctx.rank, b.peer, k, round))
                        .collect();
                    ctx.gpu.memory().poke(send.add(b.displ), &data)?;
                }
                if sparse {
                    ctx.alltoallv_sparse_bytes(send, &sends, recv, &recvs)?;
                } else {
                    ctx.alltoallv_bytes(send, &sc, &sd, recv, &rc, &rd)?;
                }
                got.extend(ctx.gpu.memory().peek(recv, bytes(&recvs))?);
            }
            Ok((got, ctx.clock.now() - t0))
        })
        .unwrap()
    }

    /// The sparse call delivers what the dense call delivers, at the same
    /// instant on every rank — one schedule — and that is the right data:
    /// peer `p`'s slice on rank `me` carries `p → me`.
    fn assert_sparse_delivers_dense_bytes(n: usize, edges: &Edges, rounds: usize) {
        let sparse = exchange(n, edges, true, rounds);
        let dense = exchange(n, edges, false, rounds);
        for (me, ((got, took), (want, dense_took))) in sparse.iter().zip(&dense).enumerate() {
            assert_eq!(got, want, "rank {me}: sparse and dense bytes differ");
            assert_eq!(
                took, dense_took,
                "rank {me}: sparse and dense clocks differ"
            );
            let (_, recvs) = blocks_of(edges, me);
            let per_round = got.len() / rounds;
            for round in 0..rounds {
                for b in &recvs {
                    for k in 0..b.count {
                        assert_eq!(
                            got[round * per_round + b.displ + k],
                            stamp(b.peer, me, k, round),
                            "rank {me} from {} byte {k} round {round}",
                            b.peer
                        );
                    }
                }
            }
        }
    }

    /// Each rank exchanges with its ±1 and ±5 ring neighbors only.
    fn ring_pattern(n: usize) -> Edges {
        let mut edges: Edges = (0..n)
            .flat_map(|me| {
                [1, 5, n - 1, n - 5]
                    .into_iter()
                    .map(move |d| (me, (me + d) % n, 4))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    #[test]
    fn sparse_alltoallv_delivers_the_dense_bytes() {
        // symmetric, spanning the window; then three calls back to back,
        // where a fast rank's next-call messages must queue behind, not
        // match into, a slow rank's current call
        let n = ALLTOALLV_WINDOW + 6;
        let ring = ring_pattern(n);
        assert_sparse_delivers_dense_bytes(n, &ring, 1);
        assert_sparse_delivers_dense_bytes(n, &ring, 3);
    }

    #[test]
    fn sparse_alltoallv_handles_random_asymmetric_patterns() {
        // send set != receive set, self peers, wrap-around pairs, ranks
        // with an empty send or receive list, degrees past the window
        let mut x = 18;
        let mut next = move |m: u64| {
            x = gpu_sim::fault::splitmix64(x);
            x % m
        };
        for case in 0..12 {
            let n = 3 + next(22) as usize;
            let density = 1 + next(4);
            let (mute, deaf) = (next(n as u64) as usize, next(n as u64) as usize);
            let mut edges = Edges::new();
            for s in 0..n {
                for d in 0..n {
                    if s != mute && d != deaf && next(6) < density {
                        edges.push((s, d, 1 + next(9) as usize));
                    }
                }
            }
            assert_sparse_delivers_dense_bytes(n, &edges, 1 + case % 2);
        }
    }

    #[test]
    fn sparse_alltoallv_completes_a_cycle_behind_more_than_a_window_of_sends() {
        // A → B → C → A, each behind a window and a half of nearer sends
        // to pure receivers. A count-only window posts its fill of nearest
        // sends and blocks on a receive whose sender is blocked the same
        // way; the distance rule posts the cycle's sends first.
        let nearer = ALLTOALLV_WINDOW + ALLTOALLV_WINDOW / 2;
        let n = 3 * (nearer + 4);
        let mut edges = Edges::new();
        for a in [0, n / 3, 2 * n / 3] {
            edges.push((a, (a + n / 3) % n, 8));
            for d in 1..=nearer {
                edges.push((a, (a + n - d) % n, 8));
            }
        }
        assert_sparse_delivers_dense_bytes(n, &edges, 1);
    }

    #[test]
    fn a_dense_all_pairs_exchange_runs_the_sparse_schedule() {
        // every rank to every rank, itself included: the dense call is the
        // natural spelling, and it costs what the same blocks listed
        // sparsely cost
        let n = 64;
        let edges: Edges = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d, 8)))
            .collect();
        assert_sparse_delivers_dense_bytes(n, &edges, 1);
    }

    #[test]
    fn both_calls_reject_a_displacement_that_wraps_before_any_traffic() {
        // `buf + 8 + (usize::MAX - 3)` wraps to bytes 4..8 of the
        // allocation, which lie before the send buffer
        let results = World::run(&WorldConfig::summit(1), |ctx| {
            let buf = ctx.gpu.host_alloc(16)?;
            let recv = ctx.gpu.host_alloc(4)?;
            let wraps = usize::MAX - 3;
            let dense = ctx.alltoallv_bytes(buf.add(8), &[4], &[wraps], recv, &[4], &[0]);
            let block = |displ| AlltoallvBlock {
                peer: 0,
                count: 4,
                displ,
            };
            let sparse = ctx.alltoallv_sparse_bytes(buf.add(8), &[block(wraps)], recv, &[block(0)]);
            Ok([dense, sparse]
                .map(|r| matches!(r, Err(MpiError::InvalidArg(m)) if m.contains("peer 0"))))
        })
        .unwrap();
        assert_eq!(results, vec![[true, true]]);
    }

    /// The 26-neighbor pattern of a periodic `side`³ decomposition.
    fn torus_pattern(side: usize) -> Edges {
        let at =
            |x: usize, y: usize, z: usize| (x % side) + side * ((y % side) + side * (z % side));
        let mut edges = Edges::new();
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    for d in 0..27 {
                        if d != 13 {
                            let (dx, dy, dz) = (d % 3, d / 3 % 3, d / 9);
                            let peer = at(x + side + dx - 1, y + side + dy - 1, z + side + dz - 1);
                            edges.push((at(x, y, z), peer, 64));
                        }
                    }
                }
            }
        }
        edges
    }

    #[test]
    fn neighbor_exchange_time_does_not_grow_with_the_world() {
        // A nearest-neighbor exchange weak-scales flat: no rank waits on a
        // chain of other ranks' receives, only on its own neighbors.
        let slowest = |side: usize| {
            let run = exchange(side * side * side, &torus_pattern(side), true, 1);
            run.into_iter().map(|(_, t)| t).max().unwrap()
        };
        let (at_64, at_512) = (slowest(4), slowest(8));
        assert_eq!(at_64, at_512);
        let floor = WorldConfig::summit(64).net.gpu_latency_inter;
        assert!(
            at_512.as_ps() <= 5 * floor.as_ps(),
            "{at_512:?} for a 26-neighbor exchange of 64-byte messages"
        );
    }

    /// The latest a rank finishes an exchange of `peers` device messages of
    /// `bytes` each when every rank posts all its sends before its first
    /// receive: its last peer's message departs at most `peers` send
    /// overheads in, pays the slower floor and its own serialisation, and
    /// waits behind at most `peers` receive overheads.
    fn one_latency_round(peers: u64, bytes: usize) -> SimTime {
        let net = WorldConfig::summit(1).net;
        let far = net.ranks_per_node;
        net.gpu_latency_inter.max(net.gpu_latency_intra)
            + (net.send_overhead + net.recv_overhead) * peers
            + net.serialization_time(bytes, crate::net::Transport::Gpu, 0, far)
    }

    #[test]
    fn a_26_peer_exchange_takes_one_latency_round() {
        // a window of 8 pays ⌈26 / 8⌉ back-to-back latencies instead
        let run = exchange(64, &torus_pattern(4), true, 1);
        let bound = one_latency_round(26, 64);
        for (rank, (_, took)) in run.iter().enumerate() {
            assert!(*took <= bound, "rank {rank}: {took:?} > {bound:?}");
        }
    }

    /// Rank 0 exchanges `peers` messages of 64 bytes with each of ranks
    /// `1..=peers`, which exchange with nobody else.
    fn star_pattern(peers: usize) -> Edges {
        (1..=peers).flat_map(|p| [(0, p, 64), (p, 0, 64)]).collect()
    }

    #[test]
    fn a_33_peer_call_keeps_a_window_of_sends_ahead_of_its_receives() {
        // The hub sends to ranks 33, 32, …, 1 and first receives from rank
        // 1, whose message takes at least one floor to land. With 32 sends
        // ahead, exactly those to 33..=2 leave before it does; the last one
        // lands at least two floors in. Posting all 33 would land each
        // within 33 send overheads and one floor, short of two.
        let net = WorldConfig::summit(1).net;
        let two_floors = net.gpu_latency_intra.min(net.gpu_latency_inter) * 2;
        let run = exchange(34, &star_pattern(33), true, 1);
        let late: Vec<usize> = (1..=33).filter(|&p| run[p].1 >= two_floors).collect();
        assert_eq!(late, (1..=33 - ALLTOALLV_WINDOW).collect::<Vec<_>>());
    }

    #[test]
    fn dense_and_sparse_calls_agree_either_side_of_the_window() {
        for peers in [ALLTOALLV_WINDOW, ALLTOALLV_WINDOW + 1] {
            let n = peers + 8;
            let shifted: Edges = (0..n)
                .flat_map(|me| (1..=peers).map(move |d| (me, (me + d) % n, 4)))
                .collect();
            assert_sparse_delivers_dense_bytes(n, &shifted, 2);
            assert_sparse_delivers_dense_bytes(peers + 1, &star_pattern(peers), 1);
        }
    }

    #[test]
    fn a_dense_exchange_hides_the_link_latency() {
        // 128 ranks, 64 bytes to every rank: with a window of sends in
        // flight, a rank is busy with its own send and receive overheads
        // while the link latency passes, so it finishes within one latency
        // of paying them back to back. A window of 8 waits out a latency
        // every 8 peers instead.
        let n = 128;
        let edges: Edges = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d, 64)))
            .collect();
        let net = WorldConfig::summit(n).net;
        let bound =
            (net.send_overhead + net.recv_overhead) * (n as u64 - 1) + net.gpu_latency_inter;
        for (rank, (_, took)) in exchange(n, &edges, false, 1).iter().enumerate() {
            assert!(*took <= bound, "rank {rank}: {took:?} > {bound:?}");
        }
    }

    #[test]
    fn sparse_alltoallv_rejects_malformed_blocks() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(8)?;
            let bad_peer = [AlltoallvBlock {
                peer: 5,
                count: 4,
                displ: 0,
            }];
            let zero = [AlltoallvBlock {
                peer: 0,
                count: 0,
                displ: 0,
            }];
            let unsorted = [
                AlltoallvBlock {
                    peer: 1,
                    count: 4,
                    displ: 0,
                },
                AlltoallvBlock {
                    peer: 0,
                    count: 4,
                    displ: 4,
                },
            ];
            for bad in [&bad_peer[..], &zero[..], &unsorted[..]] {
                if !matches!(
                    ctx.alltoallv_sparse_bytes(buf, bad, buf, &[]),
                    Err(MpiError::InvalidArg(_))
                ) {
                    return Ok(false);
                }
            }
            Ok(true)
        })
        .unwrap();
        assert!(results.iter().all(|&b| b));
    }

    // ---- fault awareness ------------------------------------------------

    #[test]
    fn collectives_error_not_hang_when_a_member_is_dead() {
        // rank 3 is scheduled dead before the collective starts: every
        // survivor fails fast at entry instead of blocking forever, and the
        // dead rank reports its own death
        let plan = FaultPlan::parse("exit=3@5us").unwrap();
        let cfg = WorldConfig::summit(4).with_faults(plan);
        let results = World::run(&cfg, |ctx| {
            ctx.clock.advance(SimTime::from_us(10));
            let buf = ctx.gpu.host_alloc(8)?;
            let counts = vec![0usize; 4];
            let r = ctx.alltoallv_bytes(buf, &counts, &counts, buf, &counts, &counts);
            assert_eq!(r, Err(MpiError::PeerGone), "rank {}", ctx.rank);
            let r = ctx.alltoallv_sparse_bytes(buf, &[], buf, &[]);
            assert_eq!(r, Err(MpiError::PeerGone), "rank {}", ctx.rank);
            Ok(true)
        })
        .unwrap();
        assert_eq!(results, vec![true; 4]);
    }

    #[test]
    fn revoked_communicator_fails_all_collectives_fast() {
        let cfg = WorldConfig::summit(1);
        let mut ctx = crate::runtime::RankCtx::standalone(&cfg);
        ctx.revoke().unwrap();
        let buf = ctx.gpu.host_alloc(8).unwrap();
        assert_eq!(
            ctx.alltoallv_bytes(buf, &[0], &[0], buf, &[0], &[0]),
            Err(MpiError::Revoked)
        );
        assert_eq!(
            ctx.alltoallv_sparse_bytes(buf, &[], buf, &[]),
            Err(MpiError::Revoked)
        );
    }

    #[test]
    fn injected_faults_reach_collective_sites() {
        // a transient-fault plan with a generous retry budget: both
        // collectives must exercise the same gates as p2p (faults
        // observed, results still exact)
        let plan = FaultPlan::parse("seed=11,send=0.2,recv=0.2,retries=12,backoff=5us").unwrap();
        let cfg = WorldConfig::summit(4).with_faults(plan);
        let results = World::run(&cfg, |ctx| {
            let counts = vec![1usize; 4];
            let displs: Vec<usize> = (0..4).collect();
            let send = ctx.gpu.host_alloc(4)?;
            let recv = ctx.gpu.host_alloc(4)?;
            ctx.gpu.memory().poke(send, &[ctx.rank as u8; 4])?;
            ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
            assert_eq!(ctx.gpu.memory().peek(recv, 4)?, vec![0, 1, 2, 3]);
            let blocks: Vec<AlltoallvBlock> = (0..4)
                .map(|peer| AlltoallvBlock {
                    peer,
                    count: 1,
                    displ: peer,
                })
                .collect();
            ctx.gpu.memory().poke(send, &[ctx.rank as u8 + 10; 4])?;
            ctx.alltoallv_sparse_bytes(send, &blocks, recv, &blocks)?;
            assert_eq!(ctx.gpu.memory().peek(recv, 4)?, vec![10, 11, 12, 13]);
            Ok(ctx.faults.stats.send_faults + ctx.faults.stats.recv_faults)
        })
        .unwrap();
        let observed: u64 = results.iter().sum();
        assert!(observed > 0, "no faults reached the collective sites");
    }
}
