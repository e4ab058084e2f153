//! Nonblocking point-to-point: `MPI_Isend` / `MPI_Irecv` / `MPI_Wait` /
//! `MPI_Waitall` / `MPI_Waitany` / `MPI_Test` / `MPI_Testall`.
//!
//! The simulated transport is eager (unbounded channels), so an `Isend`
//! performs all its work — including any baseline datatype packing — at
//! post time and completes immediately; this matches how eager-protocol
//! MPI implementations behave for the message sizes where non-contiguous
//! handling matters. An `Irecv` records its arguments and matches at
//! completion time (`wait`/`test`).
//!
//! **Matching-order caveat:** posted receives match messages when they are
//! *waited on*, not when posted. Completing requests in post order
//! (`waitall`, or `wait` in order) preserves MPI's non-overtaking
//! semantics; waiting on same-`(source, tag)` requests out of post order
//! would not. The simulator's experiments always complete in order.
//!
//! **Request lifecycle under failures:** completion always frees the
//! request slot first, so an operation that then fails (`PeerGone`,
//! `Revoked`, `CommFailed`) still consumes its request — requests are
//! never leaked. [`RankCtx::waitall`] completes *every* request before
//! reporting the first error, and [`RankCtx::waitall_outcomes`] exposes
//! the full per-request outcome vector for recovery code that needs to
//! know which transfers landed.

use gpu_sim::GpuPtr;

use crate::datatype::Datatype;
use crate::error::{MpiError, MpiResult};
use crate::p2p::Status;
use crate::reliability::Sifted;
use crate::runtime::RankCtx;
use crate::sched::ParkOp;

/// A handle to an outstanding nonblocking operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(pub(crate) usize);

/// The recorded state of one request.
pub(crate) enum PendingOp {
    /// Eager send: already delivered; completes instantly.
    SendDone,
    /// Posted receive on raw bytes.
    RecvBytes {
        buf: GpuPtr,
        maxlen: usize,
        src: Option<usize>,
        tag: Option<i32>,
    },
    /// Posted receive with a datatype.
    RecvTyped {
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        src: Option<usize>,
        tag: Option<i32>,
    },
}

impl RankCtx {
    fn push_request(&mut self, op: PendingOp) -> Request {
        self.requests.push(Some(op));
        Request(self.requests.len() - 1)
    }

    /// `MPI_Isend` on raw bytes (eager: the payload departs now).
    pub fn isend_bytes(
        &mut self,
        buf: GpuPtr,
        len: usize,
        dest: usize,
        tag: i32,
    ) -> MpiResult<Request> {
        self.send_bytes(buf, len, dest, tag)?;
        Ok(self.push_request(PendingOp::SendDone))
    }

    /// `MPI_Isend` with a datatype (eager; baseline packing happens now).
    pub fn isend(
        &mut self,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        dest: usize,
        tag: i32,
    ) -> MpiResult<Request> {
        self.send(buf, count, dt, dest, tag)?;
        Ok(self.push_request(PendingOp::SendDone))
    }

    /// `MPI_Irecv` on raw bytes.
    pub fn irecv_bytes(
        &mut self,
        buf: GpuPtr,
        maxlen: usize,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<Request> {
        Ok(self.push_request(PendingOp::RecvBytes {
            buf,
            maxlen,
            src,
            tag,
        }))
    }

    /// `MPI_Irecv` with a datatype.
    pub fn irecv(
        &mut self,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<Request> {
        if !self.is_committed(dt)? {
            return Err(MpiError::NotCommitted);
        }
        Ok(self.push_request(PendingOp::RecvTyped {
            buf,
            count,
            dt,
            src,
            tag,
        }))
    }

    /// `MPI_Test`: has the request completed by now? Nonblocking — a
    /// pending receive completes only if a matching message has already
    /// been delivered to this rank.
    pub fn test(&mut self, req: Request) -> MpiResult<Option<Status>> {
        let (src, tag) = match self.requests.get(req.0).and_then(|o| o.as_ref()) {
            None => return Err(MpiError::InvalidArg(format!("dead request {req:?}"))),
            Some(PendingOp::SendDone) => {
                return Ok(Some(Status {
                    source: self.rank,
                    tag: 0,
                    bytes: 0,
                }))
            }
            Some(PendingOp::RecvBytes { src, tag, .. } | PendingOp::RecvTyped { src, tag, .. }) => {
                (*src, *tag)
            }
        };
        // drain arrivals, then check for a match without blocking
        self.absorb_arrivals();
        if self.peek_match(src, tag) {
            let st = self.complete(req)?;
            Ok(Some(st))
        } else {
            Ok(None)
        }
    }

    /// Pull every already-delivered message out of the inbox, routing it
    /// through `sift` so control traffic (death notices, revocations,
    /// stale-epoch drops) updates rank state instead of polluting the
    /// matchable queue.
    fn absorb_arrivals(&mut self) {
        // An empty inbox also yields this fiber to its peers (see
        // `Router::try_recv`), so `test()` loops cannot livelock a worker.
        while let Some(m) = self.router.try_recv(self.world_rank, self.clock.now()) {
            if let Sifted::Keep(m) = self.sift(m) {
                self.pending.push_back(m);
            }
        }
    }

    /// Is a matching message already queued? (no blocking, no removal)
    fn peek_match(&self, src: Option<usize>, tag: Option<i32>) -> bool {
        let epoch = self.epoch;
        self.pending.iter().any(|m| m.matches(epoch, src, tag))
    }

    /// Complete one request, blocking if necessary.
    fn complete(&mut self, req: Request) -> MpiResult<Status> {
        let op = self
            .requests
            .get_mut(req.0)
            .and_then(Option::take)
            .ok_or_else(|| MpiError::InvalidArg(format!("dead request {req:?}")))?;
        let st = match op {
            PendingOp::SendDone => Status {
                source: self.rank,
                tag: 0,
                bytes: 0,
            },
            PendingOp::RecvBytes {
                buf,
                maxlen,
                src,
                tag,
            } => self.recv_bytes(buf, maxlen, src, tag)?,
            PendingOp::RecvTyped {
                buf,
                count,
                dt,
                src,
                tag,
            } => self.recv(buf, count, dt, src, tag)?,
        };
        Ok(st)
    }

    /// `MPI_Wait`: block until the request completes; frees the request.
    pub fn wait(&mut self, req: Request) -> MpiResult<Status> {
        self.complete(req)
    }

    /// `MPI_Waitall`: complete all given requests in order.
    ///
    /// Unlike a naive short-circuiting loop, a failure does **not**
    /// abandon the remaining requests: every request is driven to
    /// completion (freeing its slot) and the *first* error is reported
    /// afterwards, mirroring MPI's `MPI_ERR_IN_STATUS` contract. Use
    /// [`RankCtx::waitall_outcomes`] when the per-request results matter.
    pub fn waitall(&mut self, reqs: &[Request]) -> MpiResult<Vec<Status>> {
        let mut statuses = Vec::with_capacity(reqs.len());
        let mut first_err = None;
        for outcome in self.waitall_outcomes(reqs) {
            match outcome {
                Ok(st) => statuses.push(st),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(statuses),
        }
    }

    /// Complete all given requests in order, reporting each request's own
    /// outcome. Every slot is freed regardless of individual failures —
    /// this is the primitive recovery code uses to learn which transfers
    /// of a failed exchange actually landed.
    pub fn waitall_outcomes(&mut self, reqs: &[Request]) -> Vec<MpiResult<Status>> {
        reqs.iter().map(|&r| self.complete(r)).collect()
    }

    /// `MPI_Waitany`: block until *some* request in the list completes and
    /// return its index and status. Completed eager sends win immediately;
    /// otherwise the first (in list order) receive with a matching
    /// delivered message completes. A revocation or a death notice for a
    /// peer a listed receive is directed at ends the wait with an error
    /// rather than a hang — the failed request's slot is freed.
    pub fn waitany(&mut self, reqs: &[Request]) -> MpiResult<(usize, Status)> {
        if reqs.is_empty() {
            return Err(MpiError::InvalidArg(
                "waitany needs at least one request".to_string(),
            ));
        }
        loop {
            self.absorb_arrivals();
            // anything completable right now? (eager sends, matched recvs)
            for (i, &r) in reqs.iter().enumerate() {
                if self.request_completable(r)? {
                    let st = self.complete(r)?;
                    return Ok((i, st));
                }
            }
            // fail fast instead of blocking forever: a revoked communicator
            // or a receive aimed at a known-dead peer can never complete
            self.check_comm()?;
            for (i, &r) in reqs.iter().enumerate() {
                if self.recv_target_dead(r) {
                    // completes through the p2p fail-fast path (clock
                    // converges on the exit instant, stats recorded, slot
                    // freed); if a message raced in it completes normally
                    return self.complete(r).map(|st| (i, st));
                }
            }
            // block for one more arrival, then re-scan
            if let Some(m) = self.await_arrival(ParkOp::Waitany(reqs.len()))? {
                self.pending.push_back(m);
            }
        }
    }

    /// `MPI_Testall`: complete *all* requests iff every one of them can
    /// complete without blocking; otherwise complete none and return
    /// `Ok(None)`. Two receives never claim the same delivered message —
    /// matching is counted with multiplicity, exactly as the subsequent
    /// in-order completion will consume the queue.
    pub fn testall(&mut self, reqs: &[Request]) -> MpiResult<Option<Vec<Status>>> {
        self.absorb_arrivals();
        let epoch = self.epoch;
        let mut claimed = vec![false; self.pending.len()];
        for &r in reqs {
            let (src, tag) = match self.requests.get(r.0).and_then(|o| o.as_ref()) {
                None => return Err(MpiError::InvalidArg(format!("dead request {r:?}"))),
                Some(PendingOp::SendDone) => continue,
                Some(
                    PendingOp::RecvBytes { src, tag, .. } | PendingOp::RecvTyped { src, tag, .. },
                ) => (*src, *tag),
            };
            let hit = self
                .pending
                .iter()
                .enumerate()
                .position(|(i, m)| !claimed[i] && m.matches(epoch, src, tag));
            match hit {
                Some(i) => claimed[i] = true,
                None => return Ok(None),
            }
        }
        // every request has its own matching message: in-order completion
        // cannot block (waitall still frees every slot if a fault-injected
        // receive errors out mid-way)
        self.waitall(reqs).map(Some)
    }

    /// Can `req` complete without blocking? (`SendDone`, or a receive with
    /// a matching message already queued.)
    fn request_completable(&mut self, req: Request) -> MpiResult<bool> {
        let (src, tag) = match self.requests.get(req.0).and_then(|o| o.as_ref()) {
            None => return Err(MpiError::InvalidArg(format!("dead request {req:?}"))),
            Some(PendingOp::SendDone) => return Ok(true),
            Some(PendingOp::RecvBytes { src, tag, .. } | PendingOp::RecvTyped { src, tag, .. }) => {
                (*src, *tag)
            }
        };
        Ok(self.peek_match(src, tag))
    }

    /// Is `req` a receive whose source can never send again? (directed at
    /// a known-dead peer, or a wildcard while any current member is dead —
    /// ULFM `MPI_ANY_SOURCE` semantics.)
    fn recv_target_dead(&self, req: Request) -> bool {
        match self.requests.get(req.0).and_then(|o| o.as_ref()) {
            Some(PendingOp::RecvBytes { src, .. } | PendingOp::RecvTyped { src, .. }) => {
                self.dead_recv_target(*src).is_some()
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{World, WorldConfig};

    #[test]
    fn isend_irecv_roundtrip() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(32)?;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &[9u8; 32])?;
                let r = ctx.isend_bytes(buf, 32, 1, 4)?;
                ctx.wait(r)?;
                Ok(0)
            } else {
                let r = ctx.irecv_bytes(buf, 32, Some(0), Some(4))?;
                let st = ctx.wait(r)?;
                assert_eq!(st.bytes, 32);
                assert_eq!(ctx.gpu.memory().peek(buf, 32)?, vec![9u8; 32]);
                Ok(1)
            }
        })
        .unwrap();
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn waitall_completes_in_post_order() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            if ctx.rank == 0 {
                let buf = ctx.gpu.host_alloc(1)?;
                for i in 0..4u8 {
                    ctx.gpu.memory().poke(buf, &[i])?;
                    ctx.send_bytes(buf, 1, 1, 0)?;
                }
                Ok(vec![])
            } else {
                let bufs: Vec<_> = (0..4).map(|_| ctx.gpu.host_alloc(1).unwrap()).collect();
                let reqs: Vec<_> = bufs
                    .iter()
                    .map(|&b| ctx.irecv_bytes(b, 1, Some(0), Some(0)).unwrap())
                    .collect();
                ctx.waitall(&reqs)?;
                let got: Vec<u8> = bufs
                    .iter()
                    .map(|&b| ctx.gpu.memory().peek(b, 1).unwrap()[0])
                    .collect();
                Ok(got)
            }
        })
        .unwrap();
        assert_eq!(results[1], vec![0, 1, 2, 3]);
    }

    #[test]
    fn test_polls_without_blocking() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(8)?;
            if ctx.rank == 0 {
                // receive first posted before the send happens
                let r = ctx.irecv_bytes(buf, 8, Some(1), Some(0))?;
                let first_poll = ctx.test(r)?.is_some();
                // tell rank 1 we're ready, then poll to completion
                ctx.barrier();
                let mut polls = 0u64;
                let st = loop {
                    if let Some(st) = ctx.test(r)? {
                        break st;
                    }
                    polls += 1;
                    std::thread::yield_now();
                };
                assert_eq!(st.bytes, 8);
                Ok((first_poll, polls < u64::MAX))
            } else {
                ctx.barrier();
                ctx.gpu.memory().poke(buf, &[3u8; 8])?;
                ctx.send_bytes(buf, 8, 0, 0)?;
                Ok((false, true))
            }
        })
        .unwrap();
        // the pre-send poll must not have completed
        assert!(!results[0].0);
    }

    #[test]
    fn typed_isend_irecv() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let dt = ctx.type_vector(4, 2, 4, crate::consts::MPI_BYTE)?;
            ctx.type_commit_native(dt)?;
            let buf = ctx.gpu.malloc(16)?;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &(0..16).collect::<Vec<u8>>())?;
                let r = ctx.isend(buf, 1, dt, 1, 0)?;
                ctx.wait(r)?;
                Ok(vec![])
            } else {
                let r = ctx.irecv(buf, 1, dt, Some(0), Some(0))?;
                ctx.wait(r)?;
                let got = ctx.gpu.memory().peek(buf, 16)?;
                assert_eq!(&got[0..2], &[0, 1]);
                assert_eq!(&got[4..6], &[4, 5]);
                Ok(got)
            }
        })
        .unwrap();
        assert_eq!(results[1].len(), 16);
    }

    #[test]
    fn irecv_requires_commit() {
        let cfg = WorldConfig::summit(1);
        let mut ctx = crate::runtime::RankCtx::standalone(&cfg);
        let dt = ctx.type_vector(2, 1, 2, crate::consts::MPI_BYTE).unwrap();
        let buf = ctx.gpu.host_alloc(8).unwrap();
        assert_eq!(
            ctx.irecv(buf, 1, dt, None, None).err(),
            Some(MpiError::NotCommitted)
        );
    }

    #[test]
    fn double_wait_is_an_error() {
        let cfg = WorldConfig::summit(1);
        let mut ctx = crate::runtime::RankCtx::standalone(&cfg);
        let buf = ctx.gpu.host_alloc(4).unwrap();
        let r = ctx.isend_bytes(buf, 4, 0, 0).unwrap();
        ctx.wait(r).unwrap();
        assert!(matches!(ctx.wait(r), Err(MpiError::InvalidArg(_))));
        // clean up the self-message
        ctx.recv_bytes(buf, 4, Some(0), Some(0)).unwrap();
    }

    #[test]
    fn waitall_outcomes_completes_every_request_despite_failure() {
        use crate::fault::FaultPlan;
        use gpu_sim::SimTime;

        // rank 2 is dead before rank 0 waits: the receive aimed at it
        // fails, but the receive from rank 1 still completes and neither
        // request slot leaks
        let plan = FaultPlan::parse("exit=2@5us").unwrap();
        let cfg = WorldConfig::summit(3).with_faults(plan);
        let results = World::run(&cfg, |ctx| {
            ctx.clock.advance(SimTime::from_us(10));
            match ctx.rank {
                1 => {
                    let buf = ctx.gpu.host_alloc(4)?;
                    ctx.gpu.memory().poke(buf, &[7u8; 4])?;
                    ctx.send_bytes(buf, 4, 0, 5)?;
                    Ok(true)
                }
                2 => Ok(true), // scheduled dead; does nothing
                _ => {
                    let a = ctx.gpu.host_alloc(4)?;
                    let b = ctx.gpu.host_alloc(4)?;
                    let r_dead = ctx.irecv_bytes(a, 4, Some(2), Some(5))?;
                    let r_ok = ctx.irecv_bytes(b, 4, Some(1), Some(5))?;
                    let outcomes = ctx.waitall_outcomes(&[r_dead, r_ok]);
                    assert_eq!(outcomes[0], Err(MpiError::PeerGone));
                    assert_eq!(outcomes[1].as_ref().map(|st| st.bytes), Ok(4));
                    assert_eq!(ctx.gpu.memory().peek(b, 4)?, vec![7u8; 4]);
                    // both slots were freed even though one errored
                    assert!(matches!(ctx.wait(r_dead), Err(MpiError::InvalidArg(_))));
                    assert!(matches!(ctx.wait(r_ok), Err(MpiError::InvalidArg(_))));
                    // waitall over a failing set reports the error but
                    // never hangs on the survivors
                    let r2 = ctx.irecv_bytes(a, 4, Some(2), Some(6))?;
                    assert_eq!(ctx.waitall(&[r2]), Err(MpiError::PeerGone));
                    assert!(matches!(ctx.wait(r2), Err(MpiError::InvalidArg(_))));
                    Ok(true)
                }
            }
        })
        .unwrap();
        assert_eq!(results, vec![true; 3]);
    }

    #[test]
    fn waitany_returns_the_completable_request() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(8)?;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &[1u8; 8])?;
                ctx.send_bytes(buf, 8, 1, 7)?;
                Ok(0)
            } else {
                let other = ctx.gpu.host_alloc(8)?;
                // request 0 never completes in this test; request 1 will
                let r0 = ctx.irecv_bytes(other, 8, Some(0), Some(99))?;
                let r1 = ctx.irecv_bytes(buf, 8, Some(0), Some(7))?;
                let (idx, st) = ctx.waitany(&[r0, r1])?;
                assert_eq!(idx, 1);
                assert_eq!(st.bytes, 8);
                // the unmatched request is still live
                assert_eq!(ctx.test(r0)?, None);
                Ok(1)
            }
        })
        .unwrap();
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn waitany_prefers_completed_sends() {
        let cfg = WorldConfig::summit(1);
        let mut ctx = crate::runtime::RankCtx::standalone(&cfg);
        let buf = ctx.gpu.host_alloc(4).unwrap();
        let never = ctx.irecv_bytes(buf, 4, Some(0), Some(9)).unwrap();
        let send = ctx.isend_bytes(buf, 4, 0, 0).unwrap();
        let (idx, _) = ctx.waitany(&[never, send]).unwrap();
        assert_eq!(idx, 1);
        assert!(ctx.waitany(&[]).is_err());
        // clean up the self-message
        ctx.recv_bytes(buf, 4, Some(0), Some(0)).unwrap();
    }

    #[test]
    fn testall_is_all_or_none_with_claim_multiplicity() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let buf = ctx.gpu.host_alloc(4)?;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &[5u8; 4])?;
                ctx.send_bytes(buf, 4, 1, 3)?;
                ctx.barrier(); // message #1 is now visible to rank 1
                ctx.barrier(); // rank 1 has run its None assertion
                ctx.send_bytes(buf, 4, 1, 3)?;
                Ok(0)
            } else {
                let a = ctx.gpu.host_alloc(4)?;
                let b = ctx.gpu.host_alloc(4)?;
                let r0 = ctx.irecv_bytes(a, 4, Some(0), Some(3))?;
                let r1 = ctx.irecv_bytes(b, 4, Some(0), Some(3))?;
                ctx.barrier();
                // one delivered message cannot satisfy two receives
                assert!(ctx.testall(&[r0, r1])?.is_none());
                ctx.barrier();
                let statuses = loop {
                    if let Some(sts) = ctx.testall(&[r0, r1])? {
                        break sts;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(statuses.len(), 2);
                assert!(statuses.iter().all(|st| st.bytes == 4));
                // both requests were consumed by the successful testall
                assert!(matches!(ctx.wait(r0), Err(MpiError::InvalidArg(_))));
                assert!(matches!(ctx.wait(r1), Err(MpiError::InvalidArg(_))));
                Ok(1)
            }
        })
        .unwrap();
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn test_routes_control_traffic_through_sift() {
        use crate::fault::FaultPlan;

        let plan = FaultPlan::parse("exit=1@5us").unwrap();
        let cfg = WorldConfig::summit(2).with_faults(plan);
        World::run(&cfg, |ctx| {
            if ctx.rank == 1 {
                // dies when its body returns; the runtime then floods the
                // death notice
                return Ok(true);
            }
            let buf = ctx.gpu.host_alloc(4)?;
            let r = ctx.irecv_bytes(buf, 4, None, None)?;
            // poll until the death notice arrives: sift must absorb it
            // into the known failures instead of leaving it in the
            // matchable queue
            while ctx.known_failures().is_empty() {
                assert!(ctx.test(r)?.is_none());
                std::thread::yield_now();
            }
            assert!(ctx
                .pending
                .iter()
                .all(|m| m.tag >= crate::p2p::MIN_USER_TAG));
            Ok(true)
        })
        .unwrap();
    }
}
