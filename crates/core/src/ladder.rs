//! The degradation ladder as data: the rungs a transient failure can take
//! away from a datatype, one quarantine table over them, and the one body
//! every step-down runs.
//!
//! A send steps down [`Method::LADDER`] — most GPU-dependent first — and,
//! past its last rung, falls through to the system MPI, which needs no
//! TEMPI resources; a pack or unpack steps from the kernel path to the CPU
//! copy, and so does a started pipelined transfer, on either side, for its
//! remaining chunks. A rung that failed transiently is quarantined for its
//! datatype: a send rung for [`QUARANTINE_TTL`] of virtual time, the kernel
//! rung until the interposed `MPI_Type_free` releases every rung of the
//! type. Every step-down is counted and appended to the rank's
//! [`DegradeEvent`] log. A failed peer or a revoked communicator is no
//! rung's problem: those errors propagate to the recovery path.

use std::collections::HashMap;

use gpu_sim::SimTime;
use mpi_sim::{Datatype, DegradeEvent, MpiError, RankCtx};

use crate::config::Method;
use crate::tempi::Tempi;

/// How long (virtual time) a transiently-failed send method stays off the
/// ladder for a datatype. Transient faults are load- and state-dependent;
/// a permanent ban would pin a degraded method choice long after the fault
/// cleared, so the rung is re-attempted once the quarantine expires (and
/// re-quarantined if it fails again).
pub const QUARANTINE_TTL: SimTime = SimTime::from_ms(50);

/// A rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// A send method of [`Method::LADDER`].
    Send(Method),
    /// The kernel pack/unpack path; its step-down is the CPU copy.
    Kernel,
}

/// The rungs that failed transiently, per datatype, with the virtual
/// instant each quarantine lapses.
#[derive(Debug, Default)]
pub(crate) struct Quarantine(HashMap<(Datatype, Rung), SimTime>);

impl Quarantine {
    /// Is `rung` quarantined for `dt` at virtual time `now`?
    pub(crate) fn holds(&self, dt: Datatype, rung: Rung, now: SimTime) -> bool {
        self.0.get(&(dt, rung)).is_some_and(|&until| now < until)
    }

    /// The first rung of [`Method::LADDER`] at or after index `from` that
    /// is not quarantined for `dt`.
    pub(crate) fn next_rung(&self, dt: Datatype, from: usize, now: SimTime) -> Option<usize> {
        let held = |i: usize| self.holds(dt, Rung::Send(Method::LADDER[i]), now);
        (from..Method::LADDER.len()).find(|&i| !held(i))
    }

    /// Forget every rung quarantined for `dt`, whose handle is being freed.
    pub(crate) fn release(&mut self, dt: Datatype) {
        self.0.retain(|&(held, _), _| held != dt);
    }
}

impl Tempi {
    /// Step down from `rung` for `dt` after the transient failure `err`:
    /// quarantine the rung, count the step-down and log it as `from -> to`.
    pub(crate) fn degrade(
        &mut self,
        ctx: &mut RankCtx,
        dt: Datatype,
        rung: Rung,
        (from, to): (&str, &str),
        err: &MpiError,
    ) {
        let at = ctx.clock.now();
        let (until, steps) = match rung {
            Rung::Send(_) => (at + QUARANTINE_TTL, &mut self.stats.degraded_sends),
            Rung::Kernel => (SimTime::from_ps(u64::MAX), &mut self.stats.degraded_xfers),
        };
        *steps += 1;
        self.quarantine.0.insert((dt, rung), until);
        ctx.faults.stats.record(DegradeEvent {
            at,
            datatype: ctx.describe(dt),
            from: from.to_string(),
            to: to.to_string(),
            cause: err.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TempiConfig;
    use crate::interpose::InterposedMpi;
    use crate::tempi::tests::{configured, fill, oracle, soa};
    use mpi_sim::consts::MPI_BYTE;
    use mpi_sim::PAYLOAD_POOL_BYTES;
    use mpi_sim::{FaultPlan, FaultSite, RankExit, ScopedFault, World, WorldConfig};

    #[test]
    fn the_kernel_rung_is_held_for_good_and_a_send_rung_for_its_ttl() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let mut tempi = configured(|_| {});
        let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
        let err = MpiError::Internal("injected".into());
        tempi.degrade(&mut ctx, dt, Rung::Kernel, ("Kernel", "HostCopy"), &err);
        let device = Rung::Send(Method::Device);
        tempi.degrade(&mut ctx, dt, device, ("Device", "OneShot"), &err);
        let (now, q) = (ctx.clock.now(), &tempi.quarantine);
        // the ladder steps past the held Device rung to OneShot, until the
        // quarantine lapses; the kernel path stays held
        assert_eq!(q.next_rung(dt, 1, now), Some(2));
        assert_eq!(q.next_rung(dt, 1, now + QUARANTINE_TTL), Some(1));
        assert!(q.holds(dt, Rung::Kernel, now + QUARANTINE_TTL * 1000));
        let s = tempi.stats;
        assert_eq!((s.degraded_xfers, s.degraded_sends), (1, 1));
        let steps: Vec<_> = ctx
            .faults
            .stats
            .events
            .iter()
            .map(|e| (&*e.from, &*e.to))
            .collect();
        assert_eq!(steps, [("Kernel", "HostCopy"), ("Device", "OneShot")]);
    }

    #[test]
    fn send_degrades_to_oneshot_on_device_oom() {
        // a device too small for the intermediate buffer: the ladder must
        // step Device -> OneShot (mapped host memory needs no device
        // bytes), log exactly one downgrade, and quarantine Device so the
        // second send goes straight to OneShot without a new event
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        cfg.device.global_mem_bytes = 160 << 10; // 160 KiB device
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|c| c.force_method = Some(Method::Device));
            let dt = ctx.type_vector(1024, 64, 128, MPI_BYTE)?; // 64 KiB data
            tempi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(128 << 10)?; // leaves only 32 KiB free
            if ctx.rank == 0 {
                let m1 = tempi.send(ctx, buf, 1, dt, 1, 0)?;
                let logged = ctx.faults.stats.events.len() == 1
                    && ctx.faults.stats.events[0].from == "Device"
                    && ctx.faults.stats.events[0].to == "OneShot";
                let m2 = tempi.send(ctx, buf, 1, dt, 1, 1)?;
                Ok(m1 == Some(Method::OneShot)
                    && m2 == Some(Method::OneShot)
                    && logged
                    && ctx.faults.stats.events.len() == 1 // quarantine is silent
                    && tempi.stats.degraded_sends == 1)
            } else {
                let (st1, m1) = tempi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                let (st2, _) = tempi.recv(ctx, buf, 1, dt, Some(0), Some(1))?;
                Ok(st1.bytes == (64 << 10)
                    && st2.bytes == (64 << 10)
                    && m1 == Some(Method::OneShot))
            }
        })
        .unwrap();
        assert!(results[0], "rank 0 must degrade Device -> OneShot cleanly");
        assert!(results[1], "rank 1 must receive both degraded sends");
    }

    #[test]
    fn a_send_fault_before_the_train_is_retried_and_the_cut_steps_down_with_its_rung() {
        // a self-send of the soa object, which the model cuts
        let run = |faults: &str, device_bytes: usize| {
            let mut cfg = WorldConfig::summit(1).with_faults(FaultPlan::parse(faults).unwrap());
            cfg.device.global_mem_bytes = device_bytes;
            let mut ctx = RankCtx::standalone(&cfg);
            let dt = soa(&mut ctx).unwrap();
            let mut tempi = configured(|_| {});
            tempi.type_commit(&mut ctx, dt).unwrap();
            let span = (7 << 16) + 2048;
            let (src, dst) = (ctx.gpu.malloc(span).unwrap(), ctx.gpu.malloc(span).unwrap());
            ctx.gpu.memory().poke(src, &fill(span)).unwrap();
            (ctx, tempi, dt, src, dst, span)
        };

        // the train's one send call faults once: the link retries it, and
        // the train lands whole one backoff later — no step-down
        let (mut quiet, mut clean, dt, src, ..) = run("seed=1", 1 << 30);
        clean.send(&mut quiet, src, 1, dt, 0, 0).unwrap();
        let (mut ctx, mut tempi, dt, src, dst, span) = run("send@0,backoff=10us", 1 << 30);
        assert_eq!(
            tempi.send(&mut ctx, src, 1, dt, 0, 0),
            Ok(Some(Method::Device))
        );
        assert_eq!(ctx.clock.now(), quiet.clock.now() + SimTime::from_us(10));
        assert_eq!(
            (ctx.faults.stats.send_faults, tempi.stats.degraded_sends),
            (1, 0)
        );
        tempi.recv(&mut ctx, dst, 1, dt, Some(0), Some(0)).unwrap();
        let want = oracle(&ctx, &fill(span), (1, dt), (1, dt), span);
        assert_eq!(ctx.gpu.memory().peek(dst, span).unwrap(), want);
        // one the retries cannot absorb fails the link: the recovery
        // path's business, not the ladder's
        let (mut ctx, mut tempi, dt, src, ..) = run("send=1.0,retries=0", 1 << 30);
        let failed = tempi.send(&mut ctx, src, 1, dt, 0, 0);
        assert!(
            matches!(failed, Err(MpiError::CommFailed { .. })),
            "{failed:?}"
        );
        assert_eq!(
            (tempi.stats.comm_failures, tempi.stats.degraded_sends),
            (1, 0)
        );
        assert!(!tempi
            .quarantine
            .holds(dt, Rung::Send(Method::Device), ctx.clock.now()));

        // the cut is the device rung: a device too small for a packed
        // send's lease degrades a forced Device to OneShot and quarantines
        // the rung, so the type's cut steps down to OneShot with it — and,
        // needing no device memory, is back once the quarantine lapses
        let (mut ctx, mut tempi, dt, src, dst, span) = run("seed=1", 2 * span + (8 << 10));
        tempi.config.force_method = Some(Method::Device);
        assert_eq!(
            tempi.send(&mut ctx, src, 1, dt, 0, 0),
            Ok(Some(Method::OneShot))
        );
        tempi.config.force_method = None;
        assert_eq!(
            tempi.send(&mut ctx, src, 1, dt, 0, 1),
            Ok(Some(Method::OneShot))
        );
        ctx.clock.advance(QUARANTINE_TTL);
        assert_eq!(
            tempi.send(&mut ctx, src, 1, dt, 0, 2),
            Ok(Some(Method::Device))
        );
        assert_eq!(tempi.last_choice().and_then(|c| c.chunk), Some(2048));
        for tag in 0..3 {
            tempi
                .recv(&mut ctx, dst, 1, dt, Some(0), Some(tag))
                .unwrap();
        }
        let want = oracle(&ctx, &fill(span), (1, dt), (1, dt), span);
        assert_eq!(ctx.gpu.memory().peek(dst, span).unwrap(), want);
        assert_eq!(
            (tempi.stats.degraded_sends, ctx.faults.stats.events.len()),
            (1, 1)
        );
    }

    #[test]
    fn a_fault_before_the_first_part_steps_down_and_after_it_finishes_on_the_cpu_copy() {
        // a self-send on one rank; kernel ordinal 0 is the first chunk's
        // pack, ordinal 1 the second's
        let run = |at_call: u64| {
            let mut plan = FaultPlan::default();
            plan.scoped.push(ScopedFault {
                rank: 0,
                site: FaultSite::Kernel,
                at_call,
            });
            let mut ctx = RankCtx::standalone(&WorldConfig::summit(1).with_faults(plan));
            // forced: to itself a rank would not pipeline
            let mut tempi = configured(|c| c.force_method = Some(Method::Pipelined));
            let dt = ctx.type_vector(4096, 512, 1024, MPI_BYTE).unwrap(); // 2 MiB
            tempi.type_commit(&mut ctx, dt).unwrap();
            let span = 4096 * 1024;
            let buf = ctx.gpu.malloc(span).unwrap();
            ctx.gpu.memory().poke(buf, &fill(span)).unwrap();
            let sent = tempi.send(&mut ctx, buf, 1, dt, 0, 0);
            (ctx, tempi, sent, dt, span)
        };

        let (mut ctx, mut tempi, sent, dt, span) = run(0);
        assert_eq!(sent, Ok(Some(Method::Device)), "Pipelined -> Device");
        assert_eq!(tempi.stats.degraded_sends, 1);
        assert_eq!(ctx.faults.stats.events.len(), 1);
        assert_eq!(ctx.faults.stats.events[0].from, "Pipelined");
        assert_eq!(ctx.faults.stats.events[0].to, "Device");
        assert!(tempi
            .quarantine
            .holds(dt, Rung::Send(Method::Pipelined), ctx.clock.now()));
        let dst = ctx.gpu.malloc(span).unwrap();
        let (st, m) = tempi.recv(&mut ctx, dst, 1, dt, Some(0), Some(0)).unwrap();
        assert_eq!((st.bytes, m), (2 << 20, Some(Method::Device)));
        let got = ctx.gpu.memory().peek(dst, span).unwrap();
        assert_eq!(got, oracle(&ctx, &fill(span), (1, dt), (1, dt), span));
        assert_eq!(tempi.pool.outstanding(), 0);
        assert!(ctx.pooled_payload_bytes() <= PAYLOAD_POOL_BYTES);

        // mid-transfer there is no stepping down: the chunks left are
        // packed by host code, and the receiver gets the whole transfer
        let (mut ctx, mut tempi, sent, dt, span) = run(1);
        assert_eq!(sent, Ok(Some(Method::Pipelined)));
        assert_eq!(tempi.stats.degraded_sends, 0, "no step-down mid-transfer");
        let (steps, s) = (&ctx.faults.stats.events, tempi.stats);
        assert_eq!(
            (steps.len(), &*steps[0].from, &*steps[0].to),
            (1, "Pipelined", "HostCopy")
        );
        assert_eq!((s.degraded_xfers, s.pipelined_sends), (1, 1));
        assert!(tempi.quarantine.holds(dt, Rung::Kernel, ctx.clock.now()));
        let dst = ctx.gpu.malloc(span).unwrap();
        let (st, m) = tempi.recv(&mut ctx, dst, 1, dt, Some(0), Some(0)).unwrap();
        assert_eq!((st.bytes, m), (2 << 20, Some(Method::Pipelined)));
        let got = ctx.gpu.memory().peek(dst, span).unwrap();
        assert_eq!(got, oracle(&ctx, &fill(span), (1, dt), (1, dt), span));
        assert_eq!(ctx.pending_messages() + ctx.inbox_backlog(), 0);
        assert_eq!(tempi.pool.outstanding(), 0);
        assert!(ctx.pooled_payload_bytes() <= PAYLOAD_POOL_BYTES);
    }

    /// Two pipelined transfers of the same 4 MiB object in 16 parts, rank 0
    /// to rank 1 with tag 7, under the one-shot `fault`. Per rank: whether
    /// each receive returned the oracle's bytes as one pipelined transfer,
    /// the messages left unreceived, the step-downs logged and whether the
    /// kernel rung is quarantined at the end.
    fn two_pipelined_transfers(fault: ScopedFault) -> Vec<(Vec<bool>, usize, Vec<String>, bool)> {
        let mut plan = FaultPlan::default();
        plan.scoped.push(fault);
        let cfg = WorldConfig::summit(2).with_faults(plan);
        World::run(&cfg, |ctx| {
            let mut tempi = configured(|c| {
                c.force_method = Some(Method::Pipelined);
                c.pipeline_chunk = Some(256 << 10);
            });
            let dt = ctx.type_vector(1024, 4096, 8192, MPI_BYTE)?;
            tempi.type_commit(ctx, dt)?;
            let span = 1023 * 8192 + 4096;
            let buf = ctx.gpu.malloc(span)?;
            let mut received = vec![];
            for _ in 0..2 {
                if ctx.rank == 0 {
                    ctx.gpu.memory().poke(buf, &fill(span))?;
                    tempi.send(ctx, buf, 1, dt, 1, 7)?;
                } else {
                    ctx.gpu.memory().poke(buf, &vec![0; span])?;
                    let (st, m) = tempi.recv(ctx, buf, 1, dt, Some(0), Some(7))?;
                    let want = oracle(ctx, &fill(span), (1, dt), (1, dt), span);
                    received.push(
                        (st.bytes, m) == (4 << 20, Some(Method::Pipelined))
                            && ctx.gpu.memory().peek(buf, span)? == want,
                    );
                }
            }
            let left = ctx.pending_messages() + ctx.inbox_backlog();
            let steps = ctx.faults.stats.events.iter();
            let steps = steps.map(|e| format!("{} -> {}", e.from, e.to)).collect();
            let held = tempi.quarantine.holds(dt, Rung::Kernel, ctx.clock.now());
            Ok((received, left, steps, held))
        })
        .unwrap()
    }

    /// [`two_pipelined_transfers`] with `site`'s third call failing on
    /// `rank`: both receives land the oracle's bytes, nothing is left in
    /// the inbox, and the faulted rank alone steps to the CPU copy once.
    fn a_fault_part_way_through_finishes_on_the_cpu_copy(rank: usize, site: FaultSite) {
        let fault = ScopedFault {
            rank,
            site,
            at_call: 2,
        };
        let ranks = two_pipelined_transfers(fault);
        assert_eq!(ranks[1].0, [true, true], "{fault:?}");
        assert_eq!(ranks[1].1, 0, "{fault:?}: parts left behind");
        for (r, (_, _, steps, held)) in ranks.iter().enumerate() {
            let want: &[&str] = if r == rank {
                &["Pipelined -> HostCopy"]
            } else {
                &[]
            };
            assert_eq!(*steps, want, "{fault:?}: rank {r}");
            assert_eq!(*held, r == rank, "{fault:?}: rank {r}");
        }
    }

    #[test]
    fn a_receiver_kernel_fault_part_way_through_a_pipeline_finishes_on_the_cpu_copy() {
        a_fault_part_way_through_finishes_on_the_cpu_copy(1, FaultSite::Kernel);
    }

    #[test]
    fn a_receiver_copy_fault_part_way_through_a_pipeline_finishes_on_the_cpu_copy() {
        a_fault_part_way_through_finishes_on_the_cpu_copy(1, FaultSite::Copy);
    }

    #[test]
    fn a_sender_kernel_fault_part_way_through_a_pipeline_finishes_on_the_cpu_copy() {
        a_fault_part_way_through_finishes_on_the_cpu_copy(0, FaultSite::Kernel);
    }

    #[test]
    fn the_interposed_free_releases_every_rung_of_the_type() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
        let kept = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
        let err = MpiError::Internal("injected".into());
        for t in [dt, kept] {
            mpi.type_commit(&mut ctx, t).unwrap();
            mpi.tempi
                .degrade(&mut ctx, t, Rung::Kernel, ("Kernel", "HostCopy"), &err);
            let device = Rung::Send(Method::Device);
            mpi.tempi
                .degrade(&mut ctx, t, device, ("Device", "OneShot"), &err);
        }
        mpi.type_free(&mut ctx, dt).unwrap();
        let held = |t: Datatype| mpi.tempi.quarantine.0.keys().filter(|k| k.0 == t).count();
        assert_eq!((held(dt), held(kept)), (0, 2));
    }

    #[test]
    fn a_communicator_failure_is_counted_once_whichever_stage_meets_it() {
        let world = |exit_at: SimTime| {
            let plan = FaultPlan {
                rank_exits: vec![RankExit {
                    rank: 0,
                    at: exit_at,
                }],
                ..FaultPlan::default()
            };
            RankCtx::standalone(&WorldConfig::summit(1).with_faults(plan))
        };

        // the system-MPI fall-through: a contiguous send to a dead peer
        let mut ctx = world(SimTime::from_us(5));
        let mut tempi = configured(|_| {});
        let dt = ctx.type_contiguous(1024, MPI_BYTE).unwrap();
        tempi.type_commit(&mut ctx, dt).unwrap();
        let buf = ctx.gpu.malloc(1024).unwrap();
        ctx.clock.advance(SimTime::from_us(10));
        let sent = tempi.send(&mut ctx, buf, 1, dt, 0, 0);
        assert_eq!(sent, Err(MpiError::PeerGone));
        assert_eq!((tempi.stats.comm_failures, tempi.stats.fallbacks), (1, 1));
        assert_eq!(tempi.pool.outstanding(), 0);

        // a pipelined self-transfer whose sender exits while the parts are
        // being received
        let span = 4096 * 1024;
        let run = |exit_at: SimTime| {
            let mut ctx = world(exit_at);
            let mut tempi = configured(|c| c.force_method = Some(Method::Pipelined));
            let dt = ctx.type_vector(4096, 512, 1024, MPI_BYTE).unwrap(); // 2 MiB
            tempi.type_commit(&mut ctx, dt).unwrap();
            let src = ctx.gpu.malloc(span).unwrap();
            ctx.gpu.memory().poke(src, &fill(span)).unwrap();
            let dst = ctx.gpu.malloc(span).unwrap();
            ctx.gpu.memory().poke(dst, &vec![0u8; span]).unwrap();
            let sent = tempi.send(&mut ctx, src, 1, dt, 0, 0);
            assert_eq!(sent, Ok(Some(Method::Pipelined)));
            let sent_at = ctx.clock.now();
            let got = tempi.recv(&mut ctx, dst, 1, dt, Some(0), Some(0));
            let landed = ctx.gpu.memory().peek(dst, span).unwrap();
            (ctx, tempi, sent_at, got, landed, dt)
        };
        let (ctx, tempi, sent_at, got, whole, dt) = run(SimTime::from_ms(100));
        assert_eq!(
            got.map(|(st, m)| (st.bytes, m)),
            Ok((2 << 20, Some(Method::Pipelined)))
        );
        assert_eq!(whole, oracle(&ctx, &fill(span), (1, dt), (1, dt), span));
        assert_eq!(tempi.stats.comm_failures, 0);
        let half_way = SimTime::from_ps((sent_at.as_ps() + ctx.clock.now().as_ps()) / 2);

        let (ctx, tempi, _, got, landed, _) = run(half_way);
        assert_eq!(got, Err(MpiError::PeerGone));
        assert!(ctx.clock.now() >= half_way);
        // between two parts: the first chunk was unpacked, the last never came
        assert_eq!(landed[..512], whole[..512]);
        assert!(landed[span - 1024..].iter().all(|&b| b == 0));
        assert_eq!(tempi.stats.comm_failures, 1);
        assert_eq!(tempi.stats.pipelined_recvs, 0);
        assert_eq!(tempi.pool.outstanding(), 0);
    }

    #[test]
    fn quarantine_expires_and_the_rung_is_retried() {
        // Same OOM world as send_degrades_to_oneshot_on_device_oom, but
        // after the quarantine TTL lapses the ladder must retry Device and
        // log a *second* degradation when it fails again.
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        cfg.device.global_mem_bytes = 160 << 10;
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|c| c.force_method = Some(Method::Device));
            let dt = ctx.type_vector(1024, 64, 128, MPI_BYTE)?; // 64 KiB
            tempi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(128 << 10)?;
            if ctx.rank == 0 {
                tempi.send(ctx, buf, 1, dt, 1, 0)?; // degrade + quarantine
                let e1 = ctx.faults.stats.events.len();
                tempi.send(ctx, buf, 1, dt, 1, 1)?; // silent: still banned
                let e2 = ctx.faults.stats.events.len();
                ctx.clock.advance(QUARANTINE_TTL + SimTime::from_ms(1));
                tempi.send(ctx, buf, 1, dt, 1, 2)?; // retried, fails anew
                let e3 = ctx.faults.stats.events.len();
                Ok((e1, e2, e3, tempi.stats.degraded_sends))
            } else {
                tempi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                tempi.recv(ctx, buf, 1, dt, Some(0), Some(1))?;
                tempi.recv(ctx, buf, 1, dt, Some(0), Some(2))?;
                Ok((0, 0, 0, 0))
            }
        })
        .unwrap();
        assert_eq!(results[0], (1, 1, 2, 2));
    }
}
