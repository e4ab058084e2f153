//! Scheduler scale and robustness tests: the discrete-event runtime
//! must carry a four-digit rank count through a real workload (the CI
//! smoke for the `bench scale` sweep), surface one rank's panic as a
//! typed error without discarding the world, and keep send storms inside
//! the bounded-inbox high-water mark — parking senders instead of growing
//! memory, and reporting a *genuine* buffer-cycle deadlock structurally.

use mpi_sim::{MpiError, World, WorldConfig, INBOX_HWM};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{HaloConfig, HaloExchanger};

#[test]
fn stencil_smoke_at_1024_ranks() {
    // The CI scale smoke: a full 26-direction halo exchange at 1,024
    // ranks — two orders of magnitude past what a thread per rank can
    // schedule — with every ghost cell verified.
    let cfg = WorldConfig::summit(1024);
    let results = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?;
        ex.verify_ghosts(ctx)
    })
    .expect("1,024-rank world");
    assert_eq!(results.len(), 1024);
    assert!(results.iter().all(|&bad| bad == 0), "corrupt ghost cells");
}

#[test]
fn neighbor_exchange_clocks_replay_exactly() {
    // The sparse alltoallv's schedule is a function of the block lists
    // only — never of arrival order — so every rank's clock after two
    // 26-direction exchanges is the same in two runs.
    let clocks = || {
        World::run(&WorldConfig::summit(64), |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
            ex.fill(ctx)?;
            ex.exchange(ctx, &mut mpi)?;
            ex.exchange(ctx, &mut mpi)?;
            Ok((ctx.clock.now(), ex.verify_ghosts(ctx)?))
        })
        .expect("64-rank world")
    };
    let one = clocks();
    assert_eq!(one, clocks());
    assert!(one.iter().all(|&(_, bad)| bad == 0), "corrupt ghost cells");
}

#[test]
fn one_rank_panic_reports_the_rank() {
    let err = World::run(&WorldConfig::summit(4), |ctx| {
        if ctx.rank == 2 {
            panic!("rank 2 exploded");
        }
        Ok(ctx.rank)
    })
    .expect_err("a panicking rank must fail the world");
    match err {
        MpiError::RankPanicked { rank, message } => {
            assert_eq!(rank, 2);
            assert!(message.contains("exploded"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other:?}"),
    }
}

#[test]
fn send_storm_stays_inside_the_inbox_high_water_mark() {
    // Rank 0 fires twice the high-water mark's sends at a receiver that
    // drains slowly; the sender must park instead of queueing, so the
    // receiver never observes a backlog past the mark.
    const STORM: usize = 2 * INBOX_HWM;
    let results = World::run(&WorldConfig::summit(2), |ctx| {
        let buf = ctx.gpu.host_alloc(8)?;
        if ctx.rank == 0 {
            for i in 0..STORM {
                ctx.send_bytes(buf, 8, 1, i as i32)?;
            }
            Ok(0)
        } else {
            let mut deepest = 0;
            for i in 0..STORM {
                deepest = deepest.max(ctx.inbox_backlog());
                ctx.recv_bytes(buf, 8, Some(0), Some(i as i32))?;
            }
            Ok(deepest)
        }
    })
    .expect("bounded storm world");
    assert!(
        results[1] <= INBOX_HWM,
        "receiver saw a backlog of {} past the high-water mark {INBOX_HWM}",
        results[1]
    );
}

#[test]
fn mutual_storms_past_the_mark_are_a_structural_deadlock() {
    // Both ranks flood each other without ever receiving: with finite
    // buffers that is a true deadlock (each sender waits for inbox space
    // only the other's receive could create). The scheduler sees it
    // structurally — every fiber parked, event heap empty — and names the
    // backpressure parks in the verdict.
    let err = World::run(&WorldConfig::summit(2), |ctx| {
        let buf = ctx.gpu.host_alloc(8)?;
        let peer = 1 - ctx.rank;
        for _ in 0..INBOX_HWM + 1 {
            ctx.send_bytes(buf, 8, peer, 7)?;
        }
        Ok(())
    })
    .expect_err("mutual send storms past finite buffers must deadlock");
    match err {
        MpiError::Deadlock { ranks, ops } => {
            assert_eq!(ranks, vec![0, 1]);
            for op in &ops {
                assert!(
                    op.contains("send backpressure"),
                    "expected a backpressure park, got {op:?}"
                );
            }
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn messages_a_receive_passes_over_leave_the_high_water_mark() {
    // Rank 1 fills rank 0's inbox past the mark with tag-1 messages and
    // parks; rank 2's one tag-2 message then finds the inbox full and
    // parks too. Rank 0, whose clock is ahead so both senders run first,
    // receives rank 2's message: it passes over every message of rank 1's
    // on the way, and keeps them. The mark counts only the messages no
    // receive has examined yet, so passing over them releases both
    // senders and rank 2's message gets through. Then the kept messages
    // drain in the order they were sent.
    const MORE: usize = INBOX_HWM + 64;
    let results = World::run(&WorldConfig::summit(3), |ctx| {
        let buf = ctx.gpu.host_alloc(8)?;
        let mut order = Vec::new();
        match ctx.rank {
            0 => {
                ctx.clock.advance(gpu_sim::SimTime::from_us(1_000));
                ctx.recv_bytes(buf, 8, Some(2), Some(2))?;
                for _ in 0..MORE {
                    ctx.recv_bytes(buf, 8, Some(1), Some(1))?;
                    let seq = ctx.gpu.memory().peek(buf, 8)?;
                    order.push(u64::from_le_bytes(seq.try_into().unwrap()));
                }
            }
            1 => {
                for seq in 0..MORE as u64 {
                    ctx.gpu.memory().poke(buf, &seq.to_le_bytes())?;
                    ctx.send_bytes(buf, 8, 0, 1)?;
                }
            }
            _ => ctx.send_bytes(buf, 8, 0, 2)?,
        }
        Ok(order)
    })
    .expect("a receiver that passes over a full inbox must release its senders");
    assert!(
        results[0].iter().copied().eq(0..MORE as u64),
        "kept messages out of send order"
    );
}
