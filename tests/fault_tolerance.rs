//! Fault-injection integration tests across the whole stack.
//!
//! The contract under test: with a deterministic fault plan active,
//! (1) degradation preserves application bytes — a stencil halo exchange
//! under injected GPU faults produces the same grid as a fault-free run;
//! (2) replay is exact — the same seed yields identical degradation-event
//! logs, fault statistics, and virtual times; (3) an *inactive* plan is
//! free — same bytes and same virtual times as no plan at all.

mod common;

use common::pattern;
use gpu_sim::SimTime;
use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::pack_cpu;
use mpi_sim::{FaultPlan, MpiError, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{HaloConfig, HaloExchanger};

/// Run one TEMPI-interposed halo exchange; returns each rank's final grid
/// bytes, degradation-event count, and final virtual time in picoseconds.
fn exchange_under(cfg: &WorldConfig, n: usize) -> Vec<(Vec<u8>, usize, u64)> {
    World::run(cfg, move |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?;
        let bytes = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
        Ok((
            bytes,
            ctx.faults.stats.events.len(),
            ctx.clock.now().as_ps(),
        ))
    })
    .expect("world")
}

#[test]
fn halo_exchange_survives_kernel_kill_with_identical_bytes() {
    // kernel=1.0 kills every pack/unpack kernel launch; the ladder must
    // degrade to the CPU copy path on all ranks, and the resulting grids
    // must equal the fault-free run bit-for-bit.
    let mut cfg = WorldConfig::summit(4);
    cfg.net.ranks_per_node = 2;
    let clean = exchange_under(&cfg, 6);
    let faulty = exchange_under(
        &cfg.clone()
            .with_faults(FaultPlan::parse("kernel=1.0").unwrap()),
        6,
    );
    let degradations: usize = faulty.iter().map(|(_, e, _)| e).sum();
    assert!(degradations > 0, "the kernel kill must be observed");
    for (rank, ((a, _, _), (b, _, _))) in clean.iter().zip(faulty.iter()).enumerate() {
        assert_eq!(a, b, "rank {rank} grid bytes diverged under degradation");
    }
}

#[test]
fn same_seed_replays_identical_logs_and_virtual_times() {
    // Transient link faults + injected latency, all seeded: two runs must
    // agree on every degradation event, every counter, and the clock. CI
    // varies the seed (TEMPI_FAULT_SEED) to catch nondeterminism that a
    // single lucky seed would hide.
    let seed: u64 = std::env::var("TEMPI_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let run = || {
        let mut cfg = WorldConfig::summit(4);
        cfg.net.ranks_per_node = 2;
        let cfg = cfg.with_faults(
            FaultPlan::parse(&format!(
                "seed={seed},send=0.1,recv=0.05,retries=6,backoff=15us,delay=0.2:30us"
            ))
            .unwrap(),
        );
        World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
            ex.fill(ctx)?;
            ex.exchange(ctx, &mut mpi)?;
            ex.exchange(ctx, &mut mpi)?;
            let s = &ctx.faults.stats;
            let log: Vec<String> = s.events.iter().map(|e| e.to_string()).collect();
            Ok((
                ctx.clock.now().as_ps(),
                s.send_faults,
                s.recv_faults,
                s.retries,
                s.backoff_time.as_ps(),
                s.delays,
                s.delay_time.as_ps(),
                log,
            ))
        })
        .expect("world")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "seeded fault runs must replay exactly");
    let activity: u64 = a.iter().map(|r| r.1 + r.2 + r.5).sum();
    assert!(activity > 0, "the seeded plan must inject something");
}

#[test]
fn inactive_fault_plan_is_zero_cost() {
    // A plan with a seed but no fault sites must not perturb bytes or
    // virtual time relative to running with no plan at all.
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 2;
    let off = exchange_under(&cfg, 4);
    let inert = exchange_under(
        &cfg.clone().with_faults(FaultPlan::parse("seed=5").unwrap()),
        4,
    );
    assert_eq!(off, inert, "an inactive plan must be invisible");
}

#[test]
fn degraded_send_still_delivers_pack_oracle_bytes() {
    // alloc@1 kills exactly the sender's pooled device staging buffer
    // (alloc #0 is the application grid): the forced Device method must
    // degrade to OneShot, log the downgrade, and the receiver's bytes must
    // match the CPU pack oracle applied to the sender's pattern.
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 1;
    let cfg = cfg.with_faults(FaultPlan::parse("alloc@1").unwrap());
    let span = 15 * 24 + 8; // vector(16, 8, 24) footprint
    let results = World::run(&cfg, move |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig {
            force_method: Some(Method::Device),
            ..TempiConfig::default()
        });
        let dt = ctx.type_vector(16, 8, 24, MPI_BYTE)?;
        mpi.type_commit(ctx, dt)?;
        let buf = ctx.gpu.malloc(span)?; // device alloc #0 on every rank
        if ctx.rank == 0 {
            ctx.gpu.memory().poke(buf, &pattern(span))?;
            mpi.send(ctx, buf, 1, dt, 1, 0)?;
            let ev = &ctx.faults.stats.events;
            Ok((ev.len() == 1 && ev[0].from == "Device" && ev[0].to == "OneShot") as u8 as u64)
        } else {
            let st = mpi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
            if st.bytes != 128 {
                return Err(MpiError::Internal(format!("short recv: {}", st.bytes)));
            }
            let raw = ctx.gpu.memory().peek(buf, span)?;
            let reg = ctx.registry().clone();
            let reg = reg.read();
            let mut got = vec![0u8; 128];
            let mut pos = 0;
            pack_cpu::pack(&reg, &raw, 0, 1, dt, &mut got, &mut pos)?;
            let mut want = vec![0u8; 128];
            let mut pos = 0;
            pack_cpu::pack(&reg, &pattern(span), 0, 1, dt, &mut want, &mut pos)?;
            Ok((got == want) as u8 as u64)
        }
    })
    .unwrap();
    assert_eq!(results[0], 1, "rank 0 must log exactly Device -> OneShot");
    assert_eq!(results[1], 1, "received bytes must match the pack oracle");
}

#[test]
fn transient_taxonomy_is_exhaustive_over_every_error_variant() {
    // Every MpiError variant, with every GpuError variant wrapped under
    // `Gpu`, paired with the expected (is_transient, is_comm_failure)
    // verdicts. The retry/degrade/recover machinery keys off these two
    // predicates, so a new variant with the wrong default silently changes
    // fault-handling behavior — this table is the tripwire.
    use gpu_sim::{GpuError, MemSpace};

    let gpu_cases: Vec<(GpuError, bool)> = vec![
        (GpuError::InvalidPointer { alloc: 3 }, false),
        (
            GpuError::OutOfBounds {
                alloc: 3,
                offset: 8,
                len: 16,
                size: 4,
            },
            false,
        ),
        (
            GpuError::NotDeviceAccessible {
                space: MemSpace::Host,
            },
            false,
        ),
        (
            GpuError::InvalidLaunch {
                reason: "grid too large".into(),
            },
            false,
        ),
        (
            GpuError::OutOfMemory {
                requested: 1 << 30,
                available: 0,
            },
            true,
        ),
        (GpuError::OverlappingBuffers, false),
        // KernelFault inherits transience from its source — one of each
        (
            GpuError::KernelFault {
                kernel: "pack_2d".into(),
                source: Box::new(GpuError::StreamFault {
                    op: "launch".into(),
                }),
            },
            true,
        ),
        (
            GpuError::KernelFault {
                kernel: "pack_2d".into(),
                source: Box::new(GpuError::OverlappingBuffers),
            },
            false,
        ),
        (
            GpuError::StreamFault {
                op: "memcpy".into(),
            },
            true,
        ),
    ];
    // (error, is_transient, is_comm_failure)
    let mut cases: Vec<(MpiError, bool, bool)> = vec![
        (MpiError::InvalidDatatype, false, false),
        (MpiError::NotCommitted, false, false),
        (MpiError::InvalidArg("count < 0".into()), false, false),
        (
            MpiError::Truncated {
                sent: 64,
                capacity: 32,
                envelope: None,
            },
            false,
            false,
        ),
        (MpiError::InvalidRank { rank: 9, size: 4 }, false, false),
        (
            MpiError::BufferTooSmall {
                required: 64,
                available: 16,
                envelope: None,
            },
            false,
            false,
        ),
        (MpiError::PeerGone, false, true),
        (MpiError::Revoked, false, true),
        (MpiError::CommTransient { peer: 1 }, true, false),
        (
            MpiError::CommFailed {
                peer: 1,
                attempts: 4,
            },
            false,
            true,
        ),
        (
            MpiError::Corrupted {
                peer: 1,
                attempts: 4,
            },
            false,
            true,
        ),
        (MpiError::Internal("bug".into()), false, false),
    ];
    for (gpu, transient) in gpu_cases {
        // GPU faults are never communicator failures: revoke/shrink cannot
        // fix a device
        cases.push((MpiError::Gpu(gpu), transient, false));
    }
    for (err, transient, comm) in &cases {
        assert_eq!(
            err.is_transient(),
            *transient,
            "is_transient({err:?}) mis-classified"
        );
        assert_eq!(
            err.is_comm_failure(),
            *comm,
            "is_comm_failure({err:?}) mis-classified"
        );
        // the two classes are disjoint by construction: a transient error
        // is retried in place, a comm failure tears the communicator down
        assert!(
            !(err.is_transient() && err.is_comm_failure()),
            "{err:?} cannot be both transient and a communicator failure"
        );
    }
    assert_eq!(cases.len(), 12 + 9, "one row per variant (plus GPU split)");
}

#[test]
fn scheduled_rank_exit_fails_cleanly_not_by_hanging() {
    // A rank scheduled to die at a virtual instant: sends addressed to it
    // after that instant fail fast with PeerGone instead of deadlocking.
    let cfg = WorldConfig::summit(1).with_faults(FaultPlan::parse("exit=0@5us").unwrap());
    let mut ctx = mpi_sim::RankCtx::standalone(&cfg);
    let buf = ctx.gpu.host_alloc(64).unwrap();
    ctx.gpu.memory().poke(buf, &pattern(64)).unwrap();
    ctx.send_bytes(buf, 64, 0, 0).unwrap(); // before the exit: fine
    ctx.clock.advance(SimTime::from_us(10));
    assert_eq!(ctx.send_bytes(buf, 64, 0, 0), Err(MpiError::PeerGone));
    assert_eq!(
        ctx.recv_bytes(buf, 64, Some(0), None),
        Err(MpiError::PeerGone)
    );
    assert_eq!(ctx.faults.stats.peer_gone, 2);
}

#[test]
fn a_corrupted_train_is_nacked_and_retransmitted_and_lands_byte_exact() {
    // the struct-of-arrays object, which TEMPI ships as one train of its
    // eight runs, twice through a corrupting link with integrity on: each
    // flipped delivery is caught by the checksum, NACKed and retransmitted,
    // and both a TEMPI receive (the train lands in place) and the system
    // MPI's (one message, unpacked) end with the sender's bytes
    let plan = FaultPlan::parse("seed=11,corrupt=0.9,retries=32").unwrap();
    let mut cfg = WorldConfig::summit(2).with_faults(plan).with_integrity();
    cfg.net.ranks_per_node = 1;
    let span = (7 << 16) + 2048;
    let results = World::run(&cfg, |ctx| {
        let displs: Vec<i64> = (0..8).map(|i| i << 16).collect();
        let soa = ctx.type_create_struct(&[2048; 8], &displs, &[MPI_BYTE; 8])?;
        let buf = ctx.gpu.malloc(span)?;
        let mut tempi = InterposedMpi::new(TempiConfig::default());
        tempi.type_commit(ctx, soa)?;
        if ctx.rank == 0 {
            ctx.gpu.memory().poke(buf, &pattern(span))?;
            for tag in 0..2 {
                tempi.send(ctx, buf, 1, soa, 1, tag)?;
                let cut = tempi.tempi.last_choice().and_then(|c| c.chunk);
                assert_eq!(cut, Some(2048), "not sent as a train");
            }
            return Ok(Vec::new());
        }
        let mut flips = Vec::new();
        for (tag, mpi) in [(0, &mut tempi), (1, &mut InterposedMpi::system_only())] {
            ctx.gpu.memory().poke(buf, &vec![0u8; span])?;
            mpi.recv(ctx, buf, 1, soa, Some(0), Some(tag))?;
            let (reg, raw) = (ctx.registry().clone(), ctx.gpu.memory().peek(buf, span)?);
            let (mut got, mut want) = (vec![0u8; 16 << 10], vec![0u8; 16 << 10]);
            pack_cpu::pack(&reg.read(), &raw, 0, 1, soa, &mut got, &mut 0)?;
            pack_cpu::pack(&reg.read(), &pattern(span), 0, 1, soa, &mut want, &mut 0)?;
            assert_eq!(got, want, "tag {tag}: the bytes differ from the sender's");
            let s = &ctx.faults.stats;
            flips.push((s.corruptions, s.nacks, s.retransmits));
        }
        Ok(flips)
    })
    .unwrap();
    // every flip caught and repaired, on both receives
    assert_eq!(results[1], [(2, 2, 2), (4, 4, 4)]);
}
