//! Integration tests of the Section-4 interposer architecture across the
//! whole stack: resolution behavior, fall-through, partial interposition,
//! and the invariant that interposition never changes observable bytes.

mod common;

use common::pattern;
use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::TypeTree;
use mpi_sim::{MpiError, RankCtx, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::interpose::{InterposedMpi, Linker, MpiSymbol, Provider};

fn ctx() -> RankCtx {
    RankCtx::standalone(&WorldConfig::summit(1))
}

#[test]
fn resolution_log_reflects_link_order() {
    let mut ctx = ctx();
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
    mpi.type_commit(&mut ctx, dt).unwrap();
    let src = ctx.gpu.malloc(64).unwrap();
    let dst = ctx.gpu.malloc(16).unwrap();
    let mut pos = 0;
    mpi.pack(&mut ctx, src, 1, dt, dst, 16, &mut pos).unwrap();
    let log: Vec<_> = mpi.log().collect();
    assert_eq!(log[0], (MpiSymbol::TypeCommit, Provider::Tempi));
    assert_eq!(log[1], (MpiSymbol::Pack, Provider::Tempi));
}

#[test]
fn partial_interposition_splits_providers() {
    let mut ctx = ctx();
    let mut mpi = InterposedMpi::with_linker(
        TempiConfig::default(),
        Linker::with_overrides([MpiSymbol::Pack]),
    );
    let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
    // TypeCommit not overridden → system path, so no TEMPI plan exists...
    mpi.type_commit(&mut ctx, dt).unwrap();
    assert!(mpi.tempi.plan(dt).is_none());
    // ...but pack IS overridden, and lazily commits on first use
    let src = ctx.gpu.malloc(4 * 8).unwrap();
    let dst = ctx.gpu.malloc(16).unwrap();
    let mut pos = 0;
    mpi.pack(&mut ctx, src, 1, dt, dst, 16, &mut pos).unwrap();
    assert!(mpi.tempi.plan(dt).is_some());
    assert!(mpi.log().eq([
        (MpiSymbol::TypeCommit, Provider::System),
        (MpiSymbol::Pack, Provider::Tempi)
    ]));
}

#[test]
fn interposition_preserves_bytes_everywhere() {
    // Full pipeline (commit → pack → send → recv → unpack) run three ways;
    // output bytes must be identical.
    let run = |mpi_factory: fn() -> InterposedMpi| -> Vec<u8> {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let mut mpi = mpi_factory();
            let dt = ctx.type_vector(16, 8, 24, MPI_BYTE)?;
            mpi.type_commit(ctx, dt)?;
            let span = 15 * 24 + 8 + 8;
            let buf = ctx.gpu.malloc(span)?;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &pattern(span))?;
                mpi.send(ctx, buf, 1, dt, 1, 0)?;
                Ok(Vec::new())
            } else {
                mpi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                // repack locally to observe exactly the typed bytes
                let packed = ctx.gpu.malloc(128)?;
                let mut pos = 0;
                mpi.pack(ctx, buf, 1, dt, packed, 128, &mut pos)?;
                let out = ctx.gpu.memory().peek(packed, 128)?;
                Ok(out)
            }
        })
        .expect("world");
        results[1].clone()
    };
    let full = run(|| InterposedMpi::new(TempiConfig::default()));
    let none = run(InterposedMpi::system_only);
    let partial = run(|| {
        InterposedMpi::with_linker(
            TempiConfig::default(),
            Linker::with_overrides([MpiSymbol::Send, MpiSymbol::Recv]),
        )
    });
    assert_eq!(full, none);
    assert_eq!(full, partial);
}

#[test]
fn stats_attribute_work_to_the_right_layer() {
    let mut ctx = ctx();
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let v = ctx.type_vector(8, 8, 16, MPI_BYTE).unwrap();
    let s = ctx
        .type_create_struct(&[1], &[0], &[mpi_sim::consts::MPI_DOUBLE])
        .unwrap();
    mpi.type_commit(&mut ctx, v).unwrap();
    mpi.type_commit(&mut ctx, s).unwrap();
    let src = ctx.gpu.malloc(256).unwrap();
    let dst = ctx.gpu.malloc(256).unwrap();
    let mut pos = 0;
    mpi.pack(&mut ctx, src, 1, v, dst, 256, &mut pos).unwrap();
    let mut pos = 0;
    mpi.pack(&mut ctx, src, 1, s, dst, 256, &mut pos).unwrap();
    assert_eq!(mpi.tempi.stats.commits, 2);
    assert_eq!(mpi.tempi.stats.pack_calls, 2);
    // both packs ran TEMPI's kernels: a struct is not left to the system
    // MPI's copy-per-block handling
    assert_eq!(mpi.tempi.stats.fallbacks, 0);
    assert!(matches!(
        mpi.tempi.plan(s).unwrap().kind,
        tempi_core::PlanKind::Blocks(_)
    ));
}

// ---- error paths through the interposer (both providers) -----------------
//
// The robustness contract: an application linked with TEMPI sees the same
// MPI error classes it would see from the system MPI alone.

type ProviderCase = (&'static str, fn() -> InterposedMpi);

fn providers() -> [ProviderCase; 2] {
    [
        (
            "tempi",
            (|| InterposedMpi::new(TempiConfig::default())) as fn() -> InterposedMpi,
        ),
        (
            "system",
            InterposedMpi::system_only as fn() -> InterposedMpi,
        ),
    ]
}

#[test]
fn uncommitted_type_is_rejected_by_both_providers() {
    for (name, factory) in providers() {
        let mut ctx = ctx();
        let mut mpi = factory();
        let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
        // no type_commit
        let src = ctx.gpu.malloc(64).unwrap();
        let dst = ctx.gpu.malloc(16).unwrap();
        let mut pos = 0;
        let r = mpi.pack(&mut ctx, src, 1, dt, dst, 16, &mut pos);
        assert!(matches!(r, Err(MpiError::NotCommitted)), "{name}: {r:?}");
    }
}

#[test]
fn invalid_rank_is_rejected_by_both_providers() {
    for (name, factory) in providers() {
        let mut ctx = ctx(); // world of size 1
        let mut mpi = factory();
        let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        let buf = ctx.gpu.malloc(64).unwrap();
        let r = mpi.send(&mut ctx, buf, 1, dt, 5, 0);
        assert!(
            matches!(r, Err(MpiError::InvalidRank { rank: 5, size: 1 })),
            "{name}: {r:?}"
        );
    }
}

#[test]
fn truncation_is_reported_by_both_providers() {
    // a transfer too large for the receive is refused with its full size
    // and consumed whole, so the next receive takes the next message and
    // nothing is left queued — whether TEMPI shipped it in one piece, as a
    // train of the object's runs, or pipelined — and the payloads of its
    // parts go back to the free list
    let soa = "struct([2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048], \
               [0, 65536, 131072, 196608, 262144, 327680, 393216, 458752], \
               [byte, byte, byte, byte, byte, byte, byte, byte])";
    let cases = [
        (
            "one piece",
            Some(Method::Device),
            "vector(16, 8, 16, byte)",
            "vector(4, 8, 16, byte)",
        ),
        ("train", None, soa, "vector(2, 2048, 65536, byte)"),
        (
            "pipelined",
            Some(Method::Pipelined),
            "vector(1024, 128, 256, byte)",
            "vector(4, 8, 16, byte)",
        ),
        // eight 16 KiB parts, of which only the last overflows
        (
            "pipelined",
            Some(Method::Pipelined),
            "vector(1024, 128, 256, byte)",
            "vector(1000, 128, 256, byte)",
        ),
    ];
    for (case, method, big, small) in cases {
        for (name, factory) in providers() {
            let at = format!("{case} / {name}");
            let mut cfg = WorldConfig::summit(2);
            cfg.net.ranks_per_node = 1;
            World::run(&cfg, |ctx| {
                let mut mpi = factory();
                (
                    mpi.tempi.config.force_method,
                    mpi.tempi.config.pipeline_chunk,
                ) = (method, Some(16 << 10));
                let big = big.parse::<TypeTree>()?.build(ctx)?;
                let small = small.parse::<TypeTree>()?.build(ctx)?;
                let (mut span, mut size) = (0, [0; 2]);
                for (i, dt) in [big, small].into_iter().enumerate() {
                    mpi.type_commit(ctx, dt)?;
                    let a = ctx.attrs(dt)?;
                    (span, size[i]) = (span.max(a.true_ub as usize), a.size as usize);
                }
                let buf = ctx.gpu.malloc(span)?;
                if ctx.rank == 0 {
                    let m = mpi.send(ctx, buf, 1, big, 1, 0)?;
                    if name == "tempi" {
                        let cut = mpi.tempi.last_choice().and_then(|c| c.chunk).is_some();
                        let want = Some(method.unwrap_or(Method::Device));
                        assert_eq!((m, cut), (want, case != "one piece"), "{at}: sent");
                    }
                    mpi.send(ctx, buf, 1, small, 1, 0)?;
                    ctx.barrier();
                    return Ok(());
                }
                ctx.barrier();
                let refused = mpi.recv(ctx, buf, 1, small, Some(0), Some(0));
                assert!(
                    matches!(refused, Err(MpiError::Truncated { sent, capacity, .. })
                        if (sent, capacity) == (size[0], size[1])),
                    "{at}: {refused:?}"
                );
                if name == "tempi" && case != "one piece" {
                    assert!(
                        ctx.pooled_payload_bytes() > 0,
                        "{at}: a part payload was dropped"
                    );
                }
                let next = mpi.recv(ctx, buf, 1, small, Some(0), Some(0))?;
                assert_eq!(next.bytes, size[1], "{at}: the next message");
                assert_eq!(
                    (ctx.pending_messages(), ctx.inbox_backlog()),
                    (0, 0),
                    "{at}"
                );
                Ok(())
            })
            .unwrap();
        }
    }
}

#[test]
fn scheduled_peer_exit_surfaces_peer_gone_under_both_providers() {
    for (name, factory) in providers() {
        let cfg =
            WorldConfig::summit(1).with_faults(mpi_sim::FaultPlan::parse("exit=0@5us").unwrap());
        let mut ctx = RankCtx::standalone(&cfg);
        let mut mpi = factory();
        let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        let buf = ctx.gpu.malloc(64).unwrap();
        ctx.clock.advance(gpu_sim::SimTime::from_us(10)); // past the exit
        let r = mpi.send(&mut ctx, buf, 1, dt, 0, 0);
        assert!(matches!(r, Err(MpiError::PeerGone)), "{name}: {r:?}");
    }
}

#[test]
fn a_transfer_size_that_overflows_is_invalid_arg_on_every_entry_point() {
    // counts are the caller's: 2^61 items of a 16-byte type wrap to a size
    // of 0 if multiplied unchecked (a release build then "packs" nothing
    // and says Ok; a debug build panics), and so must be refused by all
    // five datatype entry points, whichever library serves them
    use mpi_sim::consts::MPI_INT;
    let huge = 1usize << 61;
    for (name, factory) in providers() {
        let mut ctx = ctx();
        let mut mpi = factory();
        let dt = ctx.type_vector(4, 1, 2, MPI_INT).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        let buf = ctx.gpu.malloc(64).unwrap();
        let refused = [
            ("pack", mpi.pack(&mut ctx, buf, huge, dt, buf, 64, &mut 0)),
            (
                "unpack",
                mpi.unpack(&mut ctx, buf, 64, &mut 0, buf, huge, dt),
            ),
            (
                "pack_size",
                mpi.pack_size(&mut ctx, usize::MAX / 2, dt).map(drop),
            ),
            ("send", mpi.send(&mut ctx, buf, huge, dt, 0, 0).map(drop)),
            (
                "recv",
                mpi.recv(&mut ctx, buf, huge, dt, Some(0), Some(0))
                    .map(drop),
            ),
            // a cursor the size carries past the end of the address space
            (
                "pack at a huge position",
                mpi.pack(&mut ctx, buf, 1, dt, buf, 64, &mut (usize::MAX - 8)),
            ),
        ];
        for (entry, r) in refused {
            assert!(
                matches!(r, Err(MpiError::InvalidArg(_))),
                "{name} / {entry}: {r:?}"
            );
        }
        // nothing was queued or moved on the way to those errors
        assert_eq!(ctx.stream.stats().memcpys, 0, "{name}");
    }
}

#[test]
fn item_offsets_that_overflow_are_invalid_arg_before_any_byte_moves() {
    // four items of a type resized to an extent of 6,148,914,691,236,517,206
    // bytes: the last item's offset, 3 × extent, wraps to 2 if multiplied
    // unchecked — the run walkers panicked in debug and, in release, wrote
    // item 0 before reporting OutOfBounds — so pack, unpack and send refuse
    // it on both providers before a byte moves; so too two items an extent
    // of i64::MAX - 1 apart, whose second item's last run is past any offset
    let cases = [(6_148_914_691_236_517_206, 4), (i64::MAX - 1, 2)];
    for ((name, factory), (extent, count)) in
        providers().into_iter().flat_map(|p| cases.map(|c| (p, c)))
    {
        let mut ctx = ctx();
        let mut mpi = factory();
        let v = ctx.type_vector(2, 1, 2, MPI_BYTE).unwrap();
        let dt = ctx.type_create_resized(v, 0, extent).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        let (typed, packed) = (ctx.gpu.malloc(64).unwrap(), ctx.gpu.malloc(64).unwrap());
        ctx.gpu.memory().poke(typed, &pattern(64)).unwrap();
        ctx.gpu.memory().poke(packed, &[0; 64]).unwrap();
        let refused = [
            (
                "pack",
                mpi.pack(&mut ctx, typed, count, dt, packed, 64, &mut 0),
            ),
            (
                "unpack",
                mpi.unpack(&mut ctx, packed, 64, &mut 0, typed, count, dt),
            ),
            ("send", mpi.send(&mut ctx, typed, count, dt, 0, 0).map(drop)),
        ];
        for (entry, r) in refused {
            assert!(
                matches!(r, Err(MpiError::InvalidArg(_))),
                "{name} / {entry}: {r:?}"
            );
        }
        let mem = ctx.gpu.memory();
        assert_eq!(mem.peek(packed, 64).unwrap(), [0; 64], "{name}: packed");
        assert_eq!(mem.peek(typed, 64).unwrap(), pattern(64), "{name}: typed");
        let s = ctx.stream.stats();
        assert_eq!((s.memcpys, s.kernel_launches), (0, 0), "{name}");
    }
}

#[test]
fn a_zero_blocklength_type_with_a_far_stride_packs_and_sends_nothing() {
    // blocks of no elements, a stride apart that no offset arithmetic
    // survives: the registry accepts these (it never places an empty
    // block), so pack, send and receive must move no bytes on both
    // providers, not multiply the stride by the block index
    let specs = [
        "vector(4, 0, 2147483647, contiguous(2147483647, double))",
        "hvector(4, 0, 4611686018427387904, byte)",
    ];
    for ((name, factory), spec) in providers().into_iter().flat_map(|p| specs.map(|s| (p, s))) {
        let results = World::run(&WorldConfig::summit(2), |ctx| {
            let mut mpi = factory();
            let dt = spec.parse::<TypeTree>()?.build(ctx)?;
            mpi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(64)?;
            let mut pos = 0;
            mpi.pack(ctx, buf, 1, dt, buf, 64, &mut pos)?;
            let got = if ctx.rank == 0 {
                mpi.send(ctx, buf, 1, dt, 1, 0)?;
                0
            } else {
                mpi.recv(ctx, buf, 1, dt, Some(0), Some(0))?.bytes
            };
            Ok((pos, got))
        });
        assert_eq!(results, Ok(vec![(0, 0); 2]), "{name} / {spec}");
    }
}

#[test]
fn create_commit_free_churn_keeps_the_registry_and_the_plan_cache_bounded() {
    // frees that bypass the interposer, as a partial interposer must
    // expect: the registry reuses each slot, and each new occupant's
    // commit replaces the dead plan
    const CYCLES: usize = 100_000;
    let mut ctx = ctx();
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let keep = ctx.type_vector(13, 100, 256, MPI_BYTE).unwrap();
    mpi.type_commit(&mut ctx, keep).unwrap();
    for i in 0..CYCLES {
        let n = 1 + i as i32 % 7;
        let row = ctx.type_contiguous(n, MPI_BYTE).unwrap();
        let dt = ctx.type_create_hvector(3, 1, 64, row).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        assert_eq!(mpi.tempi.plan(dt).unwrap().size, 3 * n as u64);
        ctx.type_free(dt).unwrap();
        ctx.type_free(row).unwrap();
    }
    let (live, slots) = {
        let reg = ctx.registry().read();
        (reg.live(), reg.slot_count())
    };
    assert_eq!(live, 13, "the named types and `keep`");
    // each cycle reuses the same two slots, one generation on: a slot
    // serves 2^32 occupants before it retires, so the table never grows
    // and no handle ever aliases
    assert_eq!(slots, live + 2, "{slots} slots for {live} live types");
    // one plan per slot a commit used: `keep`'s and the loop's current one
    let plans = mpi.tempi.cached_plans();
    assert!(plans <= 2, "{plans} plans held");
    let hits = mpi.stats().commit_cache_hits;
    mpi.type_commit(&mut ctx, keep).unwrap();
    assert_eq!(
        mpi.stats().commit_cache_hits,
        hits + 1,
        "`keep` lost its plan"
    );
}
