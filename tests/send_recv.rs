//! Multi-rank integration tests of datatype-accelerated communication:
//! TEMPI's send/recv against the system baseline, across methods,
//! mismatched-but-compatible types, wildcard receives, and error paths.

mod common;

use common::{pattern, span_of, struct_zoo};
use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::{pack_cpu, Order};
use mpi_sim::{MpiError, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::interpose::InterposedMpi;

fn two_node_cfg() -> WorldConfig {
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 1;
    cfg
}

#[test]
fn strided_send_into_different_layout() {
    // sender uses a vector, receiver scatters the same bytes into a
    // subarray layout — MPI allows any type with matching signature
    let results = World::run(&two_node_cfg(), |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        if ctx.rank == 0 {
            let dt = ctx.type_vector(16, 8, 16, MPI_BYTE)?; // 128 bytes
            mpi.type_commit(ctx, dt)?;
            let span = 15 * 16 + 8 + 8;
            let buf = ctx.gpu.malloc(span)?;
            ctx.gpu.memory().poke(buf, &pattern(span))?;
            mpi.send(ctx, buf, 1, dt, 1, 0)?;
            Ok(Vec::new())
        } else {
            let dt = ctx.type_create_subarray(&[16, 16], &[16, 8], &[0, 4], Order::C, MPI_BYTE)?;
            mpi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(16 * 16)?;
            let st = mpi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
            assert_eq!(st.bytes, 128);
            let got = ctx.gpu.memory().peek(buf, 256)?;
            Ok(got)
        }
    })
    .unwrap();
    // row r of the subarray (cols 4..12) carries sender blocks in order
    let got = &results[1];
    let src = pattern(16 * 16 + 8);
    for r in 0..16 {
        let want = &src[r * 16..r * 16 + 8];
        assert_eq!(&got[r * 16 + 4..r * 16 + 12], want, "row {r}");
    }
}

#[test]
fn methods_all_deliver_identical_bytes() {
    for method in [Method::Device, Method::OneShot, Method::Staged] {
        let results = World::run(&two_node_cfg(), |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig {
                force_method: Some(method),
                ..TempiConfig::default()
            });
            let dt = ctx.type_vector(128, 32, 64, MPI_BYTE)?;
            mpi.type_commit(ctx, dt)?;
            let span = 127 * 64 + 32 + 16;
            let buf = ctx.gpu.malloc(span)?;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &pattern(span))?;
                mpi.send(ctx, buf, 1, dt, 1, 3)?;
                Ok(Vec::new())
            } else {
                mpi.recv(ctx, buf, 1, dt, Some(0), Some(3))?;
                let got = ctx.gpu.memory().peek(buf, span)?;
                Ok(got)
            }
        })
        .unwrap();
        let got = &results[1];
        let src = pattern(127 * 64 + 32 + 16);
        for b in 0..128 {
            let o = b * 64;
            assert_eq!(&got[o..o + 32], &src[o..o + 32], "{method:?} block {b}");
        }
    }
}

#[test]
fn struct_sends_through_every_one_piece_rung_match_the_oracle() {
    // the default configuration plus the forced rung: each struct shape
    // leaves through TEMPI's kernels by that method, and lands as the CPU
    // typemap oracle says it must
    let one_piece = Method::LADDER
        .into_iter()
        .filter(|&m| m != Method::Pipelined);
    for method in one_piece {
        for (what, desc) in struct_zoo() {
            World::run(&two_node_cfg(), |ctx| {
                let mut mpi = InterposedMpi::new(TempiConfig {
                    force_method: Some(method),
                    ..TempiConfig::default()
                });
                let dt = desc.build(ctx)?;
                mpi.type_commit(ctx, dt)?;
                let span = span_of(ctx, dt, 1);
                let src = pattern(span);
                let buf = ctx.gpu.malloc(span)?;
                if ctx.rank == 0 {
                    ctx.gpu.memory().poke(buf, &src)?;
                    let used = mpi.send(ctx, buf, 1, dt, 1, 5)?;
                    assert_eq!(used, Some(method), "{what}");
                } else {
                    ctx.gpu.memory().poke(buf, &vec![0u8; span])?;
                    let st = mpi.recv(ctx, buf, 1, dt, Some(0), Some(5))?;
                    let size = ctx.attrs(dt)?.size as usize;
                    assert_eq!(st.bytes, size, "{what}");
                    let mut packed = vec![0u8; size];
                    let mut want = vec![0u8; span];
                    {
                        let reg = ctx.registry().read();
                        pack_cpu::pack(&reg, &src, 0, 1, dt, &mut packed, &mut 0)?;
                        pack_cpu::unpack(&reg, &packed, &mut 0, &mut want, 0, 1, dt)?;
                    }
                    assert_eq!(
                        ctx.gpu.memory().peek(buf, span)?,
                        want,
                        "{what} by {method:?}"
                    );
                }
                assert_eq!(mpi.tempi.stats.fallbacks, 0, "{what} by {method:?}");
                Ok(())
            })
            .unwrap();
        }
    }
}

#[test]
fn tempi_recv_matches_system_sender() {
    // one side interposed, the other not: the interposed receiver must
    // interoperate with a plain system sender (and vice versa)
    let results = World::run(&two_node_cfg(), |ctx| {
        let dt = ctx.type_vector(8, 4, 8, MPI_BYTE)?;
        if ctx.rank == 0 {
            // system sender
            let mut mpi = InterposedMpi::system_only();
            mpi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(64)?;
            ctx.gpu.memory().poke(buf, &pattern(64))?;
            mpi.send(ctx, buf, 1, dt, 1, 9)?;
            Ok(0u8)
        } else {
            // TEMPI receiver
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            mpi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(64)?;
            mpi.recv(ctx, buf, 1, dt, Some(0), Some(9))?;
            let got = ctx.gpu.memory().peek(buf, 64)?;
            let src = pattern(64);
            for b in 0..8 {
                assert_eq!(&got[b * 8..b * 8 + 4], &src[b * 8..b * 8 + 4], "block {b}");
            }
            Ok(1u8)
        }
    })
    .unwrap();
    assert_eq!(results, vec![0, 1]);
}

#[test]
fn wildcard_recv_through_tempi() {
    let results = World::run(&two_node_cfg(), |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = ctx.type_vector(4, 4, 8, MPI_BYTE)?;
        mpi.type_commit(ctx, dt)?;
        let buf = ctx.gpu.malloc(32)?;
        if ctx.rank == 0 {
            ctx.gpu.memory().poke(buf, &pattern(32))?;
            mpi.send(ctx, buf, 1, dt, 1, 77)?;
            Ok((0, 0))
        } else {
            let st = mpi.recv(ctx, buf, 1, dt, None, None)?;
            Ok((st.source, st.tag))
        }
    })
    .unwrap();
    assert_eq!(results[1], (0, 77));
}

#[test]
fn truncation_error_through_tempi() {
    let results = World::run(&two_node_cfg(), |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        if ctx.rank == 0 {
            let dt = ctx.type_vector(16, 8, 16, MPI_BYTE)?; // 128 data bytes
            mpi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(16 * 16)?;
            mpi.send(ctx, buf, 1, dt, 1, 0)?;
            Ok(true)
        } else {
            let small = ctx.type_vector(4, 8, 16, MPI_BYTE)?; // capacity 32
            mpi.type_commit(ctx, small)?;
            let buf = ctx.gpu.malloc(64)?;
            let r = mpi.recv(ctx, buf, 1, small, Some(0), Some(0));
            Ok(matches!(
                r,
                Err(MpiError::Truncated {
                    sent: 128,
                    capacity: 32,
                    ..
                })
            ))
        }
    })
    .unwrap();
    assert!(results[1]);
}

#[test]
fn many_messages_in_flight_stay_ordered() {
    let results = World::run(&two_node_cfg(), |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = ctx.type_vector(4, 8, 16, MPI_BYTE)?;
        mpi.type_commit(ctx, dt)?;
        let span = 3 * 16 + 8;
        let buf = ctx.gpu.malloc(span)?;
        if ctx.rank == 0 {
            for i in 0..10u8 {
                ctx.gpu.memory().poke(buf, &vec![i; span])?;
                mpi.send(ctx, buf, 1, dt, 1, 5)?;
            }
            Ok(vec![])
        } else {
            let mut seen = Vec::new();
            for _ in 0..10 {
                mpi.recv(ctx, buf, 1, dt, Some(0), Some(5))?;
                seen.push(ctx.gpu.memory().peek(buf, 1)?[0]);
            }
            Ok(seen)
        }
    })
    .unwrap();
    assert_eq!(results[1], (0..10u8).collect::<Vec<_>>());
}

#[test]
fn four_rank_ring_with_derived_types() {
    let mut cfg = WorldConfig::summit(4);
    cfg.net.ranks_per_node = 2;
    let results = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = ctx.type_vector(8, 16, 32, MPI_BYTE)?;
        mpi.type_commit(ctx, dt)?;
        let span = 7 * 32 + 16;
        let buf = ctx.gpu.malloc(span)?;
        ctx.gpu
            .memory()
            .poke(buf, &vec![ctx.rank as u8 + 1; span])?;
        let next = (ctx.rank + 1) % ctx.size;
        let prev = (ctx.rank + ctx.size - 1) % ctx.size;
        mpi.send(ctx, buf, 1, dt, next, 0)?;
        let recv = ctx.gpu.malloc(span)?;
        mpi.recv(ctx, recv, 1, dt, Some(prev), Some(0))?;
        Ok(ctx.gpu.memory().peek(recv, 16)?[0])
    })
    .unwrap();
    assert_eq!(results, vec![4, 1, 2, 3]);
}

#[test]
fn model_selected_methods_match_expectation_per_size() {
    // integration-level check of §5 and §8: a fine-strided 4 MiB object is
    // pipelined, a fine-strided 64 KiB one (too small to cut into chunks,
    // too many runs to ship as they lie) goes device, a coarse 256 KiB
    // object of 64 runs of 4 KiB ships its runs unpacked (the device
    // method cut at them), and one of 512 runs of 512 B, too many to ship
    // as they lie, goes one-shot
    let results = World::run(&two_node_cfg(), |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let fine = ctx.type_vector((4 << 20) / 16, 16, 32, MPI_BYTE)?;
        let small = ctx.type_vector((64 << 10) / 16, 16, 32, MPI_BYTE)?;
        let coarse = ctx.type_vector(64, 4096, 8192, MPI_BYTE)?;
        let medium = ctx.type_vector(512, 512, 1024, MPI_BYTE)?;
        let types = [fine, small, coarse, medium];
        let buf = ctx.gpu.malloc((4 << 20) * 2 + 64)?;
        let mut methods = Vec::new();
        for (tag, dt) in (0..).zip(types) {
            mpi.type_commit(ctx, dt)?;
            let m = match ctx.rank {
                0 => mpi.tempi.send(ctx, buf, 1, dt, 1, tag)?,
                _ => mpi.tempi.recv(ctx, buf, 1, dt, Some(0), Some(tag))?.1,
            };
            let cut = mpi.tempi.last_choice().and_then(|c| c.chunk);
            methods.push((m, if dt == coarse { cut } else { None }));
        }
        Ok(methods)
    })
    .unwrap();
    let cut = |m, run| (Some(m), run);
    let want = [
        cut(Method::Pipelined, None),
        cut(Method::Device, None),
        cut(Method::Device, Some(4096)),
        cut(Method::OneShot, None),
    ];
    assert_eq!(results[0], want);
    // receiver inferred the same methods from the parts and the probed
    // buffer spaces (its choice is the sender's business)
    let received: Vec<_> = results[1].iter().map(|&(m, _)| m).collect();
    let sent: Vec<_> = want.iter().map(|&(m, _)| m).collect();
    assert_eq!(received, sent);
}

/// Steps of [`the_message_layer_lands_the_oracle_bytes_at_the_recorded_clocks`]:
/// what rank 0 sends, and how rank 1 receives it, under tag `step`.
const LAYER_STEPS: usize = 22;

#[test]
fn the_message_layer_lands_the_oracle_bytes_at_the_recorded_clocks() {
    // Every raw-bytes entry point on host and device buffers, the system
    // MPI's typed send / recv of a contiguous and a non-contiguous type,
    // a pipelined transfer received whole, a train and truncated receives:
    // the receiver's bytes match the typemap oracle and both ranks' clocks
    // after every step match the ones recorded before the message layer
    // was reduced to one gather and one scatter.
    use gpu_sim::{GpuPtr, SimTime};
    use mpi_sim::{PartInfo, RankCtx};
    const SPAN: usize = 1024;
    let (run, n, part) = (24usize, 6usize, 96usize);
    let clocks = World::run(&two_node_cfg(), |ctx| {
        let contig = ctx.type_contiguous(24, mpi_sim::consts::MPI_INT)?;
        let strided = ctx.type_vector(12, 8, 20, MPI_BYTE)?;
        for dt in [contig, strided] {
            ctx.type_commit_native(dt)?;
        }
        let src = pattern(SPAN);
        let offsets = |sink: &mut dyn FnMut(i64)| (0..n).for_each(|k| sink((40 * k + 7) as i64));
        let whole = |sink: &mut dyn FnMut(i64)| sink(0);
        let (host, dev) = (ctx.gpu.host_alloc(SPAN)?, ctx.gpu.malloc(SPAN)?);
        let mut clocks = Vec::new();
        for step in 0..LAYER_STEPS {
            let tag = step as i32;
            let buf = if step % 2 == 0 { host } else { dev };
            let typed = [contig, strided][(step / 2) % 2];
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &src)?;
                let parts = |ctx: &mut RankCtx, at: GpuPtr, total: u32| {
                    for index in 0..total {
                        let info = PartInfo {
                            index,
                            total,
                            runs: 1,
                        };
                        let ready = SimTime::from_ns(300 * u64::from(index));
                        let from = at.add(part * index as usize);
                        ctx.send_bytes_part(from, part, 1, tag, ready, info)?;
                    }
                    Ok::<_, MpiError>(())
                };
                match step {
                    0 | 1 => ctx.send_bytes(buf, 200, 1, tag)?,
                    2 | 3 => ctx.send_bytes(buf, 40, 1, tag)?,
                    4 | 5 => parts(ctx, buf, 4)?,
                    6 | 7 => parts(ctx, buf, 2)?,
                    8 | 9 => parts(ctx, buf, 3)?,
                    10 | 11 => ctx.send_bytes_runs(buf, (run, n), 1, tag, offsets)?,
                    12..=15 => ctx.send(buf, 2, typed, 1, tag)?,
                    16 | 17 => ctx.send(buf, 2, strided, 1, tag)?,
                    18 => ctx.send_bytes(buf, 64, 1, tag)?,
                    19 => ctx.send(buf, 2, strided, 1, tag)?,
                    _ => parts(ctx, buf, 2)?,
                }
            } else {
                ctx.gpu.memory().poke(buf, &[0u8; SPAN])?;
                let (from, to) = (Some(0), Some(tag));
                // what the step must leave in `buf`: its bytes, by the oracle
                let mut want = vec![0u8; SPAN];
                let packed = |ctx: &RankCtx, dt, count| {
                    let reg = ctx.registry().read();
                    let size = reg.info(dt).unwrap().attrs.size as usize * count;
                    let mut out = vec![0u8; size];
                    pack_cpu::pack(&reg, &src, 0, count, dt, &mut out, &mut 0).unwrap();
                    out
                };
                let unpacked = |ctx: &RankCtx, bytes: &[u8], dt, count, want: &mut Vec<u8>| {
                    let reg = ctx.registry().read();
                    pack_cpu::unpack(&reg, bytes, &mut 0, want, 0, count, dt).unwrap();
                };
                match step {
                    0..=3 => {
                        let len = [200, 40][step / 2];
                        let st = ctx.recv_bytes(buf, 256, from, to)?;
                        assert_eq!(st.bytes, len, "step {step}");
                        want[..len].copy_from_slice(&src[..len]);
                    }
                    4 | 5 => {
                        assert_eq!(ctx.recv_bytes(buf, SPAN, from, to)?.bytes, 4 * part);
                        want[..4 * part].copy_from_slice(&src[..4 * part]);
                    }
                    6 | 7 => {
                        // two parts of 96 B, received whole as two items
                        let st = ctx.recv(buf, 2, strided, from, to)?;
                        assert_eq!(st.bytes, 2 * part, "step {step}");
                        unpacked(ctx, &src[..2 * part], strided, 2, &mut want);
                    }
                    8 | 9 => {
                        for k in 0..3 {
                            let at = buf.add(100 * k);
                            let st = ctx.recv_bytes_runs(at, (part, part), from, to, whole)?;
                            assert_eq!(st.bytes, part, "step {step}");
                            want[100 * k..][..part].copy_from_slice(&src[part * k..][..part]);
                        }
                    }
                    10 | 11 => {
                        let st = ctx.recv_bytes_runs(buf, (run, run * n), from, to, offsets)?;
                        assert_eq!(st.bytes, run * n, "step {step}");
                        for k in 0..n {
                            let at = 40 * k + 7;
                            want[at..at + run].copy_from_slice(&src[at..at + run]);
                        }
                    }
                    12..=15 => {
                        let st = ctx.recv(buf, 2, typed, from, to)?;
                        let bytes = packed(ctx, typed, 2);
                        assert_eq!(st.bytes, bytes.len(), "step {step}");
                        unpacked(ctx, &bytes, typed, 2, &mut want);
                    }
                    16 | 17 => {
                        // a typed send received as raw bytes: packed order
                        let bytes = packed(ctx, strided, 2);
                        let st = ctx.recv_bytes(buf, SPAN, from, to)?;
                        assert_eq!(st.bytes, bytes.len(), "step {step}");
                        want[..bytes.len()].copy_from_slice(&bytes);
                    }
                    18 => {
                        let short = ctx.recv_bytes(buf, 16, from, to);
                        let cut = Err(MpiError::Truncated {
                            sent: 64,
                            capacity: 16,
                            envelope: None,
                        });
                        assert_eq!(short, cut);
                    }
                    19 => {
                        let short = ctx.recv(buf, 1, strided, from, to);
                        assert!(
                            matches!(
                                short,
                                Err(MpiError::Truncated {
                                    sent: 192,
                                    capacity: 96,
                                    ..
                                })
                            ),
                            "{short:?}"
                        );
                    }
                    _ => {
                        for k in 0..2 {
                            let room = [part - 1, part][k];
                            let got = ctx.recv_bytes_runs(buf, (room, room), from, to, whole);
                            match k {
                                0 => assert!(matches!(got, Err(MpiError::Truncated { .. }))),
                                _ => assert_eq!(got?.bytes, part, "step {step}"),
                            }
                        }
                        want[..part].copy_from_slice(&src[part..2 * part]);
                    }
                }
                assert_eq!(ctx.gpu.memory().peek(buf, SPAN)?, want, "step {step}");
            }
            clocks.push(ctx.clock.now().as_ps());
        }
        Ok(clocks)
    })
    .unwrap();
    let recorded: [[u64; LAYER_STEPS]; 2] = [
        [
            3_600_000,
            3_800_000,
            4_000_000,
            4_200_000,
            5_000_000,
            5_800_000,
            6_200_000,
            6_600_000,
            7_200_000,
            7_800_000,
            9_000_000,
            10_200_000,
            10_400_000,
            10_600_000,
            12_250_667,
            1_097_450_667,
            1_099_101_334,
            2_184_301_334,
            2_184_501_334,
            3_269_701_334,
            3_270_101_334,
            3_270_501_334,
        ],
        [
            6_016_000,
            15_033_333,
            15_233_333,
            15_433_333,
            16_233_333,
            17_033_333,
            18_884_000,
            1_104_284_000,
            1_104_884_000,
            1_105_484_000,
            1_106_684_000,
            1_107_884_000,
            1_108_084_000,
            1_108_284_000,
            1_109_934_667,
            2_195_134_667,
            2_195_334_667,
            2_195_534_667,
            2_195_534_667,
            2_195_534_667,
            3_272_509_014,
            3_281_717_334,
        ],
    ];
    assert_eq!(clocks, recorded, "clocks (ps) after each step, per rank");
}
