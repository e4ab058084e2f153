//! The paper's evaluation as a table of [`Figure`]s: Table 1, Figs. 6–12 and
//! the four ablations. Each renders, in deterministic virtual time, the text
//! `results/logs/<name>.txt` records — the `figures` binary prints it, CI
//! and the Tier-1 tests compare it. EXPERIMENTS.md reads each one against
//! the paper.

use std::fmt::Display;

use gpu_sim::{GpuCostModel, MemSpace, PackDir, SimClock, SimTime};
use mpi_sim::{MpiResult, RankCtx, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::ir::strided_block::StridedBlock;
use tempi_core::kernels::{execute_strided, select_word};
use tempi_core::model::SendModel;
use tempi_core::tempi::{PlanKind, Tempi};
use tempi_stencil::ExchangeTiming;

use crate::measure::{halo_exchange, paper_scale, timed_rounds, Cell, HaloPacking, Platform, Side};
use crate::report::{fmt_bytes, fmt_speedup, range, Table};
use crate::workloads::{fig6_set, send_sweep, Construction, Obj2d, Obj3d};

/// One figure (or table, or ablation) of the evaluation.
pub struct Figure {
    /// Its name on the `figures` command line and under `results/logs/`.
    pub name: &'static str,
    /// What it shows, in one line.
    pub about: &'static str,
    /// Measure and render it.
    pub render: fn() -> MpiResult<String>,
}

/// Every figure, in the paper's order. `TEMPI_BENCH_FULL=1` runs `fig07`'s
/// 3-D part in a 1024³ B allocation and `fig12` at 96³ per rank on up to 27
/// ranks, the paper-scale sizes.
pub const FIGURES: [Figure; 12] = [
    Figure {
        name: "table1",
        about: "experimental platform summaries",
        render: table1,
    },
    Figure {
        name: "fig06",
        about: "type create + commit time per implementation, TEMPI's commit slowdown",
        render: fig06,
    },
    Figure {
        name: "fig07",
        about: "MPI_Pack speedup over the system MPIs: 1 KiB and 1 MiB 2-D objects, 3-D boxes",
        render: fig07,
    },
    Figure {
        name: "fig08",
        about: "measured transfer primitives and the section-5 method models",
        render: fig08,
    },
    Figure {
        name: "fig09",
        about: "kernel pack/unpack time into device and mapped-host memory, peak throughput",
        render: fig09,
    },
    Figure {
        name: "fig10",
        about: "measured vs modeled MPI_Send, one-shot and device forced",
        render: fig10,
    },
    Figure {
        name: "fig11",
        about: "send/recv pair time, TEMPI vs Spectrum MPI",
        render: fig11,
    },
    Figure {
        name: "fig12",
        about: "3-D stencil halo exchange speedup, weak scaling",
        render: fig12,
    },
    Figure {
        name: "ablation_canon",
        about: "canonicalization on vs off: pack time and equivalent-construction parity",
        render: ablation_canon,
    },
    Figure {
        name: "ablation_word",
        about: "selected kernel word size vs forced W=1",
        render: ablation_word,
    },
    Figure {
        name: "ablation_method",
        about: "model-driven method choice vs each forced method",
        render: ablation_method,
    },
    Figure {
        name: "ablation_pipeline",
        about: "the section-8 pipelined send across chunk sizes vs the one-piece methods",
        render: ablation_pipeline,
    },
];

/// The figure called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

fn table1() -> MpiResult<String> {
    let mut t = Table::new([
        "Name",
        "MPI",
        "CPU",
        "GPU",
        "GPU mem",
        "ranks/node",
        "cpu-cpu floor",
        "gpu-gpu floor",
    ]);
    for p in [Platform::Summit, Platform::OpenMpi, Platform::Mvapich] {
        let w = p.world(1);
        let (name, cpu) = match p {
            Platform::Summit => ("OLCF Summit", "IBM POWER9"),
            Platform::OpenMpi => ("openmpi", "AMD Ryzen 7 3700x"),
            Platform::Mvapich => ("mvapich", "AMD Ryzen 7 3700x"),
        };
        let rpn = match w.net.ranks_per_node {
            usize::MAX => "all".to_string(),
            n => n.to_string(),
        };
        t.row(&[
            &name,
            &format!("{} {}", w.vendor.mpi_name, w.vendor.version),
            &cpu,
            &w.device.name,
            &format!("{} GiB", w.device.global_mem_bytes >> 30),
            &rpn,
            &format!("{:.1} us", w.net.cpu_latency_inter.as_us_f64()),
            &format!("{:.1} us", w.net.gpu_latency_inter.as_us_f64()),
        ]);
    }
    Ok(format!(
        "Table 1: Experimental Platform Summaries (simulated)\n\n{t}"
    ))
}

/// For each construction in the evaluation set, the "create" time (the
/// `MPI_Type_*` constructor calls) and the "commit" time with plain system
/// MPI vs with TEMPI interposed.
fn fig06() -> MpiResult<String> {
    let mut t = Table::new([
        "impl",
        "object",
        "create",
        "commit (system)",
        "commit (TEMPI)",
        "slowdown",
        "introspect calls",
    ]);
    let mut summary = String::new();
    for (platform, paper) in [
        (Platform::Mvapich, "2.1x - 5.5x"),
        (Platform::OpenMpi, "3.5x - 6.8x"),
        (Platform::Summit, "4.2x - 11.6x"),
    ] {
        let mut slowdowns = Vec::new();
        for (label, tree) in fig6_set() {
            let b = Cell::of(platform, tree, 1)?.commit()?;
            t.row(&[
                &platform.label(),
                &label,
                &format!("{:.2} us", b.create.as_us_f64()),
                &format!("{:.2} us", b.commit_system.as_us_f64()),
                &format!("{:.2} us", b.commit_tempi.as_us_f64()),
                &format!("{:.1}x", b.slowdown()),
                &b.introspection_calls,
            ]);
            slowdowns.push(b.slowdown());
        }
        let (lo, hi) = range(slowdowns);
        summary += &format!(
            "\n{}: TEMPI commit slowdown {lo:.1}x - {hi:.1}x (paper: {paper})\n",
            platform.label()
        );
    }
    Ok(format!(
        "Fig. 6: type create + commit breakdown (virtual time)\n\n{t}{summary}"
    ))
}

/// Three parts, as in the paper: (a) 1 KiB and (b) 1 MiB 2-D objects,
/// equivalently expressed as vector / hvector / subarray (contiguous where
/// applicable), and (c) 3-D boxes inside a cubic byte allocation (the paper
/// uses 1024³ B). MVAPICH's specialized root-vector handling (speedup ≈ 1)
/// is reproduced.
fn fig07() -> MpiResult<String> {
    let mut speedups = Vec::new();
    // One row: a construction's pack speedup on each platform. MVAPICH's
    // contiguous pack returns before the copy completes (a semantic bug),
    // so those cells are omitted, as in the paper.
    let mut row = |t: &mut Table,
                   object: String,
                   c: Construction,
                   contiguous: bool,
                   cell: &dyn Fn(Platform) -> MpiResult<Cell>|
     -> MpiResult<()> {
        let mut cells = Vec::new();
        for platform in Platform::ALL {
            cells.push(if platform == Platform::Mvapich && contiguous {
                "(omitted)".to_string()
            } else {
                let speedup = cell(platform)?.pack_speedup()?;
                speedups.push(speedup);
                fmt_speedup(speedup)
            });
        }
        t.row(&[&object, &c.label(), &cells[0], &cells[1], &cells[2]]);
        Ok(())
    };
    let mut out = String::new();
    for (part, total) in [("a", 1usize << 10), ("b", 1 << 20)] {
        let mut t = Table::new(["object", "construction", "mv", "op", "sp"]);
        for obj in Obj2d::sweep(total) {
            for c in obj.constructions() {
                let cell = |p| obj.cell(p, c);
                row(&mut t, obj.label(), c, obj.is_contiguous(), &cell)?;
            }
        }
        let size = fmt_bytes(total);
        out += &format!("\nFig. 7{part}: MPI_Pack speedup, {size} 2-D objects\n{t}");
    }
    let alloc = if paper_scale() { 1024 } else { 256 };
    let mut t = Table::new(["x|y|z", "construction", "mv", "op", "sp"]);
    for obj in Obj3d::sweep(alloc) {
        for c in obj.constructions() {
            row(&mut t, obj.label(), c, false, &|p| obj.cell(p, c))?;
        }
    }
    out += &format!("\nFig. 7c: MPI_Pack speedup, 3-D objects in a {alloc}^3 B allocation\n{t}");
    let (min, max) = range(speedups);
    Ok(out
        + &format!(
            "\nOverall speedup range: {} to {} (paper: 0.89x to 720,400x)\n",
            fmt_speedup(min),
            fmt_speedup(max)
        ))
}

/// Half a raw-byte ping-pong between two Summit ranks on separate nodes,
/// from device or pinned host buffers.
fn pingpong(bytes: usize, device: bool) -> MpiResult<SimTime> {
    let per_rank = World::run(&Platform::Summit.pair(), |ctx| {
        let buf = if device {
            ctx.gpu.malloc(bytes.max(1))?
        } else {
            ctx.gpu.pinned_alloc(bytes.max(1))?
        };
        let peer = 1 - ctx.rank;
        let round_trip = timed_rounds(ctx, 0, 1, |ctx| {
            if ctx.rank == 0 {
                ctx.send_bytes(buf, bytes, peer, 0)?;
            }
            ctx.recv_bytes(buf, bytes, Some(peer), Some(0))?;
            if ctx.rank == 1 {
                ctx.send_bytes(buf, bytes, peer, 0)?;
            }
            Ok(())
        })?;
        Ok(round_trip[0].0)
    })?;
    Ok(per_rank[0] / 2)
}

/// `cudaMemcpyAsync` + synchronize on a standalone Summit rank.
fn memcpy(bytes: usize, d2h: bool) -> MpiResult<SimTime> {
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
    let dev = ctx.gpu.malloc(bytes.max(1))?;
    let host = ctx.gpu.pinned_alloc(bytes.max(1))?;
    let (dst, src) = if d2h { (host, dev) } else { (dev, host) };
    let mut clock = SimClock::new();
    ctx.stream.memcpy_async(&mut clock, dst, src, bytes)?;
    ctx.stream.synchronize(&mut clock);
    Ok(clock.now())
}

/// (a) is *measured* in the simulated world (actual ping-pongs, actual
/// stream operations); (b) and (c) evaluate the Section-5 model — the same
/// relationship the paper's figure has to its raw data.
fn fig08() -> MpiResult<String> {
    let model = SendModel::summit_internode();
    let mut a = Table::new(["size", "T_d2h", "T_h2d", "T_cpu-cpu", "T_gpu-gpu"]);
    let mut b = Table::new(["size", "T_device", "T_oneshot", "T_staged"]);
    let mut c = Table::new(["size", "5 GB/s", "10 GB/s", "20 GB/s", "40 GB/s", "inf"]);
    // the measured 4.5 µs kernel launch + synchronize, on each side
    let launch = model.gpu.kernel_launch_overhead + model.gpu.stream_sync_overhead;
    for bytes in (0..=26).step_by(2).map(|p| 1usize << p) {
        let size = fmt_bytes(bytes);
        a.row(&[
            &size,
            &memcpy(bytes, true)?,
            &memcpy(bytes, false)?,
            &pingpong(bytes, false)?,
            &pingpong(bytes, true)?,
        ]);
        let (device, oneshot) = (model.t_gpu_gpu(bytes), model.t_cpu_cpu(bytes));
        let staged = model.t_d2h(bytes) + oneshot + model.t_h2d(bytes);
        b.row(&[&size, &device, &oneshot, &staged]);
        // one-shot with a pack and an unpack at `gbps`
        let at = |gbps: f64| {
            let pack = if gbps.is_infinite() {
                SimTime::ZERO
            } else {
                SimTime::from_ns_f64(bytes as f64 / gbps)
            };
            launch + pack + oneshot + launch + pack
        };
        let inf = f64::INFINITY;
        c.row(&[&size, &at(5.0), &at(10.0), &at(20.0), &at(40.0), &at(inf)]);
    }
    Ok(format!(
        "Fig. 8a: measured transfer primitives (half ping-pong / memcpy+sync)\n\n{a}\
         \nfloors: gpu-gpu / d2h / h2d ≈ 11 us; cpu-cpu ≈ 2.2 us (paper Fig. 8a)\n\
         \nFig. 8b: modeled methods excluding pack time\n\n{b}\
         \nstaged is never below device: the cpu-cpu advantage is consumed by D2H+H2D\n\
         \nFig. 8c: modeled T_oneshot for hypothetical pack/unpack bandwidths\n\n{c}\
         \nlatency of one-shot depends heavily on pack/unpack performance (paper Fig. 8c)\n"
    ))
}

/// Time, in µs, of one TEMPI kernel pack/unpack of the strided (total,
/// block) object with the packed side in `packed_space`.
fn kernel_us(total: usize, block: usize, dir: PackDir, packed_space: MemSpace) -> MpiResult<f64> {
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
    let obj = Obj2d::strided(total, block);
    let dt = obj.tree(Construction::Vector)?.build(&mut ctx)?;
    let plan = Tempi::new(TempiConfig::default()).type_commit(&mut ctx, dt)?;
    let PlanKind::Strided(kp) = &plan.kind else {
        panic!("expected a strided plan, got {:?}", plan.kind)
    };
    let strided = ctx.gpu.malloc(obj.count * obj.stride)?;
    let packed = match packed_space {
        MemSpace::Mapped => ctx.gpu.mapped_alloc(total)?,
        _ => ctx.gpu.malloc(total)?,
    };
    let t0 = ctx.clock.now();
    execute_strided(
        kp,
        &mut ctx.stream,
        &mut ctx.clock,
        dir,
        strided,
        plan.extent,
        1,
        packed,
        0,
    )?;
    Ok((ctx.clock.now() - t0).as_us_f64())
}

/// TEMPI's kernels packing device → device (the *device* method's pack) and
/// device → mapped host (the *one-shot* pack), and the two unpack
/// directions, over object sizes 64 B – 4 MiB × contiguous block sizes. The
/// peak throughput is kernel-only (the fixed launch + synchronize overhead
/// excluded, as the paper's "maximum achieved" peaks read).
fn fig09() -> MpiResult<String> {
    let blocks = [1usize, 4, 8, 12, 16, 24, 32, 64, 128, 512, 4096];
    let headers = std::iter::once("object".to_string()).chain(blocks.map(|b| format!("{b} B")));
    let headers: Vec<String> = headers.collect();
    let m = GpuCostModel::summit_v100();
    let overhead_us = (m.kernel_launch_overhead + m.stream_sync_overhead).as_us_f64();

    let (mut out, mut peaks) = (String::new(), String::new());
    for (strategy, space, paper) in [
        ("oneshot", MemSpace::Mapped, [32.5, 39.0]),
        ("device", MemSpace::Device, [212.0, 202.0]),
    ] {
        for (name, dir, paper) in [
            ("pack", PackDir::Pack, paper[0]),
            ("unpack", PackDir::Unpack, paper[1]),
        ] {
            let mut t = Table::new(&headers);
            let mut peak = 0.0f64;
            for total in (6..=22).step_by(2).map(|p| 1usize << p) {
                let mut cells = vec![fmt_bytes(total)];
                for block in blocks {
                    cells.push(if block > total {
                        "-".to_string()
                    } else {
                        let us = kernel_us(total, block, dir, space)?;
                        peak = peak.max(total as f64 / ((us - overhead_us).max(0.01) * 1e3));
                        format!("{us:.1}")
                    });
                }
                let cells: Vec<&dyn Display> = cells.iter().map(|c| c as &dyn Display).collect();
                t.row(&cells);
            }
            out += &format!(
                "\nFig. 9: {strategy} {name} time (us) by object size × block size\n\n{t}"
            );
            peaks += &format!(
                "max {strategy} {name} throughput: {peak:.1} GB/s (paper: {paper} GB/s)\n"
            );
        }
    }
    Ok(out + &peaks)
}

/// For 1 MiB and 4 MiB 2-D objects across block sizes: an actual two-rank
/// ping-pong with the method *forced* to one-shot or device (measured), and
/// the Section-5 equations with the same parameters (modeled).
fn fig10() -> MpiResult<String> {
    let model = SendModel::summit_internode();
    let mut out = String::new();
    for total in [1usize << 20, 4 << 20] {
        let mut t = Table::new([
            "block",
            "oneshot meas",
            "oneshot model",
            "device meas",
            "device model",
            "faster",
        ]);
        for block in [8usize, 32, 128, 512, 2048, 8192, 65536] {
            let obj = Obj2d::strided(total, block);
            let cell = obj.cell(Platform::Summit, Construction::Vector)?;
            let osh_meas = cell.send_pair(&Side::forced(Method::OneShot))?.as_us_f64();
            let dev_meas = cell.send_pair(&Side::forced(Method::Device))?.as_us_f64();
            // modeled with the plan's word size (same inputs TEMPI uses)
            let word = select_word(&StridedBlock {
                start: 0,
                counts: vec![block as i64, obj.count as i64],
                strides: vec![1, obj.stride as i64],
            });
            let osh_model = model.t_oneshot(total, block, word).total().as_us_f64();
            let dev_model = model.t_device(total, block, word).total().as_us_f64();
            let faster = if dev_meas < osh_meas {
                "device"
            } else {
                "oneshot"
            };
            t.row(&[
                &format!("{block} B"),
                &format!("{osh_meas:.1} us"),
                &format!("{osh_model:.1} us"),
                &format!("{dev_meas:.1} us"),
                &format!("{dev_model:.1} us"),
                &faster,
            ]);
        }
        out += &format!(
            "\nFig. 10: send time for a {} object (measured | modeled)\n\n{t}",
            fmt_bytes(total)
        );
    }
    Ok(out
        + "\npaper: one-shot wins the 1 MiB object, device wins the 4 MiB object;\n\
           models track measurements except at very small blocks\n")
}

/// The strided objects of the send sweep as hvectors: TEMPI (model-chosen
/// method, named per row) vs the system baseline.
fn fig11() -> MpiResult<String> {
    let mut out = String::new();
    let mut speedups = Vec::new();
    let sweep = send_sweep();
    for group in sweep.chunk_by(|a, b| a.total_bytes() == b.total_bytes()) {
        let mut t = Table::new(["block", "method", "TEMPI", "Spectrum MPI", "speedup"]);
        for obj in group.iter().filter(|obj| !obj.is_contiguous()) {
            let cell = obj.cell(Platform::Summit, Construction::Hvector)?;
            let tempi = cell.send_pair(&Side::tempi())?;
            let system = cell.send_pair(&Side::System)?;
            let speedup = system.as_ns_f64() / tempi.as_ns_f64();
            speedups.push(speedup);
            t.row(&[
                &format!("{} B", obj.block),
                &cell.one_way(&Side::tempi(), 1, 1)?.1,
                &tempi,
                &system,
                &fmt_speedup(speedup),
            ]);
        }
        out += &format!(
            "\nFig. 11: send/recv pair time, {} 2-D objects\n\n{t}",
            fmt_bytes(group[0].total_bytes())
        );
    }
    let (min, max) = range(speedups);
    Ok(out
        + &format!(
            "\nspeedup range {} - {} (paper: 1.07x - 59,000x)\n\
             run cut: the device recipe with the object's runs shipped as they lie, no\n\
             pack (ours; the other methods are the paper's, sections 5 and 8)\n",
            fmt_speedup(min),
            fmt_speedup(max)
        ))
}

/// Weak scaling: each rank owns an `N³` subdomain (the paper uses 512³; 32³
/// here — the substitution is documented in DESIGN.md). Each phase is its
/// slowest rank's: the iteration is gated by the slowest rank.
fn fig12() -> MpiResult<String> {
    let (n, ranks): (usize, &[usize]) = if paper_scale() {
        (96, &[1, 2, 4, 8, 16, 27])
    } else {
        (32, &[1, 2, 4, 8])
    };
    let run = |p: usize, side: Side, packing: HaloPacking| -> MpiResult<ExchangeTiming> {
        let mut cfg = WorldConfig::summit(p);
        cfg.net.ranks_per_node = 2;
        let per_rank = halo_exchange(&cfg, &side, n, packing)?;
        let slowest = |phase: fn(&ExchangeTiming) -> SimTime| {
            per_rank.iter().map(phase).max().unwrap_or_default()
        };
        Ok(ExchangeTiming {
            pack: slowest(|t| t.pack),
            comm: slowest(|t| t.comm),
            unpack: slowest(|t| t.unpack),
        })
    };
    let mut t = Table::new([
        "ranks",
        "pack / unpack calls",
        "pack speedup",
        "unpack speedup",
        "exchange speedup",
        "TEMPI total",
        "baseline total",
    ]);
    let speedup = |sys: SimTime, tempi: SimTime| fmt_speedup(sys.as_ns_f64() / tempi.as_ns_f64());
    // the exchange speedups of the last rank count, per direction and fused
    let mut summary = [String::new(), String::new()];
    for &p in ranks {
        let rows = [
            ("per direction (paper, 6.4)", HaloPacking::PerDirection),
            ("fused (ours)", HaloPacking::Fused),
        ];
        for ((calls, packing), exchange) in rows.into_iter().zip(&mut summary) {
            let (sys, tempi) = (
                run(p, Side::System, packing)?,
                run(p, Side::tempi(), packing)?,
            );
            *exchange = speedup(sys.total(), tempi.total());
            t.row(&[
                &p,
                &calls,
                &speedup(sys.pack, tempi.pack),
                &speedup(sys.unpack, tempi.unpack),
                exchange,
                &tempi.total(),
                &sys.total(),
            ]);
        }
    }
    Ok(format!(
        "Fig. 12: 3-D stencil halo exchange speedup vs Spectrum MPI ({n}^3 per rank, radius 2)\n\
         \n{t}\
         \nexchange speedup at {} ranks: {} per direction, {} fused \
         (paper: up to ~20,000x on 512^3, per direction)\n\
         paper shape: pack/unpack speedups ~10^3-10^4; iteration speedup decreases\n\
         with rank count as communication takes a larger share\n",
        ranks[ranks.len() - 1],
        summary[0],
        summary[1],
    ))
}

/// With `canonicalize = false`, TEMPI still translates and still launches
/// kernels, but parameterizes them from the *raw translated* tree. Two
/// consequences the paper's design predicts: equivalent constructions of one
/// object stop getting the same plan (the spread lines), and compositions
/// whose raw trees have non-folded dense leaves lose coalescing (the gain
/// column).
fn ablation_canon() -> MpiResult<String> {
    let no_canon = Side::Tempi(TempiConfig {
        canonicalize: false,
        ..TempiConfig::default()
    });
    let mut t = Table::new(["object", "construction", "canon", "no canon", "gain"]);
    let mut spreads = String::new();
    for (total, block) in [(64usize << 10, 64usize), (1 << 20, 512), (1 << 20, 4096)] {
        let obj = Obj2d::strided(total, block);
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for c in obj.constructions() {
            let cell = obj.cell(Platform::Summit, c)?;
            let (on, off) = (cell.pack(&Side::tempi())?, cell.pack(&no_canon)?);
            t.row(&[
                &obj.label(),
                &c.label(),
                &on,
                &off,
                &fmt_speedup(off.as_ns_f64() / on.as_ns_f64()),
            ]);
            with.push(on.as_us_f64());
            without.push(off.as_us_f64());
        }
        // with canonicalization all constructions of one object cost the
        // same; without, they diverge
        let ((on_min, on_max), (off_min, off_max)) = (range(with), range(without));
        spreads += &format!(
            "\n{}: construction spread with canon {:.2}x, without {:.2}x\n",
            obj.label(),
            on_max / on_min,
            off_max / off_min
        );
    }
    Ok(format!(
        "Ablation: canonicalization on vs off (TEMPI pack, Summit)\n\n{t}{spreads}"
    ))
}

/// TEMPI specializes each kernel to the largest GPU-native word that is
/// aligned to the object and divides `counts[0]` (§3.3); forcing `W = 1`
/// quantifies what the wide loads buy across block sizes.
fn ablation_word() -> MpiResult<String> {
    let w1 = Side::Tempi(TempiConfig {
        force_word: Some(1),
        ..TempiConfig::default()
    });
    let mut t = Table::new(["block", "auto W", "forced W=1", "gain"]);
    for block in [4usize, 16, 64, 256, 1024, 4096, 16384] {
        let cell = Obj2d::strided(1 << 20, block).cell(Platform::Summit, Construction::Vector)?;
        let (auto, forced) = (cell.pack(&Side::tempi())?, cell.pack(&w1)?);
        let gain = forced.as_ns_f64() / auto.as_ns_f64();
        t.row(&[&fmt_bytes(block), &auto, &forced, &format!("{gain:.2}x")]);
    }
    Ok(format!(
        "Ablation: selected word size vs forced W=1 (1 MiB objects, TEMPI pack)\n\n{t}"
    ))
}

/// The model-driven choice against always-one-shot (prior work's
/// preference), always-device and always-staged.
fn ablation_method() -> MpiResult<String> {
    let mut t = Table::new([
        "object",
        "block",
        "model",
        "its method",
        "one-shot",
        "device",
        "staged",
        "model regret",
    ]);
    for (total, block) in [
        (64usize << 10, 32usize),
        (64 << 10, 4096),
        (1 << 20, 16),
        (1 << 20, 8192),
        (4 << 20, 16),
        (4 << 20, 8192),
    ] {
        let cell = Obj2d::strided(total, block).cell(Platform::Summit, Construction::Vector)?;
        let us = |side: Side| cell.send_pair(&side).map(SimTime::as_us_f64);
        let model = us(Side::tempi())?;
        let oneshot = us(Side::forced(Method::OneShot))?;
        let device = us(Side::forced(Method::Device))?;
        let staged = us(Side::forced(Method::Staged))?;
        let regret = (model / oneshot.min(device).min(staged) - 1.0) * 100.0;
        t.row(&[
            &fmt_bytes(total),
            &fmt_bytes(block),
            &format!("{model:.1} us"),
            &cell.one_way(&Side::tempi(), 1, 1)?.1,
            &format!("{oneshot:.1} us"),
            &format!("{device:.1} us"),
            &format!("{staged:.1} us"),
            &format!("{regret:.1}%"),
        ]);
    }
    Ok(format!(
        "Ablation: model-driven method choice vs forced methods (send/recv pair)\n\n{t}\
         \nthe model choice should track the per-row best; forced one-shot loses on\n\
         large strided objects, forced device loses on small contiguous ones;\n\
         the forced columns are the paper's section-5 methods, and where the model\n\
         picks a pipeline or a run cut (the runs shipped unpacked) it beats them all\n"
    ))
}

/// Chunk sizes for 1 / 4 / 16 MiB objects against the paper's three
/// methods and the model's own choice (nothing forced, no knob set).
fn ablation_pipeline() -> MpiResult<String> {
    let block = 4096usize;
    let mut out = String::new();
    for total in [1usize << 20, 4 << 20, 16 << 20] {
        let cell = Obj2d::strided(total, block).cell(Platform::Summit, Construction::Vector)?;
        let mut t = Table::new(["method", "time"]);
        let mut row = |method: String, side: Side| -> MpiResult<()> {
            let us = cell.send_pair(&side)?.as_us_f64();
            t.row(&[&method, &format!("{us:.1} us")]);
            Ok(())
        };
        for m in [Method::OneShot, Method::Device, Method::Staged] {
            row(format!("{m:?}"), Side::forced(m))?;
        }
        for chunk in [64usize << 10, 256 << 10, 1 << 20, 4 << 20] {
            if chunk < total {
                let config = TempiConfig {
                    force_method: Some(Method::Pipelined),
                    pipeline_chunk: Some(chunk),
                    ..TempiConfig::default()
                };
                row(
                    format!("Pipelined({})", fmt_bytes(chunk)),
                    Side::Tempi(config),
                )?;
            }
        }
        row("model (default)".to_string(), Side::tempi())?;
        out += &format!(
            "\nAblation: pipelining, {} object ({block} B blocks)\n\n{t}",
            fmt_bytes(total)
        );
    }
    Ok(out
        + "\npipelining hides pack/copy/unpack behind the wire; the optimum chunk\n\
           balances per-chunk overheads against overlap (paper §8: 'prior work\n\
           suggests that pipelining packing operations with MPI send operations\n\
           is optimal').\n")
}
