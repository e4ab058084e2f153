//! Fig. 9: pack/unpack performance, "one-shot" vs "device" strategies.
//!
//! Sweeps object sizes 64 B – 4 MiB × contiguous block sizes, measuring
//! TEMPI's kernels packing device → device (the *device* method's pack)
//! and device → mapped-host (the *one-shot* pack), plus the two unpack
//! directions. Reports both the time and the achieved throughput; the
//! paper's peaks are 212 / 202 GB/s (device pack/unpack) and 32.5 / 39
//! GB/s (one-shot), with coalescing knees at 32 B (device) and 128 B
//! (one-shot).
//!
//! Run: `cargo run --release -p tempi-bench --bin fig09`

use gpu_sim::{MemSpace, PackDir};
use mpi_sim::{MpiResult, RankCtx, WorldConfig};
use tempi_bench::{fmt_bytes, Table};
use tempi_core::config::TempiConfig;
use tempi_core::tempi::{PlanKind, Tempi};

struct Row {
    strategy: &'static str,
    dir: &'static str,
    gbps: f64,
}

/// Time one TEMPI kernel pack/unpack of the (total, block) object with the
/// packed side in `packed_space`.
fn kernel_time(total: usize, block: usize, dir: PackDir, packed_space: MemSpace) -> MpiResult<f64> {
    let cfg = WorldConfig::summit(1);
    let mut ctx = RankCtx::standalone(&cfg);
    let mut tempi = Tempi::new(TempiConfig::default());
    let count = total / block;
    let dt = ctx.type_vector(
        count as i32,
        block as i32,
        (block * 2) as i32,
        mpi_sim::consts::MPI_BYTE,
    )?;
    let plan = tempi.type_commit(&mut ctx, dt)?;
    let kp = match &plan.kind {
        PlanKind::Strided(kp) => kp.clone(),
        other => panic!("expected strided plan, got {other:?}"),
    };
    let span = count * block * 2;
    let strided = ctx.gpu.malloc(span)?;
    let packed = match packed_space {
        MemSpace::Device => ctx.gpu.malloc(total)?,
        MemSpace::Mapped => ctx.gpu.mapped_alloc(total)?,
        _ => unreachable!(),
    };
    let t0 = ctx.clock.now();
    tempi_core::kernels::execute_strided(
        &kp,
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

fn main() {
    let objects: Vec<usize> = (6..=22).step_by(2).map(|p| 1usize << p).collect(); // 64 B – 4 MiB
    let blocks: Vec<usize> = vec![1, 4, 8, 12, 16, 24, 32, 64, 128, 512, 4096];

    let mut rows = Vec::new();
    for (strategy, space) in [("oneshot", MemSpace::Mapped), ("device", MemSpace::Device)] {
        for (dname, dir) in [("pack", PackDir::Pack), ("unpack", PackDir::Unpack)] {
            println!("\nFig. 9: {strategy} {dname} time (us) by object size × block size\n");
            let mut headers: Vec<String> = vec!["object".to_string()];
            headers.extend(blocks.iter().map(|b| format!("{b} B")));
            let hrefs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut t = Table::new(&hrefs);
            for &total in &objects {
                let mut cells: Vec<String> = vec![fmt_bytes(total)];
                for &block in &blocks {
                    if block > total {
                        cells.push("-".to_string());
                        continue;
                    }
                    let us = kernel_time(total, block, dir, space).expect("kernel time");
                    // headline throughput is kernel-only (the fixed launch
                    // + synchronize overhead excluded, as the paper's
                    // "maximum achieved" peaks read)
                    let m = gpu_sim::GpuCostModel::summit_v100();
                    let overhead_us =
                        (m.kernel_launch_overhead + m.stream_sync_overhead).as_us_f64();
                    let gbps = total as f64 / ((us - overhead_us).max(0.01) * 1e3);
                    cells.push(format!("{us:.1}"));
                    rows.push(Row {
                        strategy,
                        dir: dname,
                        gbps,
                    });
                }
                let refs: Vec<&dyn std::fmt::Display> =
                    cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
                t.row(&refs);
            }
            t.print();
        }
    }

    // headline peaks
    for (strategy, dir) in [
        ("oneshot", "pack"),
        ("oneshot", "unpack"),
        ("device", "pack"),
        ("device", "unpack"),
    ] {
        let peak = rows
            .iter()
            .filter(|r| r.strategy == strategy && r.dir == dir)
            .map(|r| r.gbps)
            .fold(0.0f64, f64::max);
        let paper = match (strategy, dir) {
            ("oneshot", "pack") => 32.5,
            ("oneshot", "unpack") => 39.0,
            ("device", "pack") => 212.0,
            _ => 202.0,
        };
        println!("max {strategy} {dir} throughput: {peak:.1} GB/s (paper: {paper} GB/s)");
    }
}
