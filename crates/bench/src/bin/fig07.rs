//! Fig. 7: TEMPI `MPI_Pack` speedup vs the system implementations.
//!
//! Three parts, as in the paper:
//!   (a) 1 KiB 2-D objects, equivalently expressed as vector / hvector /
//!       subarray (contiguous where applicable);
//!   (b) 1 MiB 2-D objects — where the headline 720,400× lives;
//!   (c) 3-D boxes inside a cubic byte allocation (the paper uses 1024³ B;
//!       default here is 256³, set `TEMPI_BENCH_FULL=1` for 1024³).
//!
//! MVAPICH's specialized root-vector handling (speedup ≈ 1) and its buggy
//! contiguous path (omitted rows, as in the paper) are reproduced.
//!
//! Run: `cargo run --release -p tempi-bench --bin fig07`

use tempi_bench::{fmt_bytes, fmt_speedup, pack_time, Mode, Obj2d, Obj3d, Platform, Table};
use tempi_core::config::TempiConfig;

/// Prints one 2-D part and appends every speedup that is not omitted.
fn measure_2d(part: &'static str, total: usize, speedups: &mut Vec<f64>) {
    println!(
        "\nFig. 7{part}: MPI_Pack speedup, {} 2-D objects",
        fmt_bytes(total)
    );
    let mut t = Table::new(&["object", "construction", "mv", "op", "sp"]);
    for obj in Obj2d::sweep(total) {
        for c in obj.constructions() {
            let mut cells: Vec<String> = Vec::new();
            for platform in Platform::ALL {
                // MVAPICH contiguous results omitted: its contiguous pack
                // returns before the copy completes (semantic bug).
                let omitted = platform == Platform::Mvapich && obj.is_contiguous();
                let tempi = pack_time(
                    platform,
                    Mode::Tempi,
                    TempiConfig::default(),
                    |ctx| obj.tree(c)?.build(ctx),
                    obj.incount,
                    obj.span(),
                )
                .expect("tempi pack");
                let system = pack_time(
                    platform,
                    Mode::System,
                    TempiConfig::default(),
                    |ctx| obj.tree(c)?.build(ctx),
                    obj.incount,
                    obj.span(),
                )
                .expect("system pack");
                let speedup = system.as_ns_f64() / tempi.as_ns_f64();
                cells.push(if omitted {
                    "(omitted)".to_string()
                } else {
                    fmt_speedup(speedup)
                });
                if !omitted {
                    speedups.push(speedup);
                }
            }
            t.row(&[&obj.label(), &c.label(), &cells[0], &cells[1], &cells[2]]);
        }
    }
    t.print();
}

fn measure_3d(alloc: usize, speedups: &mut Vec<f64>) {
    println!("\nFig. 7c: MPI_Pack speedup, 3-D objects in a {alloc}^3 B allocation");
    let mut t = Table::new(&["x|y|z", "construction", "mv", "op", "sp"]);
    for obj in Obj3d::sweep(alloc) {
        for c in obj.constructions() {
            let mut cells: Vec<String> = Vec::new();
            for platform in Platform::ALL {
                let span = alloc * alloc * alloc;
                let tempi = pack_time(
                    platform,
                    Mode::Tempi,
                    TempiConfig::default(),
                    |ctx| obj.tree(c)?.build(ctx),
                    1,
                    span,
                )
                .expect("tempi pack");
                let system = pack_time(
                    platform,
                    Mode::System,
                    TempiConfig::default(),
                    |ctx| obj.tree(c)?.build(ctx),
                    1,
                    span,
                )
                .expect("system pack");
                let speedup = system.as_ns_f64() / tempi.as_ns_f64();
                cells.push(fmt_speedup(speedup));
                speedups.push(speedup);
            }
            t.row(&[&obj.label(), &c.label(), &cells[0], &cells[1], &cells[2]]);
        }
    }
    t.print();
}

fn main() {
    let full = std::env::var("TEMPI_BENCH_FULL").is_ok();
    let mut speedups = Vec::new();
    measure_2d("a", 1 << 10, &mut speedups);
    measure_2d("b", 1 << 20, &mut speedups);
    measure_3d(if full { 1024 } else { 256 }, &mut speedups);

    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "\nOverall speedup range: {} to {} (paper: 0.89x to 720,400x)",
        fmt_speedup(min),
        fmt_speedup(max)
    );
}
