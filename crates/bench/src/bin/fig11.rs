//! Fig. 11: time of an `MPI_Send`/`MPI_Recv` pair for 1 KiB / 1 MiB /
//! 4 MiB 2-D objects across contiguous block sizes — TEMPI (model-chosen
//! method) vs the system baseline.
//!
//! The paper's range: speedup 1.07× (large contiguous) to 59,000× (large
//! objects of small blocks).
//!
//! Run: `cargo run --release -p tempi-bench --bin fig11`

use tempi_bench::{
    fmt_bytes, fmt_speedup, send_pair_time, Construction, Mode, Obj2d, Platform, Table,
};
use tempi_core::config::TempiConfig;

fn main() {
    let mut speedups = Vec::new();
    for total in [1usize << 10, 1 << 20, 4 << 20] {
        println!(
            "\nFig. 11: send/recv pair time, {} 2-D objects\n",
            fmt_bytes(total)
        );
        let mut t = Table::new(&["block", "TEMPI", "Spectrum MPI", "speedup"]);
        let mut block = 8usize;
        while block <= total {
            let obj = if block == total {
                Obj2d {
                    incount: 1,
                    block,
                    count: 1,
                    stride: block,
                }
            } else {
                Obj2d {
                    incount: 1,
                    block,
                    count: total / block,
                    stride: block * 2,
                }
            };
            let run = |mode: Mode| {
                send_pair_time(
                    Platform::Summit,
                    mode,
                    TempiConfig::default(),
                    |ctx| obj.tree(Construction::Hvector)?.build(ctx),
                    1,
                    obj.span(),
                )
                .expect("send pair")
            };
            let tempi = run(Mode::Tempi);
            let system = run(Mode::System);
            let speedup = system.as_ns_f64() / tempi.as_ns_f64();
            t.row(&[
                &format!("{block} B"),
                &format!("{tempi}"),
                &format!("{system}"),
                &fmt_speedup(speedup),
            ]);
            speedups.push(speedup);
            block *= 8;
        }
        t.print();
    }
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "\nspeedup range {} - {} (paper: 1.07x - 59,000x)",
        fmt_speedup(min),
        fmt_speedup(max)
    );
}
