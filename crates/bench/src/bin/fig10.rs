//! Fig. 10: measured vs modeled `MPI_Send` for the one-shot and device
//! packing strategies.
//!
//! For 1 MiB and 4 MiB 2-D objects across contiguous block sizes, runs an
//! actual two-rank ping-pong with the method *forced* to one-shot or
//! device (measured), and evaluates the Section-5 equations with the same
//! parameters (modeled). The paper's finding: at 1 MiB one-shot is faster;
//! at 4 MiB device is faster; the models track the measurements except for
//! very small blocks.
//!
//! Run: `cargo run --release -p tempi-bench --bin fig10`

use tempi_bench::{fmt_bytes, send_pair_time, Construction, Mode, Obj2d, Platform, Table};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::model::SendModel;

fn main() {
    let model = SendModel::summit_internode();
    for total in [1usize << 20, 4 << 20] {
        println!(
            "\nFig. 10: send time for a {} object (measured | modeled)\n",
            fmt_bytes(total)
        );
        let mut t = Table::new(&[
            "block",
            "oneshot meas",
            "oneshot model",
            "device meas",
            "device model",
            "faster",
        ]);
        for block in [8usize, 32, 128, 512, 2048, 8192, 65536] {
            let obj = Obj2d {
                incount: 1,
                block,
                count: total / block,
                stride: block * 2,
            };
            let measure = |m: Method| {
                send_pair_time(
                    Platform::Summit,
                    Mode::Tempi,
                    TempiConfig {
                        force_method: Some(m),
                        ..TempiConfig::default()
                    },
                    |ctx| obj.tree(Construction::Vector)?.build(ctx),
                    1,
                    obj.span(),
                )
                .expect("send")
                .as_us_f64()
            };
            let osh_meas = measure(Method::OneShot);
            let dev_meas = measure(Method::Device);
            // modeled with the plan's word size (same inputs TEMPI uses)
            let word =
                tempi_core::kernels::select_word(&tempi_core::ir::strided_block::StridedBlock {
                    start: 0,
                    counts: vec![block as i64, (total / block) as i64],
                    strides: vec![1, (block * 2) as i64],
                });
            let osh_model = model.t_oneshot(total, block, word).total().as_us_f64();
            let dev_model = model.t_device(total, block, word).total().as_us_f64();
            let winner = if dev_meas < osh_meas {
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
                &winner,
            ]);
        }
        t.print();
    }
    println!(
        "\npaper: one-shot wins the 1 MiB object, device wins the 4 MiB object;\n\
         models track measurements except at very small blocks"
    );
}
