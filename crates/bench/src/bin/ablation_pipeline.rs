//! Ablation: the §8 pipelining extension.
//!
//! Sweeps chunk sizes for 1 / 4 / 16 MiB objects and compares the
//! measured pipelined send against the paper's three methods. Expected
//! shape: pipelining beats everything for large coarse-grained objects
//! (it hides pack, D2H, H2D and unpack behind the wire), with an optimum
//! chunk size — too small pays per-chunk overheads, too large stops
//! overlapping.
//!
//! Run: `cargo run --release -p tempi-bench --bin ablation_pipeline`

use tempi_bench::{fmt_bytes, send_pair_time, Construction, Mode, Obj2d, Platform, Table};
use tempi_core::config::{Method, TempiConfig};

fn main() {
    let block = 4096usize;
    let chunks = [64usize << 10, 256 << 10, 1 << 20, 4 << 20];
    for total in [1usize << 20, 4 << 20, 16 << 20] {
        let obj = Obj2d {
            incount: 1,
            block,
            count: total / block,
            stride: block * 2,
        };
        let run = |config: TempiConfig| -> f64 {
            send_pair_time(
                Platform::Summit,
                Mode::Tempi,
                config,
                |ctx| obj.tree(Construction::Vector)?.build(ctx),
                1,
                obj.span(),
            )
            .expect("send")
            .as_us_f64()
        };
        println!(
            "\nAblation: pipelining, {} object ({} B blocks)\n",
            fmt_bytes(total),
            block
        );
        let mut t = Table::new(&["method", "time"]);
        for m in [Method::OneShot, Method::Device, Method::Staged] {
            let us = run(TempiConfig {
                force_method: Some(m),
                ..TempiConfig::default()
            });
            t.row(&[&format!("{m:?}"), &format!("{us:.1} us")]);
        }
        for chunk in chunks {
            if chunk >= total {
                continue;
            }
            let us = run(TempiConfig {
                force_method: Some(Method::Pipelined),
                pipeline_chunk: Some(chunk),
                ..TempiConfig::default()
            });
            t.row(&[
                &format!("Pipelined({})", fmt_bytes(chunk)),
                &format!("{us:.1} us"),
            ]);
        }
        // the model-driven choice: nothing forced, no knob set
        let us = run(TempiConfig::default());
        t.row(&[&"model (default)", &format!("{us:.1} us")]);
        t.print();
    }
    println!(
        "\npipelining hides pack/copy/unpack behind the wire; the optimum chunk\n\
         balances per-chunk overheads against overlap (paper §8: 'prior work\n\
         suggests that pipelining packing operations with MPI send operations\n\
         is optimal')."
    );
}
