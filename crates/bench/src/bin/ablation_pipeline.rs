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

use serde::Serialize;
use tempi_bench::{fmt_bytes, send_pair_time, Construction, Mode, Obj2d, Platform, Table};
use tempi_core::config::{Method, TempiConfig};

#[derive(Serialize)]
struct Row {
    object_bytes: usize,
    chunk_bytes: Option<usize>,
    method: String,
    time_us: f64,
}

fn main() {
    let block = 4096usize;
    let chunks = [64usize << 10, 256 << 10, 1 << 20, 4 << 20];
    let mut rows = Vec::new();
    for total in [1usize << 20, 4 << 20, 16 << 20] {
        let obj = Obj2d {
            incount: 1,
            block,
            count: total / block,
            stride: block * 2,
        };
        let run = |config: TempiConfig, label: String| -> Row {
            let t = send_pair_time(
                Platform::Summit,
                Mode::Tempi,
                config,
                |ctx| obj.build(ctx, Construction::Vector),
                1,
                obj.span(),
            )
            .expect("send");
            Row {
                object_bytes: total,
                chunk_bytes: None,
                method: label,
                time_us: t.as_us_f64(),
            }
        };
        println!(
            "\nAblation: pipelining, {} object ({} B blocks)\n",
            fmt_bytes(total),
            block
        );
        let mut t = Table::new(&["method", "time"]);
        let mut all = Vec::new();
        for m in [Method::OneShot, Method::Device, Method::Staged] {
            let r = run(
                TempiConfig {
                    force_method: Some(m),
                    ..TempiConfig::default()
                },
                format!("{m:?}"),
            );
            t.row(&[&r.method, &format!("{:.1} us", r.time_us)]);
            all.push(r);
        }
        for chunk in chunks {
            if chunk >= total {
                continue;
            }
            let mut r = run(
                TempiConfig {
                    force_method: Some(Method::Pipelined),
                    pipeline_chunk: Some(chunk),
                    ..TempiConfig::default()
                },
                format!("Pipelined({})", fmt_bytes(chunk)),
            );
            r.chunk_bytes = Some(chunk);
            t.row(&[&r.method, &format!("{:.1} us", r.time_us)]);
            all.push(r);
        }
        // the model-driven choice: nothing forced, no knob set
        let r = run(TempiConfig::default(), "model (default)".to_string());
        t.row(&[&r.method, &format!("{:.1} us", r.time_us)]);
        all.push(r);
        t.print();
        rows.extend(all);
    }
    println!(
        "\npipelining hides pack/copy/unpack behind the wire; the optimum chunk\n\
         balances per-chunk overheads against overlap (paper §8: 'prior work\n\
         suggests that pipelining packing operations with MPI send operations\n\
         is optimal')."
    );
    tempi_bench::write_json("ablation_pipeline", &rows);
}
