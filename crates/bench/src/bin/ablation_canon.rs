//! Ablation: the value of canonicalization (Algorithms 5–7).
//!
//! With `canonicalize = false`, TEMPI still translates and still launches
//! kernels, but parameterizes them from the *raw translated* tree. The two
//! consequences the paper's design predicts:
//!
//! 1. **Equivalent-construction parity breaks** — the same object built as
//!    vector vs hvector vs subarray gets different kernel plans, so the
//!    paper's "equal treatment of equal objects" property disappears;
//! 2. **Performance collapses for compositions** whose raw trees have
//!    non-folded dense leaves: the innermost contiguous run (`counts[0]`)
//!    is the named type's size (1 byte for `MPI_BYTE` rows) instead of the
//!    folded block, destroying coalescing.
//!
//! Run: `cargo run --release -p tempi-bench --bin ablation_canon`

use tempi_bench::{fmt_speedup, pack_time, Mode, Obj2d, Platform, Table};
use tempi_core::config::TempiConfig;

fn main() {
    let objects = [
        Obj2d {
            incount: 1,
            block: 64,
            count: 1024,
            stride: 128,
        },
        Obj2d {
            incount: 1,
            block: 512,
            count: 2048,
            stride: 1024,
        },
        Obj2d {
            incount: 1,
            block: 4096,
            count: 256,
            stride: 8192,
        },
    ];
    println!("Ablation: canonicalization on vs off (TEMPI pack, Summit)\n");
    let mut t = Table::new(&["object", "construction", "canon", "no canon", "gain"]);
    for obj in objects {
        for c in obj.constructions() {
            let on = pack_time(
                Platform::Summit,
                Mode::Tempi,
                TempiConfig::default(),
                |ctx| obj.tree(c)?.build(ctx),
                1,
                obj.span(),
            )
            .expect("canon pack");
            let off = pack_time(
                Platform::Summit,
                Mode::Tempi,
                TempiConfig {
                    canonicalize: false,
                    ..TempiConfig::default()
                },
                |ctx| obj.tree(c)?.build(ctx),
                1,
                obj.span(),
            )
            .expect("no-canon pack");
            let gain = off.as_ns_f64() / on.as_ns_f64();
            t.row(&[
                &obj.label(),
                &c.label(),
                &format!("{on}"),
                &format!("{off}"),
                &fmt_speedup(gain),
            ]);
        }
    }
    t.print();

    // parity check: with canonicalization, all constructions of one object
    // cost the same; without, they diverge
    for obj in objects {
        let spread = |config: TempiConfig| -> (f64, f64) {
            let times: Vec<f64> = obj
                .constructions()
                .iter()
                .map(|&c| {
                    pack_time(
                        Platform::Summit,
                        Mode::Tempi,
                        config.clone(),
                        |ctx| obj.tree(c)?.build(ctx),
                        1,
                        obj.span(),
                    )
                    .expect("pack")
                    .as_us_f64()
                })
                .collect();
            (
                times.iter().cloned().fold(f64::INFINITY, f64::min),
                times.iter().cloned().fold(0.0, f64::max),
            )
        };
        let (on_min, on_max) = spread(TempiConfig::default());
        let (off_min, off_max) = spread(TempiConfig {
            canonicalize: false,
            ..TempiConfig::default()
        });
        println!(
            "\n{}: construction spread with canon {:.2}x, without {:.2}x",
            obj.label(),
            on_max / on_min,
            off_max / off_min
        );
    }
}
