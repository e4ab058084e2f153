//! Ablation: the Section-5 method selection.
//!
//! Compares the model-driven choice against always-one-shot (prior work's
//! preference), always-device, and always-staged across object sizes and
//! block sizes. The model-driven send should never lose to either forced
//! strategy by more than measurement-noise, while each forced strategy has
//! a region where it loses badly — the paper's argument for the model.
//!
//! Run: `cargo run --release -p tempi-bench --bin ablation_method`

use tempi_bench::{fmt_bytes, send_pair_time, Construction, Mode, Obj2d, Platform, Table};
use tempi_core::config::{Method, TempiConfig};

fn main() {
    println!("Ablation: model-driven method choice vs forced methods (send/recv pair)\n");
    let mut t = Table::new(&[
        "object",
        "block",
        "model",
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
        let obj = Obj2d {
            incount: 1,
            block,
            count: total / block,
            stride: block * 2,
        };
        let run = |force: Option<Method>| {
            send_pair_time(
                Platform::Summit,
                Mode::Tempi,
                TempiConfig {
                    force_method: force,
                    ..TempiConfig::default()
                },
                |ctx| obj.tree(Construction::Vector)?.build(ctx),
                1,
                obj.span(),
            )
            .expect("send")
            .as_us_f64()
        };
        let model = run(None);
        let oneshot = run(Some(Method::OneShot));
        let device = run(Some(Method::Device));
        let staged = run(Some(Method::Staged));
        let best = oneshot.min(device).min(staged);
        let regret = (model / best - 1.0) * 100.0;
        t.row(&[
            &fmt_bytes(total),
            &fmt_bytes(block),
            &format!("{model:.1} us"),
            &format!("{oneshot:.1} us"),
            &format!("{device:.1} us"),
            &format!("{staged:.1} us"),
            &format!("{regret:.1}%"),
        ]);
    }
    t.print();
    println!(
        "\nthe model choice should track the per-row best; forced one-shot loses on\n\
         large strided objects, forced device loses on small contiguous ones"
    );
}
