//! Ablation: the kernel word size `W`.
//!
//! TEMPI specializes each kernel to the largest GPU-native word that is
//! aligned to the object and divides `counts[0]` (§3.3). Forcing `W = 1`
//! quantifies what the wide loads buy across block sizes: nothing at tiny
//! blocks (coalescing dominates) and a substantial factor once blocks are
//! wide enough to be word-limited.
//!
//! Run: `cargo run --release -p tempi-bench --bin ablation_word`

use tempi_bench::{fmt_bytes, pack_time, Construction, Mode, Obj2d, Platform, Table};
use tempi_core::config::TempiConfig;

fn main() {
    println!("Ablation: selected word size vs forced W=1 (1 MiB objects, TEMPI pack)\n");
    let mut t = Table::new(&["block", "auto W", "forced W=1", "gain"]);
    let total = 1usize << 20;
    for block in [4usize, 16, 64, 256, 1024, 4096, 16384] {
        let obj = Obj2d {
            incount: 1,
            block,
            count: total / block,
            stride: block * 2,
        };
        let auto = pack_time(
            Platform::Summit,
            Mode::Tempi,
            TempiConfig::default(),
            |ctx| obj.tree(Construction::Vector)?.build(ctx),
            1,
            obj.span(),
        )
        .expect("auto");
        let w1 = pack_time(
            Platform::Summit,
            Mode::Tempi,
            TempiConfig {
                force_word: Some(1),
                ..TempiConfig::default()
            },
            |ctx| obj.tree(Construction::Vector)?.build(ctx),
            1,
            obj.span(),
        )
        .expect("w1");
        let gain = w1.as_ns_f64() / auto.as_ns_f64();
        t.row(&[
            &fmt_bytes(block),
            &format!("{auto}"),
            &format!("{w1}"),
            &format!("{gain:.2}x"),
        ]);
    }
    t.print();
}
