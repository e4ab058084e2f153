//! `figures`: regenerate the paper's figures in deterministic virtual time.
//!
//! `figures NAME…` prints those figures ([`tempi_bench::FIGURES`]), each
//! byte for byte what `results/logs/NAME.txt` records; bare `figures`
//! prints the index. `TEMPI_BENCH_FULL=1` runs `fig07` and `fig12` at the
//! paper-scale sizes.
//!
//! Run: `cargo run --release -p tempi-bench --bin figures -- fig11 fig12`

use tempi_bench::{figure, FIGURES};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        for f in &FIGURES {
            println!("{:<18} {}", f.name, f.about);
        }
    }
    // a misspelt name fails before anything is measured
    let selected: Vec<_> = (names.iter())
        .map(|name| {
            figure(name).unwrap_or_else(|| {
                eprintln!("figures: no figure `{name}` (bare `figures` lists them)");
                std::process::exit(2);
            })
        })
        .collect();
    for f in selected {
        match (f.render)() {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("figures: {}: {e}", f.name);
                std::process::exit(1);
            }
        }
    }
}
