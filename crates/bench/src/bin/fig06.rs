//! Fig. 6: MPI derived-type create + commit time, per implementation.
//!
//! For each construction in the evaluation set, reports the "create" time
//! (the `MPI_Type_*` constructor calls) and the "commit" time with plain
//! system MPI vs with TEMPI interposed, plus TEMPI's commit slowdown —
//! the paper reports 2.1–5.5× (mvapich), 3.5–6.8× (openmpi) and 4.2–11.6×
//! (Summit).
//!
//! Run: `cargo run --release -p tempi-bench --bin fig06`

use tempi_bench::{commit_breakdown, fig6_set, Platform, Table};

struct Row {
    platform: &'static str,
    object: String,
    create_us: f64,
    commit_system_us: f64,
    commit_tempi_us: f64,
    slowdown: f64,
    introspection_calls: u64,
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    for platform in Platform::ALL {
        for (label, obj) in fig6_set() {
            let b = commit_breakdown(platform, |ctx| obj.build(ctx)).expect("measurement");
            rows.push(Row {
                platform: platform.label(),
                object: label.to_string(),
                create_us: b.create.as_us_f64(),
                commit_system_us: b.commit_system.as_us_f64(),
                commit_tempi_us: b.commit_tempi.as_us_f64(),
                slowdown: b.slowdown(),
                introspection_calls: b.introspection_calls,
            });
        }
    }

    println!("Fig. 6: type create + commit breakdown (virtual time)\n");
    let mut t = Table::new(&[
        "impl",
        "object",
        "create",
        "commit (system)",
        "commit (TEMPI)",
        "slowdown",
        "introspect calls",
    ]);
    for r in &rows {
        t.row(&[
            &r.platform,
            &r.object,
            &format!("{:.2} us", r.create_us),
            &format!("{:.2} us", r.commit_system_us),
            &format!("{:.2} us", r.commit_tempi_us),
            &format!("{:.1}x", r.slowdown),
            &r.introspection_calls,
        ]);
    }
    t.print();

    for platform in Platform::ALL {
        let s: Vec<f64> = rows
            .iter()
            .filter(|r| r.platform == platform.label())
            .map(|r| r.slowdown)
            .collect();
        let (lo, hi) = (
            s.iter().cloned().fold(f64::INFINITY, f64::min),
            s.iter().cloned().fold(0.0, f64::max),
        );
        println!(
            "\n{}: TEMPI commit slowdown {:.1}x - {:.1}x (paper: {})",
            platform.label(),
            lo,
            hi,
            match platform {
                Platform::Mvapich => "2.1x - 5.5x",
                Platform::OpenMpi => "3.5x - 6.8x",
                Platform::Summit => "4.2x - 11.6x",
            }
        );
    }
}
