//! Table 1: experimental platform summaries.
//!
//! Run: `cargo run -p tempi-bench --bin table1`

use tempi_bench::{Platform, Table};

fn main() {
    let mut table = Table::new(&[
        "Name",
        "MPI",
        "CPU",
        "GPU",
        "GPU mem",
        "ranks/node",
        "cpu-cpu floor",
        "gpu-gpu floor",
    ]);
    for p in [Platform::Summit, Platform::OpenMpi, Platform::Mvapich] {
        let w = p.world(1);
        let name = match p {
            Platform::Summit => "OLCF Summit",
            Platform::OpenMpi => "openmpi",
            Platform::Mvapich => "mvapich",
        };
        let cpu = match p {
            Platform::Summit => "IBM POWER9",
            _ => "AMD Ryzen 7 3700x",
        };
        let mpi = format!("{} {}", w.vendor.mpi_name, w.vendor.version);
        let rpn = if w.net.ranks_per_node == usize::MAX {
            "all".to_string()
        } else {
            w.net.ranks_per_node.to_string()
        };
        let cpu_floor = w.net.cpu_latency_inter.as_us_f64();
        let gpu_floor = w.net.gpu_latency_inter.as_us_f64();
        table.row(&[
            &name,
            &mpi,
            &cpu,
            &w.device.name,
            &format!("{} GiB", w.device.global_mem_bytes >> 30),
            &rpn,
            &format!("{cpu_floor:.1} us"),
            &format!("{gpu_floor:.1} us"),
        ]);
    }
    println!("Table 1: Experimental Platform Summaries (simulated)\n");
    table.print();
}
