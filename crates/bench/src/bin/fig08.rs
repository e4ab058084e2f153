//! Fig. 8: raw transfer measurements and the resulting performance models.
//!
//! (a) Measured T_d2h, T_h2d, T_cpu-cpu, T_gpu-gpu vs message size — the
//!     CUDA paths share an ≈11 µs floor, the CPU path a 2.2 µs floor.
//! (b) T_device / T_oneshot / T_staged *excluding pack time* — the region
//!     where T_cpu-cpu < T_gpu-gpu is never enough to make staged
//!     competitive.
//! (c) T_oneshot under hypothetical pack/unpack bandwidths, including the
//!     measured 4.5 µs kernel-launch time.
//!
//! Parts (a) are *measured* in the simulated world (actual ping-pongs /
//! actual stream operations); parts (b)-(c) evaluate the Section-5 model —
//! the same relationship the paper's figure has to its raw data.
//!
//! Run: `cargo run --release -p tempi-bench --bin fig08`

use gpu_sim::{SimClock, SimTime};
use mpi_sim::{World, WorldConfig};
use tempi_bench::{fmt_bytes, Table};
use tempi_core::model::SendModel;

fn sizes() -> Vec<usize> {
    (0..=26).step_by(2).map(|p| 1usize << p).collect()
}

/// Measured half-ping-pong between ranks 0 and 1 on different nodes.
fn measure_pingpong(bytes: usize, device: bool) -> SimTime {
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 1;
    let results = World::run(&cfg, |ctx| {
        let buf = if device {
            ctx.gpu.malloc(bytes.max(1))?
        } else {
            ctx.gpu.pinned_alloc(bytes.max(1))?
        };
        let peer = 1 - ctx.rank;
        ctx.barrier();
        let t0 = ctx.clock.now();
        if ctx.rank == 0 {
            ctx.send_bytes(buf, bytes, peer, 0)?;
            ctx.recv_bytes(buf, bytes, Some(peer), Some(0))?;
        } else {
            ctx.recv_bytes(buf, bytes, Some(peer), Some(0))?;
            ctx.send_bytes(buf, bytes, peer, 0)?;
        }
        Ok((ctx.clock.now() - t0).as_ps())
    })
    .expect("pingpong");
    SimTime::from_ps(results[0] / 2)
}

/// Measured `cudaMemcpyAsync` + synchronize on a standalone rank.
fn measure_memcpy(bytes: usize, d2h: bool) -> SimTime {
    let cfg = WorldConfig::summit(1);
    let mut ctx = mpi_sim::RankCtx::standalone(&cfg);
    let dev = ctx.gpu.malloc(bytes.max(1)).expect("alloc");
    let host = ctx.gpu.pinned_alloc(bytes.max(1)).expect("alloc");
    let (dst, src) = if d2h { (host, dev) } else { (dev, host) };
    let mut clock = SimClock::new();
    ctx.stream
        .memcpy_async(&mut clock, dst, src, bytes)
        .expect("memcpy");
    ctx.stream.synchronize(&mut clock);
    clock.now()
}

fn main() {
    let model = SendModel::summit_internode();

    println!("Fig. 8a: measured transfer primitives (half ping-pong / memcpy+sync)\n");
    let mut t = Table::new(&["size", "T_d2h", "T_h2d", "T_cpu-cpu", "T_gpu-gpu"]);
    for bytes in sizes() {
        let d2h = measure_memcpy(bytes, true);
        let h2d = measure_memcpy(bytes, false);
        let cpu = measure_pingpong(bytes, false);
        let gpu = measure_pingpong(bytes, true);
        t.row(&[
            &fmt_bytes(bytes),
            &format!("{}", d2h),
            &format!("{}", h2d),
            &format!("{}", cpu),
            &format!("{}", gpu),
        ]);
    }
    t.print();
    println!("\nfloors: gpu-gpu / d2h / h2d ≈ 11 us; cpu-cpu ≈ 2.2 us (paper Fig. 8a)");

    println!("\nFig. 8b: modeled methods excluding pack time\n");
    let mut t = Table::new(&["size", "T_device", "T_oneshot", "T_staged"]);
    for bytes in sizes() {
        let dev = model.t_gpu_gpu(bytes);
        let osh = model.t_cpu_cpu(bytes);
        let stg = model.t_d2h(bytes) + model.t_cpu_cpu(bytes) + model.t_h2d(bytes);
        t.row(&[
            &fmt_bytes(bytes),
            &format!("{dev}"),
            &format!("{osh}"),
            &format!("{stg}"),
        ]);
    }
    t.print();
    println!("\nstaged is never below device: the cpu-cpu advantage is consumed by D2H+H2D");

    println!("\nFig. 8c: modeled T_oneshot for hypothetical pack/unpack bandwidths\n");
    let bws = [5.0f64, 10.0, 20.0, 40.0, f64::INFINITY];
    let launch = model.gpu.kernel_launch_overhead + model.gpu.stream_sync_overhead;
    let mut t = Table::new(&["size", "5 GB/s", "10 GB/s", "20 GB/s", "40 GB/s", "inf"]);
    for bytes in sizes() {
        let mut cells = Vec::new();
        for &bw in &bws {
            let pack = if bw.is_infinite() {
                SimTime::ZERO
            } else {
                SimTime::from_ns_f64(bytes as f64 / bw)
            };
            let total = launch + pack + model.t_cpu_cpu(bytes) + launch + pack;
            cells.push(format!("{total}"));
        }
        t.row(&[
            &fmt_bytes(bytes),
            &cells[0],
            &cells[1],
            &cells[2],
            &cells[3],
            &cells[4],
        ]);
    }
    t.print();
    println!("\nlatency of one-shot depends heavily on pack/unpack performance (paper Fig. 8c)");
}
