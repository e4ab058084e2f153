//! The Section-4 architecture in action: the same application code runs
//! against three "link orders" — no TEMPI, full TEMPI, and a partial
//! interposition — and the resolution log shows which library served each
//! MPI call (the moral equivalent of `LD_DEBUG=bindings`).
//!
//! Run: `cargo run --example interposer_demo`

use tempi::prelude::*;

/// The "application": commit a type, pack, send to self, receive, unpack.
fn app(ctx: &mut RankCtx, mpi: &mut InterposedMpi) -> MpiResult<()> {
    let dt = ctx.type_vector(64, 16, 64, MPI_BYTE)?;
    mpi.type_commit(ctx, dt)?;
    let span = 63 * 64 + 16;
    let src = ctx.gpu.malloc(span)?;
    let packed = ctx.gpu.malloc(1024)?;
    let mut pos = 0;
    mpi.pack(ctx, src, 1, dt, packed, 1024, &mut pos)?;
    mpi.send(ctx, src, 1, dt, 0, 7)?;
    mpi.recv(ctx, src, 1, dt, Some(0), Some(7))?;
    let mut pos = 0;
    mpi.unpack(ctx, packed, 1024, &mut pos, src, 1, dt)?;
    Ok(())
}

fn main() -> MpiResult<()> {
    let cfg = WorldConfig::summit(1);
    let scenarios: Vec<(&str, InterposedMpi)> = vec![
        (
            "system only (TEMPI not linked)",
            InterposedMpi::system_only(),
        ),
        (
            "TEMPI via LD_PRELOAD",
            InterposedMpi::new(TempiConfig::default()),
        ),
        (
            "partial interposition (only MPI_Pack/MPI_Unpack exported)",
            InterposedMpi::with_linker(
                TempiConfig::default(),
                Linker::with_overrides([MpiSymbol::Pack, MpiSymbol::Unpack]),
            ),
        ),
    ];

    for (name, mut mpi) in scenarios {
        let mut ctx = RankCtx::standalone(&cfg);
        let t0 = ctx.clock.now();
        app(&mut ctx, &mut mpi)?;
        let elapsed = ctx.clock.now() - t0;
        println!("=== {name} ===");
        println!("symbol resolution:");
        for (sym, provider) in mpi.log() {
            println!("  {sym:?} -> {provider:?}");
        }
        println!("virtual time: {elapsed}\n");
    }
    println!(
        "note how uncovered symbols fall through to the system MPI\n\
         automatically — the property that lets TEMPI deploy on unmodified\n\
         applications (paper Fig. 5)."
    );
    Ok(())
}
