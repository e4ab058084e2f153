//! The Fig. 1 / Fig. 2 walkthrough: three different MPI constructions of
//! the same 3-D object, their translated IR trees, and the single
//! canonical form they all collapse to.
//!
//! Run: `cargo run --example datatype_zoo`

use tempi::core::ir::strided_block::strided_block;
use tempi::core::ir::transform::simplify;
use tempi::core::ir::translate::translate_strided;
use tempi::prelude::*;

fn main() -> MpiResult<()> {
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));

    // The paper's object: E = (100, 13, 47) bytes inside an allocation of
    // A = (256, 512, 1024) bytes.
    println!("3-D object: 100 x 13 x 47 bytes in a 256 x 512 x 1024 B allocation\n");

    let mut build = |spec: &str| spec.parse::<TypeTree>()?.build(&mut ctx);

    // Construction 1: 2-D subarray plane + vector of planes.
    let cuboid1 = build("vector(47, 1, 1, subarray([512,256],[13,100],[0,0],byte))")?;

    // Construction 2: nested hvectors over a byte row.
    let cuboid2 = build("hvector(47, 1, 131072, hvector(13, 1, 256, vector(100, 1, 1, byte)))")?;

    // Construction 3: one 3-D subarray.
    let cuboid3 = build("subarray([1024,512,256],[47,13,100],[0,0,0],byte)")?;

    let registry = ctx.registry().clone();
    for (name, dt) in [
        ("vector(subarray plane)", cuboid1),
        ("hvector(hvector(vector))", cuboid2),
        ("3-D subarray", cuboid3),
    ] {
        println!("=== {name} ===");
        println!("MPI construction: {}\n", ctx.describe(dt));
        let tree = {
            let mut reg = registry.write();
            translate_strided(&mut *reg, dt)?
        };
        println!("translated IR ({} nodes):\n{tree}", tree.node_count());
        let (canon, passes) = simplify(tree);
        println!(
            "canonical form after {passes} fixed-point pass(es) ({} nodes):\n{canon}",
            canon.node_count()
        );
        let sb = strided_block(&canon).expect("canonical chains convert");
        println!(
            "StridedBlock: start={}, counts={:?}, strides={:?}\n",
            sb.start, sb.counts, sb.strides
        );
    }

    // And the punchline: all three commit to the identical kernel plan.
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let mut plans = Vec::new();
    for dt in [cuboid1, cuboid2, cuboid3] {
        mpi.type_commit(&mut ctx, dt)?;
        plans.push(mpi.tempi.plan(dt).expect("committed"));
    }
    assert_eq!(plans[0].kind, plans[1].kind);
    assert_eq!(plans[1].kind, plans[2].kind);
    println!("all three constructions selected the identical kernel plan ✓");
    Ok(())
}
