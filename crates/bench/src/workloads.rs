//! The paper's evaluation objects (Figs. 6, 7, 9, 10, 11) and the
//! equivalent MPI constructions of each, stated as [`TypeTree`] specs.

use mpi_sim::datatype::TypeTree;
use mpi_sim::{MpiError, MpiResult};

use crate::measure::{Cell, Platform};

/// How an object is expressed in MPI (the paper shows that TEMPI treats
/// all of these identically while baselines do not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Construction {
    /// `MPI_Type_contiguous` (only for fully contiguous objects).
    Contiguous,
    /// `MPI_Type_vector`.
    Vector,
    /// `MPI_Type_create_hvector` over a contiguous row.
    Hvector,
    /// A single n-D `MPI_Type_create_subarray`.
    Subarray,
    /// `MPI_Type_vector` of a 2-D subarray plane (Fig. 7c's "vector of
    /// subarrays", MVAPICH's fast case).
    VectorOfSubarray,
}

impl Construction {
    /// Short label used in figure rows.
    pub fn label(self) -> &'static str {
        match self {
            Construction::Contiguous => "contig",
            Construction::Vector => "vector",
            Construction::Hvector => "hvector",
            Construction::Subarray => "subarray",
            Construction::VectorOfSubarray => "vec(subarr)",
        }
    }
}

/// A 2-D strided object: `count` contiguous blocks of `block` bytes,
/// `stride` bytes apart, repeated `incount` times by the MPI call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obj2d {
    /// Items passed as the pack/send count.
    pub incount: usize,
    /// Contiguous block bytes.
    pub block: usize,
    /// Number of blocks.
    pub count: usize,
    /// Bytes between block starts.
    pub stride: usize,
}

impl Obj2d {
    /// The figures' strided object: `total` data bytes in blocks of `block`,
    /// 50% density (stride = 2 × block), sent as one item.
    pub fn strided(total: usize, block: usize) -> Obj2d {
        Obj2d {
            incount: 1,
            block,
            count: total / block,
            stride: block * 2,
        }
    }

    /// Objects of `item` data bytes per item: strided, with blocks from
    /// `first_block` up in steps of 8×, then fully contiguous.
    fn ladder(incount: usize, item: usize, first_block: usize) -> Vec<Obj2d> {
        let blocks = std::iter::successors(Some(first_block), |b| Some(b * 8));
        let mut v: Vec<Obj2d> = blocks
            .take_while(|&block| block < item)
            .map(|block| Obj2d {
                incount,
                ..Obj2d::strided(item, block)
            })
            .collect();
        v.push(Obj2d {
            incount,
            block: item,
            count: 1,
            stride: item,
        });
        v
    }

    /// Data bytes of one item.
    pub fn item_bytes(&self) -> usize {
        self.block * self.count
    }

    /// Total data bytes of the call.
    pub fn total_bytes(&self) -> usize {
        self.item_bytes() * self.incount
    }

    /// Bytes the source buffer must span.
    pub fn span(&self) -> usize {
        // items are extent apart; each item spans (count-1)*stride + block
        let item_span = (self.count - 1) * self.stride + self.block;
        // subarray extent = count*stride; allow for the larger
        self.incount * self.count * self.stride + item_span
    }

    /// Is the object actually contiguous (`block == stride` or one block)?
    pub fn is_contiguous(&self) -> bool {
        self.count == 1 || self.block == self.stride
    }

    /// The paper's row label (`incount|block|count` like "1|256|256").
    pub fn label(&self) -> String {
        format!("{}|{}|{}", self.incount, self.block, self.count)
    }

    /// The constructions applicable to this object.
    pub fn constructions(&self) -> Vec<Construction> {
        use Construction::{Contiguous, Hvector, Subarray, Vector};
        if self.is_contiguous() {
            vec![Contiguous, Vector, Hvector, Subarray]
        } else {
            vec![Vector, Hvector, Subarray]
        }
    }

    /// The datatype of one construction; `Err` for one that does not
    /// apply ([`Construction::Contiguous`] of an object with gaps).
    pub fn tree(&self, c: Construction) -> MpiResult<TypeTree> {
        let Obj2d {
            block,
            count,
            stride,
            ..
        } = *self;
        let plane = format!("subarray([{count},{stride}],[{count},{block}],[0,0],byte)");
        match c {
            Construction::Contiguous if self.is_contiguous() => {
                format!("contiguous({}, byte)", self.item_bytes())
            }
            Construction::Contiguous => return Err(not_applicable(c, &self.label())),
            Construction::Vector => format!("vector({count}, {block}, {stride}, byte)"),
            Construction::Hvector => {
                format!("hvector({count}, 1, {stride}, contiguous({block}, byte))")
            }
            Construction::Subarray => plane,
            Construction::VectorOfSubarray => format!("vector(1, 1, 1, {plane})"),
        }
        .parse()
    }

    /// This construction of the object as a measurement cell on `platform`.
    pub fn cell(&self, platform: Platform, c: Construction) -> MpiResult<Cell> {
        Ok(Cell {
            platform,
            tree: self.tree(c)?,
            incount: self.incount,
            span: self.span(),
        })
    }

    /// The Fig. 7a/7b sweep: objects of `total` data bytes with block
    /// sizes from 1 B up to fully contiguous, for `incount` ∈ {1, 2}.
    pub fn sweep(total: usize) -> Vec<Obj2d> {
        let per = |incount| Obj2d::ladder(incount, total / incount, 1);
        [per(1), per(2)].concat()
    }
}

/// The send sweep Fig. 11 and the `send` suite share: 1 KiB / 1 MiB / 4 MiB
/// objects with blocks from 8 B up, each total ending in its fully
/// contiguous object (which Fig. 11 leaves out).
pub fn send_sweep() -> Vec<Obj2d> {
    let totals = [1usize << 10, 1 << 20, 4 << 20];
    totals.map(|total| Obj2d::ladder(1, total, 8)).concat()
}

/// A 3-D object: an `x × y × z`-byte box inside a cubic byte allocation
/// (Fig. 7c uses a 1024³ B allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obj3d {
    /// Allocation edge in bytes.
    pub alloc: usize,
    /// Box extent (x = contiguous dimension) in bytes.
    pub x: usize,
    /// Box extent in rows.
    pub y: usize,
    /// Box extent in planes.
    pub z: usize,
}

impl Obj3d {
    /// Data bytes.
    pub fn total_bytes(&self) -> usize {
        self.x * self.y * self.z
    }

    /// Row label like "x|y|z".
    pub fn label(&self) -> String {
        format!("{}|{}|{}", self.x, self.y, self.z)
    }

    /// Constructions evaluated in Fig. 7c.
    pub fn constructions(&self) -> Vec<Construction> {
        vec![
            Construction::Subarray,
            Construction::Hvector,
            Construction::VectorOfSubarray,
        ]
    }

    /// The datatype of one construction; `Err` for one that does not
    /// apply to 3-D objects.
    pub fn tree(&self, c: Construction) -> MpiResult<TypeTree> {
        let Obj3d { alloc: a, x, y, z } = *self;
        match c {
            Construction::Subarray => {
                format!("subarray([{a},{a},{a}],[{z},{y},{x}],[0,0,0],byte)")
            }
            // row → plane of rows → box of planes
            Construction::Hvector => format!(
                "hvector({z}, 1, {}, hvector({y}, 1, {a}, contiguous({x}, byte)))",
                a * a
            ),
            // a 2-D subarray plane (extent = alloc² bytes = exactly one
            // plane), repeated by a vector — MVAPICH's specialized fast
            // path (root combiner is Vector)
            Construction::VectorOfSubarray => {
                format!("vector({z}, 1, 1, subarray([{a},{a}],[{y},{x}],[0,0],byte))")
            }
            other => return Err(not_applicable(other, &self.label())),
        }
        .parse()
    }

    /// This construction of the box as a measurement cell on `platform`,
    /// over the whole allocation.
    pub fn cell(&self, platform: Platform, c: Construction) -> MpiResult<Cell> {
        Ok(Cell {
            platform,
            tree: self.tree(c)?,
            incount: 1,
            span: self.alloc.pow(3),
        })
    }

    /// The Fig. 7c sweep within an `alloc³` allocation: thin in one
    /// dimension at a time, then the half-edge cube.
    pub fn sweep(alloc: usize) -> Vec<Obj3d> {
        let e = alloc / 2;
        let boxes = [
            (4, e, e),
            (16, e, e),
            (64, e, e),
            (e, 4, e),
            (e, e, 4),
            (e, e, e),
        ];
        boxes.map(|(x, y, z)| Obj3d { alloc, x, y, z }).into()
    }
}

fn not_applicable(c: Construction, object: &str) -> MpiError {
    MpiError::InvalidArg(format!("construction {c:?} does not apply to {object}"))
}

/// A table of `(row label, spec)` as `(row label, construction)`.
fn parsed<const N: usize>(rows: [(&'static str, &str); N]) -> Vec<(&'static str, TypeTree)> {
    let own = |spec: &str| spec.parse().expect("this file's own specs parse");
    rows.map(|(label, spec)| (label, own(spec))).into()
}

/// The performance-guidelines zoo, as `(stable row label, construction)`:
/// the Hunold/Träff ("MPI Derived Datatypes: Performance Expectations and
/// Status Quo") pattern families at a small and a large size where
/// meaningful, plus representatives of the existing fig-zoo, each through
/// the MPI construction a real application would use. Block counts stay
/// ≤ 1024 so the naive element-wise reference loop (one message per
/// block) stays tractable at every cell.
///
/// * `row/BYTES` — row extraction from a C-order matrix: one contiguous
///   run (the degenerate guideline case: a DDT send of contiguous data
///   must not lose to a plain byte send).
/// * `col/ROWSxELEM@ROW_BYTES` — column extraction: `MPI_Type_vector`.
/// * `blockcyclic/BLOCKSxBLOCK@CYCLE` — a block-cyclic distribution slice
///   as `MPI_Type_create_indexed_block`, the combiner a ScaLAPACK-style
///   decomposition produces: a vector's layout by another construction,
///   so it exercises canonicalization.
/// * `soa/FIELDSxTAKE@FIELD_BYTES` — struct-of-arrays extraction, the head
///   of each member array, as `MPI_Type_create_struct` over byte blocks:
///   few large blocks at large offsets, a combiner that defeats
///   subarray-style translation.
/// * `nested/PLANES@STRIDExROWSxBLOCK@STRIDE` — an hvector of a vector:
///   the 3-D box a naive application composes instead of one subarray.
/// * `fig2d/…`, `fig3d/…` — fig-zoo objects ([`Obj2d::label`] as hvector
///   like the `send` suite, [`Obj3d::label`] as one n-D subarray).
pub fn zoo() -> Vec<(&'static str, TypeTree)> {
    // `n` displacements `step` apart, as a spec list
    let every = |n: i64, step: i64| format!("{:?}", (0..n).map(|i| i * step).collect::<Vec<_>>());
    let blockcyclic = format!("indexed_block(128, {}, byte)", every(512, 512));
    let bytes = ["byte"; 8].join(",");
    let soa = format!("struct({:?}, {}, [{bytes}])", [2048; 8], every(8, 65536));
    parsed([
        ("row/65536", "contiguous(65536, byte)"),
        ("col/256x8@2048", "vector(256, 8, 2048, byte)"),
        ("col/1024x64@65536", "vector(1024, 64, 65536, byte)"),
        ("blockcyclic/512x128@512", &blockcyclic),
        ("soa/8x2048@65536", &soa),
        (
            "nested/32@8192x16x64@256",
            "hvector(32, 1, 8192, vector(16, 64, 256, byte))",
        ),
        (
            "fig2d/1|16|512",
            "hvector(512, 1, 32, contiguous(16, byte))",
        ),
        (
            "fig2d/1|4096|64",
            "hvector(64, 1, 8192, contiguous(4096, byte))",
        ),
        (
            "fig3d/32|16|16",
            "subarray([128,128,128],[16,16,32],[0,0,0],byte)",
        ),
    ])
}

/// The Fig. 6 object set: representative constructions whose create/commit
/// times are broken down per implementation — the 2-D object (100-byte
/// blocks × 13, stride 256), the Fig.-2 3-D object (100×13×47 in a 256³
/// allocation) and a contiguous megabyte.
pub fn fig6_set() -> Vec<(&'static str, TypeTree)> {
    parsed([
        ("2d-vector", "vector(13, 100, 256, byte)"),
        ("2d-hvector", "hvector(13, 1, 256, contiguous(100, byte))"),
        ("2d-subarray", "subarray([13,256],[13,100],[0,0],byte)"),
        (
            "3d-subarray",
            "subarray([256,256,256],[47,13,100],[0,0,0],byte)",
        ),
        (
            "3d-hvector",
            "hvector(47, 1, 65536, hvector(13, 1, 256, contiguous(100, byte)))",
        ),
        (
            "3d-vec(subarr)",
            "vector(47, 1, 1, subarray([256,256],[13,100],[0,0],byte))",
        ),
        ("contig-1MiB", "contiguous(1048576, byte)"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::consts::MPI_BYTE;
    use mpi_sim::datatype::typemap::segments;
    use mpi_sim::{RankCtx, WorldConfig};

    fn ctx() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    #[test]
    fn all_2d_constructions_are_equivalent() {
        let mut ctx = ctx();
        for obj in Obj2d::sweep(1 << 10) {
            let mut seglists = Vec::new();
            for c in obj.constructions() {
                let dt = obj.tree(c).unwrap().build(&mut ctx).unwrap();
                let reg = ctx.registry().read();
                seglists.push((c, segments(&reg, dt).unwrap()));
            }
            for w in seglists.windows(2) {
                assert_eq!(
                    w[0].1,
                    w[1].1,
                    "{:?} vs {:?} differ for {}",
                    w[0].0,
                    w[1].0,
                    obj.label()
                );
            }
        }
    }

    #[test]
    fn all_3d_constructions_are_equivalent() {
        let mut ctx = ctx();
        for obj in Obj3d::sweep(64) {
            let mut seglists = Vec::new();
            for c in obj.constructions() {
                let dt = obj.tree(c).unwrap().build(&mut ctx).unwrap();
                let reg = ctx.registry().read();
                seglists.push((c, segments(&reg, dt).unwrap()));
            }
            for w in seglists.windows(2) {
                assert_eq!(
                    w[0].1,
                    w[1].1,
                    "{:?} vs {:?} differ for {}",
                    w[0].0,
                    w[1].0,
                    obj.label()
                );
            }
        }
    }

    #[test]
    fn sweep_totals_are_exact() {
        for obj in Obj2d::sweep(1 << 20) {
            assert_eq!(obj.total_bytes(), 1 << 20, "{}", obj.label());
        }
        for obj in Obj2d::sweep(1 << 10) {
            assert_eq!(obj.total_bytes(), 1 << 10);
        }
        // the send sweep: 8 B blocks up, one contiguous object per total
        let sweep = send_sweep();
        assert_eq!(sweep.len(), 4 + 7 + 8);
        assert_eq!(sweep[0], Obj2d::strided(1 << 10, 8));
        assert_eq!(sweep.iter().filter(|o| o.is_contiguous()).count(), 3);
    }

    #[test]
    fn contiguous_objects_know_it() {
        let c = Obj2d {
            incount: 1,
            block: 1024,
            count: 1,
            stride: 1024,
        };
        assert!(c.is_contiguous());
        assert_eq!(c.constructions().len(), 4);
        let s = Obj2d {
            incount: 1,
            block: 4,
            count: 256,
            stride: 8,
        };
        assert!(!s.is_contiguous());
        assert_eq!(s.constructions().len(), 3);
        // a construction that does not apply is an error, not a panic
        assert!(s.tree(Construction::Contiguous).is_err());
        let cube = Obj3d::sweep(64)[0];
        assert!(cube.tree(Construction::Contiguous).is_err());
        assert!(cube.tree(Construction::Vector).is_err());
    }

    #[test]
    fn vector_of_subarray_root_combiner_is_vector() {
        let mut ctx = ctx();
        let o = Obj3d {
            alloc: 64,
            x: 16,
            y: 8,
            z: 8,
        };
        let tree = o.tree(Construction::VectorOfSubarray).unwrap();
        let dt = tree.build(&mut ctx).unwrap();
        assert_eq!(
            ctx.combiner(dt).unwrap(),
            mpi_sim::Combiner::Vector,
            "the MVAPICH fast path keys on a vector root"
        );
    }

    /// Every table row builds, reads back out of the registry as the tree
    /// it was built from, and prints a spec that parses to the same tree.
    #[test]
    fn zoo_and_fig6_rows_build_and_round_trip() {
        let mut ctx = ctx();
        let zoo = zoo();
        assert!(zoo.len() >= 9, "the expanded zoo shrank");
        assert_eq!(fig6_set().len(), 7);
        for (label, tree) in zoo.iter().chain(&fig6_set()) {
            let dt = tree
                .build(&mut ctx)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let reg = ctx.registry().read();
            assert_eq!(&TypeTree::of(&reg, dt).unwrap(), tree, "{label}");
            assert_eq!(&tree.to_string().parse::<TypeTree>().unwrap(), tree);
            let nblocks = segments(&reg, dt).unwrap().len();
            assert!(
                (1..=1024).contains(&nblocks),
                "{label}: {nblocks} blocks — the naive reference loop budget is 1024"
            );
        }
        // labels are unique — they name the cells of the guidelines report
        let mut labels: Vec<&str> = zoo.iter().map(|(label, _)| *label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), zoo.len(), "duplicate zoo labels");
    }

    #[test]
    fn block_cyclic_matches_equivalent_vector() {
        // same layout, different construction: the canonicalization claim
        // the guidelines gate leans on
        let mut ctx = ctx();
        let is_block_cyclic = |(label, _): &(&str, TypeTree)| label.starts_with("blockcyclic/");
        let (_, bc) = zoo().into_iter().find(is_block_cyclic).unwrap();
        assert!(bc
            .to_string()
            .starts_with("indexed_block(128, [0, 512, 1024,"));
        let dt = bc.build(&mut ctx).unwrap();
        let v = ctx.type_vector(512, 128, 512, MPI_BYTE).unwrap();
        let reg = ctx.registry().read();
        assert_eq!(
            segments(&reg, dt).unwrap(),
            segments(&reg, v).unwrap(),
            "indexed_block and vector describe the same block-cyclic slice"
        );
    }

    #[test]
    fn span_covers_type_true_extent() {
        let mut ctx = ctx();
        for obj in Obj2d::sweep(1 << 12) {
            for c in obj.constructions() {
                let dt = obj.tree(c).unwrap().build(&mut ctx).unwrap();
                let a = ctx.attrs(dt).unwrap();
                let needed = a.true_ub + (obj.incount as i64 - 1) * a.extent();
                assert!(
                    obj.span() as i64 >= needed,
                    "span {} < needed {needed} for {} {:?}",
                    obj.span(),
                    obj.label(),
                    c
                );
            }
        }
    }
}
