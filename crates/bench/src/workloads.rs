//! The paper's evaluation objects (Figs. 6, 7, 9, 10, 11) and the
//! equivalent MPI constructions of each.

use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::Order;
use mpi_sim::{Datatype, MpiResult, RankCtx};

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
        if self.is_contiguous() {
            vec![
                Construction::Contiguous,
                Construction::Vector,
                Construction::Hvector,
                Construction::Subarray,
            ]
        } else {
            vec![
                Construction::Vector,
                Construction::Hvector,
                Construction::Subarray,
            ]
        }
    }

    /// Create (not commit) the datatype for one construction.
    pub fn build(&self, ctx: &mut RankCtx, c: Construction) -> MpiResult<Datatype> {
        match c {
            Construction::Contiguous => {
                assert!(self.is_contiguous());
                ctx.type_contiguous(self.item_bytes() as i32, MPI_BYTE)
            }
            Construction::Vector => ctx.type_vector(
                self.count as i32,
                self.block as i32,
                self.stride as i32,
                MPI_BYTE,
            ),
            Construction::Hvector => {
                let row = ctx.type_contiguous(self.block as i32, MPI_BYTE)?;
                ctx.type_create_hvector(self.count as i32, 1, self.stride as i64, row)
            }
            Construction::Subarray => ctx.type_create_subarray(
                &[self.count as i32, self.stride as i32],
                &[self.count as i32, self.block as i32],
                &[0, 0],
                Order::C,
                MPI_BYTE,
            ),
            Construction::VectorOfSubarray => {
                let plane = ctx.type_create_subarray(
                    &[self.count as i32, self.stride as i32],
                    &[self.count as i32, self.block as i32],
                    &[0, 0],
                    Order::C,
                    MPI_BYTE,
                )?;
                ctx.type_vector(1, 1, 1, plane)
            }
        }
    }

    /// The Fig. 7a/7b sweep: objects of `total` data bytes with block
    /// sizes from 1 B up to fully contiguous, 50% density (stride = 2 ×
    /// block), for `incount` ∈ {1, 2}.
    pub fn sweep(total: usize) -> Vec<Obj2d> {
        let mut v = Vec::new();
        for incount in [1usize, 2] {
            let item = total / incount;
            let mut block = 1usize;
            while block < item {
                v.push(Obj2d {
                    incount,
                    block,
                    count: item / block,
                    stride: block * 2,
                });
                block *= 8;
            }
            // fully contiguous
            v.push(Obj2d {
                incount,
                block: item,
                count: 1,
                stride: item,
            });
        }
        v
    }
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

    /// Create the datatype for one construction.
    pub fn build(&self, ctx: &mut RankCtx, c: Construction) -> MpiResult<Datatype> {
        let a = self.alloc as i32;
        match c {
            Construction::Subarray => ctx.type_create_subarray(
                &[a, a, a],
                &[self.z as i32, self.y as i32, self.x as i32],
                &[0, 0, 0],
                Order::C,
                MPI_BYTE,
            ),
            Construction::Hvector => {
                // row → plane of rows → box of planes
                let row = ctx.type_contiguous(self.x as i32, MPI_BYTE)?;
                let plane = ctx.type_create_hvector(self.y as i32, 1, self.alloc as i64, row)?;
                ctx.type_create_hvector(self.z as i32, 1, (self.alloc * self.alloc) as i64, plane)
            }
            Construction::VectorOfSubarray => {
                // a 2-D subarray plane, repeated by a vector — MVAPICH's
                // specialized fast path (root combiner is Vector)
                let plane = ctx.type_create_subarray(
                    &[a, a],
                    &[self.y as i32, self.x as i32],
                    &[0, 0],
                    Order::C,
                    MPI_BYTE,
                )?;
                // plane extent = alloc² bytes = exactly one plane
                ctx.type_vector(self.z as i32, 1, 1, plane)
            }
            other => panic!("construction {other:?} not applicable to 3-D objects"),
        }
    }

    /// The Fig. 7c sweep within an `alloc³` allocation.
    pub fn sweep(alloc: usize) -> Vec<Obj3d> {
        let e = alloc / 2;
        vec![
            Obj3d {
                alloc,
                x: 4,
                y: e,
                z: e,
            },
            Obj3d {
                alloc,
                x: 16,
                y: e,
                z: e,
            },
            Obj3d {
                alloc,
                x: 64,
                y: e,
                z: e,
            },
            Obj3d {
                alloc,
                x: e,
                y: 4,
                z: e,
            },
            Obj3d {
                alloc,
                x: e,
                y: e,
                z: 4,
            },
            Obj3d {
                alloc,
                x: e,
                y: e,
                z: e,
            },
        ]
    }
}

/// One access pattern of the performance-guidelines zoo — the
/// Hunold/Träff ("MPI Derived Datatypes: Performance Expectations and
/// Status Quo") pattern families plus representatives of the existing
/// fig-zoo, each expressed through the MPI construction a real
/// application would use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZooPattern {
    /// Row extraction from a C-order matrix: one fully contiguous run of
    /// `bytes` (the degenerate guideline case — a DDT send of contiguous
    /// data must not lose to a plain byte send).
    Row {
        /// Row length in bytes.
        bytes: usize,
    },
    /// Column extraction from a C-order matrix of `rows` rows: `rows`
    /// blocks of `elem` bytes, `row_bytes` apart (`MPI_Type_vector`).
    Col {
        /// Number of matrix rows (= number of blocks).
        rows: usize,
        /// Element width in bytes (= block length).
        elem: usize,
        /// Row pitch in bytes (= stride).
        row_bytes: usize,
    },
    /// A block-cyclic distribution slice: `blocks` blocks of `block`
    /// bytes, one every `cycle` bytes, expressed as
    /// `MPI_Type_create_indexed_block` (the combiner a ScaLAPACK-style
    /// decomposition produces — same layout as a vector, different
    /// construction, so it exercises canonicalization).
    BlockCyclic {
        /// Number of owned blocks.
        blocks: usize,
        /// Block length in bytes.
        block: usize,
        /// Distance between owned block starts in bytes.
        cycle: usize,
    },
    /// Struct-of-arrays extraction: the first `take` bytes of each of
    /// `fields` member arrays (each `field_bytes` long, laid out
    /// back-to-back), expressed as `MPI_Type_create_struct` over byte
    /// blocks — few large blocks at large offsets, a combiner that
    /// defeats subarray-style translation.
    Soa {
        /// Number of member arrays.
        fields: usize,
        /// Bytes taken from the head of each array.
        take: usize,
        /// Full length of one member array in bytes.
        field_bytes: usize,
    },
    /// Nested vector-of-vector: `planes` repetitions (`plane_stride`
    /// apart, via hvector) of an inner `MPI_Type_vector` of `rows` blocks
    /// of `block` bytes `row_stride` apart — the 3-D box a naive
    /// application composes instead of one subarray.
    Nested {
        /// Outer repetition count.
        planes: usize,
        /// Outer stride in bytes.
        plane_stride: usize,
        /// Inner block count.
        rows: usize,
        /// Inner block length in bytes.
        block: usize,
        /// Inner stride in bytes.
        row_stride: usize,
    },
    /// An existing fig-zoo 2-D object (50%-density strided family),
    /// expressed as hvector like `bench_send` does.
    Fig2d(Obj2d),
    /// An existing fig-zoo 3-D box, expressed as one n-D subarray.
    Fig3d(Obj3d),
}

impl ZooPattern {
    /// The guidelines zoo: every Hunold/Träff pattern family at a small
    /// and a large size where meaningful, plus fig-zoo representatives.
    /// Block counts stay ≤ 1024 so the naive element-wise reference loop
    /// (one message per block) stays tractable at every cell.
    pub fn zoo() -> Vec<ZooPattern> {
        vec![
            ZooPattern::Row { bytes: 64 << 10 },
            ZooPattern::Col {
                rows: 256,
                elem: 8,
                row_bytes: 2048,
            },
            ZooPattern::Col {
                rows: 1024,
                elem: 64,
                row_bytes: 64 << 10,
            },
            ZooPattern::BlockCyclic {
                blocks: 512,
                block: 128,
                cycle: 512,
            },
            ZooPattern::Soa {
                fields: 8,
                take: 2048,
                field_bytes: 64 << 10,
            },
            ZooPattern::Nested {
                planes: 32,
                plane_stride: 8192,
                rows: 16,
                block: 64,
                row_stride: 256,
            },
            ZooPattern::Fig2d(Obj2d {
                incount: 1,
                block: 16,
                count: 512,
                stride: 32,
            }),
            ZooPattern::Fig2d(Obj2d {
                incount: 1,
                block: 4096,
                count: 64,
                stride: 8192,
            }),
            ZooPattern::Fig3d(Obj3d {
                alloc: 128,
                x: 32,
                y: 16,
                z: 16,
            }),
        ]
    }

    /// Stable row label (pattern family + geometry).
    pub fn label(&self) -> String {
        match *self {
            ZooPattern::Row { bytes } => format!("row/{bytes}"),
            ZooPattern::Col {
                rows,
                elem,
                row_bytes,
            } => format!("col/{rows}x{elem}@{row_bytes}"),
            ZooPattern::BlockCyclic {
                blocks,
                block,
                cycle,
            } => format!("blockcyclic/{blocks}x{block}@{cycle}"),
            ZooPattern::Soa {
                fields,
                take,
                field_bytes,
            } => format!("soa/{fields}x{take}@{field_bytes}"),
            ZooPattern::Nested {
                planes,
                plane_stride,
                rows,
                block,
                row_stride,
            } => format!("nested/{planes}@{plane_stride}x{rows}x{block}@{row_stride}"),
            ZooPattern::Fig2d(o) => format!("fig2d/{}", o.label()),
            ZooPattern::Fig3d(o) => format!("fig3d/{}", o.label()),
        }
    }

    /// Data bytes one item of the pattern denotes.
    pub fn total_bytes(&self) -> usize {
        match *self {
            ZooPattern::Row { bytes } => bytes,
            ZooPattern::Col { rows, elem, .. } => rows * elem,
            ZooPattern::BlockCyclic { blocks, block, .. } => blocks * block,
            ZooPattern::Soa { fields, take, .. } => fields * take,
            ZooPattern::Nested {
                planes,
                rows,
                block,
                ..
            } => planes * rows * block,
            ZooPattern::Fig2d(o) => o.total_bytes(),
            ZooPattern::Fig3d(o) => o.total_bytes(),
        }
    }

    /// Number of contiguous blocks (= messages the naive element-wise
    /// reference loop sends).
    pub fn nblocks(&self) -> usize {
        match *self {
            ZooPattern::Row { .. } => 1,
            ZooPattern::Col { rows, .. } => rows,
            ZooPattern::BlockCyclic { blocks, .. } => blocks,
            ZooPattern::Soa { fields, .. } => fields,
            ZooPattern::Nested { planes, rows, .. } => planes * rows,
            ZooPattern::Fig2d(o) => o.count * o.incount,
            ZooPattern::Fig3d(o) => o.y * o.z,
        }
    }

    /// Bytes the source/destination buffer must span.
    pub fn span(&self) -> usize {
        match *self {
            ZooPattern::Row { bytes } => bytes,
            ZooPattern::Col {
                rows, row_bytes, ..
            } => rows * row_bytes,
            ZooPattern::BlockCyclic {
                blocks,
                block,
                cycle,
            } => (blocks - 1) * cycle + block,
            ZooPattern::Soa {
                fields,
                field_bytes,
                ..
            } => fields * field_bytes,
            ZooPattern::Nested {
                planes,
                plane_stride,
                rows,
                block,
                row_stride,
            } => (planes - 1) * plane_stride + (rows - 1) * row_stride + block,
            ZooPattern::Fig2d(o) => o.span(),
            ZooPattern::Fig3d(o) => o.alloc * o.alloc * o.alloc,
        }
    }

    /// Create (not commit) the datatype the pattern's natural MPI
    /// construction produces.
    pub fn build(&self, ctx: &mut RankCtx) -> MpiResult<Datatype> {
        match *self {
            ZooPattern::Row { bytes } => ctx.type_contiguous(bytes as i32, MPI_BYTE),
            ZooPattern::Col {
                rows,
                elem,
                row_bytes,
            } => ctx.type_vector(rows as i32, elem as i32, row_bytes as i32, MPI_BYTE),
            ZooPattern::BlockCyclic {
                blocks,
                block,
                cycle,
            } => {
                let displs: Vec<i32> = (0..blocks as i32).map(|i| i * cycle as i32).collect();
                ctx.type_create_indexed_block(block as i32, &displs, MPI_BYTE)
            }
            ZooPattern::Soa {
                fields,
                take,
                field_bytes,
            } => {
                let lens = vec![take as i32; fields];
                let displs: Vec<i64> = (0..fields as i64).map(|i| i * field_bytes as i64).collect();
                let types = vec![MPI_BYTE; fields];
                ctx.type_create_struct(&lens, &displs, &types)
            }
            ZooPattern::Nested {
                planes,
                plane_stride,
                rows,
                block,
                row_stride,
            } => {
                let inner =
                    ctx.type_vector(rows as i32, block as i32, row_stride as i32, MPI_BYTE)?;
                ctx.type_create_hvector(planes as i32, 1, plane_stride as i64, inner)
            }
            ZooPattern::Fig2d(o) => o.build(ctx, Construction::Hvector),
            ZooPattern::Fig3d(o) => o.build(ctx, Construction::Subarray),
        }
    }
}

/// One entry of the Fig. 6 object set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Object {
    /// The 2-D object (100-byte blocks × 13, stride 256) in one of its
    /// constructions.
    TwoD(Construction),
    /// The Fig.-2 3-D object (100×13×47 in a 256³ allocation).
    ThreeD(Construction),
    /// A contiguous megabyte.
    Contig1MiB,
}

impl Fig6Object {
    /// Create (not commit) this object's datatype.
    pub fn build(self, ctx: &mut RankCtx) -> MpiResult<Datatype> {
        match self {
            Fig6Object::TwoD(c) => Obj2d {
                incount: 1,
                block: 100,
                count: 13,
                stride: 256,
            }
            .build(ctx, c),
            Fig6Object::ThreeD(c) => Obj3d {
                alloc: 256,
                x: 100,
                y: 13,
                z: 47,
            }
            .build(ctx, c),
            Fig6Object::Contig1MiB => ctx.type_contiguous(1 << 20, MPI_BYTE),
        }
    }
}

/// The Fig. 6 object set: representative constructions whose create/commit
/// times are broken down per implementation.
pub fn fig6_set() -> Vec<(String, Fig6Object)> {
    let mut v = Vec::new();
    for c in [
        Construction::Vector,
        Construction::Hvector,
        Construction::Subarray,
    ] {
        v.push((format!("2d-{}", c.label()), Fig6Object::TwoD(c)));
    }
    for c in [
        Construction::Subarray,
        Construction::Hvector,
        Construction::VectorOfSubarray,
    ] {
        v.push((format!("3d-{}", c.label()), Fig6Object::ThreeD(c)));
    }
    v.push(("contig-1MiB".to_string(), Fig6Object::Contig1MiB));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::datatype::typemap::segments;
    use mpi_sim::WorldConfig;

    fn ctx() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    #[test]
    fn all_2d_constructions_are_equivalent() {
        let mut ctx = ctx();
        for obj in Obj2d::sweep(1 << 10) {
            let mut seglists = Vec::new();
            for c in obj.constructions() {
                let dt = obj.build(&mut ctx, c).unwrap();
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
                let dt = obj.build(&mut ctx, c).unwrap();
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
        let dt = o.build(&mut ctx, Construction::VectorOfSubarray).unwrap();
        assert_eq!(
            ctx.combiner(dt).unwrap(),
            mpi_sim::Combiner::Vector,
            "the MVAPICH fast path keys on a vector root"
        );
    }

    #[test]
    fn fig6_set_builds() {
        let mut ctx = ctx();
        let objs = fig6_set();
        assert_eq!(objs.len(), 7);
        for (label, o) in objs {
            let dt = o.build(&mut ctx).unwrap();
            assert!(ctx.attrs(dt).unwrap().size > 0, "{label}");
        }
    }

    #[test]
    fn zoo_patterns_build_and_agree_with_their_geometry() {
        let mut ctx = ctx();
        let zoo = ZooPattern::zoo();
        assert!(zoo.len() >= 9, "the expanded zoo shrank");
        for p in &zoo {
            let dt = p
                .build(&mut ctx)
                .unwrap_or_else(|e| panic!("{}: {e}", p.label()));
            let attrs = ctx.attrs(dt).unwrap();
            assert_eq!(
                attrs.size as usize,
                p.total_bytes(),
                "{}: type size disagrees with total_bytes()",
                p.label()
            );
            let reg = ctx.registry().read();
            let segs = segments(&reg, dt).unwrap();
            assert_eq!(
                segs.len(),
                p.nblocks(),
                "{}: segment count disagrees with nblocks()",
                p.label()
            );
            assert!(
                p.nblocks() <= 1024,
                "{}: {} blocks — the naive reference loop budget is 1024",
                p.label(),
                p.nblocks()
            );
            // every block the type touches fits in the declared span
            let last = segs.iter().map(|s| s.off + s.len as i64).max().unwrap();
            assert!(
                p.span() as i64 >= last,
                "{}: span {} < last byte {last}",
                p.label(),
                p.span()
            );
        }
        // labels are unique — they key baseline rows across runs
        let mut labels: Vec<String> = zoo.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), zoo.len(), "duplicate zoo labels");
    }

    #[test]
    fn block_cyclic_matches_equivalent_vector() {
        // same layout, different construction: the canonicalization claim
        // the guidelines gate leans on
        let mut ctx = ctx();
        let bc = ZooPattern::BlockCyclic {
            blocks: 16,
            block: 32,
            cycle: 128,
        };
        let dt = bc.build(&mut ctx).unwrap();
        let v = ctx.type_vector(16, 32, 128, MPI_BYTE).unwrap();
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
                let dt = obj.build(&mut ctx, c).unwrap();
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
