//! The datatype objects the workloads move: the paper's 2-D and 3-D
//! objects in their equivalent MPI constructions (Figs. 2, 6, 7, 11), and
//! the Hunold/Träff pattern families the repo's guidelines gate uses.
//!
//! Written against `mpi-sim`'s public constructors only; `crates/bench` is
//! deliberately not imported, so pruning that tooling cannot change a
//! workload. Every argument array a constructor takes is built here, at
//! set-up, because a recipe is re-created inside timed loops where the
//! harness must not allocate.

use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::Order;
use mpi_sim::{Datatype, MpiResult, RankCtx};

/// How a strided object is expressed in MPI. TEMPI must treat these
/// alike; the system MPI does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    Vector,
    Hvector,
    Subarray,
    /// A vector of 2-D subarray planes (3-D objects only).
    VectorOfSubarray,
}

impl Construction {
    pub const TWO_D: [Construction; 3] = [
        Construction::Vector,
        Construction::Hvector,
        Construction::Subarray,
    ];
    pub const THREE_D: [Construction; 3] = [
        Construction::Subarray,
        Construction::Hvector,
        Construction::VectorOfSubarray,
    ];

    fn label(self) -> &'static str {
        match self {
            Construction::Vector => "vector",
            Construction::Hvector => "hvector",
            Construction::Subarray => "subarray",
            Construction::VectorOfSubarray => "vec(subarr)",
        }
    }
}

#[derive(Debug, Clone)]
enum Shape {
    /// `bytes` contiguous bytes.
    Contiguous { bytes: usize },
    /// `count` blocks of `block` bytes, `stride` apart.
    TwoD {
        block: usize,
        count: usize,
        stride: usize,
        how: Construction,
    },
    /// An `x × y × z`-byte box in an `alloc³`-byte cube (x contiguous).
    ThreeD {
        alloc: usize,
        x: usize,
        y: usize,
        z: usize,
        how: Construction,
    },
    /// Block-cyclic slice as `MPI_Type_create_indexed_block`.
    IndexedBlock { block: usize, displs: Vec<i32> },
    /// Struct-of-arrays head extraction as `MPI_Type_create_struct`.
    Struct {
        lens: Vec<i32>,
        displs: Vec<i64>,
        types: Vec<Datatype>,
    },
    /// hvector of `planes` inner vectors (the 3-D box composed naively).
    Nested {
        planes: usize,
        plane_stride: usize,
        rows: usize,
        block: usize,
        row_stride: usize,
    },
}

/// One datatype the benchmark can create: its constructor arguments, its
/// geometry, and the group of recipes that denote the same bytes.
#[derive(Debug, Clone)]
pub struct Recipe {
    pub label: String,
    shape: Shape,
    /// Recipes with the same `Some(group)` are equivalent constructions of
    /// one object and must commit to equal `PlanKind`s.
    pub group: Option<u32>,
}

/// A created type plus the intermediate types its construction made,
/// which the caller frees with it.
#[derive(Debug, Clone, Copy)]
pub struct Built {
    pub dt: Datatype,
    temps: [Datatype; 2],
    ntemps: usize,
}

impl Built {
    fn of(dt: Datatype, temps: &[Datatype]) -> Built {
        let mut b = Built {
            dt,
            temps: [dt; 2],
            ntemps: temps.len(),
        };
        b.temps[..temps.len()].copy_from_slice(temps);
        b
    }

    /// `MPI_Type_free` the type and its intermediates.
    pub fn free(self, ctx: &mut RankCtx) -> MpiResult<()> {
        ctx.type_free(self.dt)?;
        for &t in &self.temps[..self.ntemps] {
            ctx.type_free(t)?;
        }
        Ok(())
    }
}

impl Recipe {
    pub fn contiguous(bytes: usize) -> Recipe {
        Recipe {
            label: format!("contig/{bytes}"),
            shape: Shape::Contiguous { bytes },
            group: None,
        }
    }

    /// `total` data bytes in blocks of `block`, half density, as in the
    /// paper's Fig. 7 and Fig. 11 sweeps.
    pub fn two_d(total: usize, block: usize, how: Construction) -> Recipe {
        Recipe::two_d_exact(block, total / block, block * 2, how)
    }

    pub fn two_d_exact(block: usize, count: usize, stride: usize, how: Construction) -> Recipe {
        Recipe {
            label: format!("2d/{block}x{count}@{stride}/{}", how.label()),
            shape: Shape::TwoD {
                block,
                count,
                stride,
                how,
            },
            group: None,
        }
    }

    pub fn three_d(alloc: usize, x: usize, y: usize, z: usize, how: Construction) -> Recipe {
        Recipe {
            label: format!("3d/{x}x{y}x{z}@{alloc}/{}", how.label()),
            shape: Shape::ThreeD {
                alloc,
                x,
                y,
                z,
                how,
            },
            group: None,
        }
    }

    pub fn indexed_block(blocks: usize, block: usize, cycle: usize) -> Recipe {
        Recipe {
            label: format!("blockcyclic/{blocks}x{block}@{cycle}"),
            shape: Shape::IndexedBlock {
                block,
                displs: (0..blocks as i32).map(|i| i * cycle as i32).collect(),
            },
            group: None,
        }
    }

    pub fn soa(fields: usize, take: usize, field_bytes: usize) -> Recipe {
        Recipe {
            label: format!("soa/{fields}x{take}@{field_bytes}"),
            shape: Shape::Struct {
                lens: vec![take as i32; fields],
                displs: (0..fields as i64).map(|i| i * field_bytes as i64).collect(),
                types: vec![MPI_BYTE; fields],
            },
            group: None,
        }
    }

    pub fn nested(
        planes: usize,
        plane_stride: usize,
        rows: usize,
        block: usize,
        row_stride: usize,
    ) -> Recipe {
        Recipe {
            label: format!("nested/{planes}@{plane_stride}x{rows}x{block}@{row_stride}"),
            shape: Shape::Nested {
                planes,
                plane_stride,
                rows,
                block,
                row_stride,
            },
            group: None,
        }
    }

    pub fn in_group(mut self, group: u32) -> Recipe {
        self.group = Some(group);
        self
    }

    /// Data bytes one item denotes.
    pub fn data_bytes(&self) -> usize {
        match &self.shape {
            Shape::Contiguous { bytes } => *bytes,
            Shape::TwoD { block, count, .. } => block * count,
            Shape::ThreeD { x, y, z, .. } => x * y * z,
            Shape::IndexedBlock { block, displs } => block * displs.len(),
            Shape::Struct { lens, .. } => lens.iter().map(|&l| l as usize).sum(),
            Shape::Nested {
                planes,
                rows,
                block,
                ..
            } => planes * rows * block,
        }
    }

    /// Bytes a buffer holding one item must span.
    pub fn span(&self) -> usize {
        match &self.shape {
            Shape::Contiguous { bytes } => *bytes,
            Shape::TwoD { count, stride, .. } => count * stride,
            Shape::ThreeD { alloc, .. } => alloc * alloc * alloc,
            Shape::IndexedBlock { block, displs } => {
                displs.last().map_or(0, |&d| d as usize) + block
            }
            Shape::Struct { lens, displs, .. } => displs
                .iter()
                .zip(lens)
                .map(|(&d, &l)| d as usize + l as usize)
                .max()
                .unwrap_or(0),
            Shape::Nested {
                planes,
                plane_stride,
                rows,
                block,
                row_stride,
            } => (planes - 1) * plane_stride + (rows - 1) * row_stride + block,
        }
    }

    /// Create (not commit) the datatype. Allocates nothing of its own.
    pub fn build(&self, ctx: &mut RankCtx) -> MpiResult<Built> {
        match &self.shape {
            Shape::Contiguous { bytes } => Ok(Built::of(
                ctx.type_contiguous(*bytes as i32, MPI_BYTE)?,
                &[],
            )),
            &Shape::TwoD {
                block,
                count,
                stride,
                how,
            } => match how {
                Construction::Vector => Ok(Built::of(
                    ctx.type_vector(count as i32, block as i32, stride as i32, MPI_BYTE)?,
                    &[],
                )),
                Construction::Hvector => {
                    let row = ctx.type_contiguous(block as i32, MPI_BYTE)?;
                    let dt = ctx.type_create_hvector(count as i32, 1, stride as i64, row)?;
                    Ok(Built::of(dt, &[row]))
                }
                Construction::Subarray | Construction::VectorOfSubarray => Ok(Built::of(
                    ctx.type_create_subarray(
                        &[count as i32, stride as i32],
                        &[count as i32, block as i32],
                        &[0, 0],
                        Order::C,
                        MPI_BYTE,
                    )?,
                    &[],
                )),
            },
            &Shape::ThreeD {
                alloc,
                x,
                y,
                z,
                how,
            } => {
                let a = alloc as i32;
                match how {
                    Construction::Subarray | Construction::Vector => Ok(Built::of(
                        ctx.type_create_subarray(
                            &[a, a, a],
                            &[z as i32, y as i32, x as i32],
                            &[0, 0, 0],
                            Order::C,
                            MPI_BYTE,
                        )?,
                        &[],
                    )),
                    Construction::Hvector => {
                        let row = ctx.type_contiguous(x as i32, MPI_BYTE)?;
                        let plane = ctx.type_create_hvector(y as i32, 1, alloc as i64, row)?;
                        let dt =
                            ctx.type_create_hvector(z as i32, 1, (alloc * alloc) as i64, plane)?;
                        Ok(Built::of(dt, &[row, plane]))
                    }
                    Construction::VectorOfSubarray => {
                        let plane = ctx.type_create_subarray(
                            &[a, a],
                            &[y as i32, x as i32],
                            &[0, 0],
                            Order::C,
                            MPI_BYTE,
                        )?;
                        // the plane's extent is alloc² bytes: one plane
                        let dt = ctx.type_vector(z as i32, 1, 1, plane)?;
                        Ok(Built::of(dt, &[plane]))
                    }
                }
            }
            Shape::IndexedBlock { block, displs } => Ok(Built::of(
                ctx.type_create_indexed_block(*block as i32, displs, MPI_BYTE)?,
                &[],
            )),
            Shape::Struct {
                lens,
                displs,
                types,
            } => Ok(Built::of(ctx.type_create_struct(lens, displs, types)?, &[])),
            &Shape::Nested {
                planes,
                plane_stride,
                rows,
                block,
                row_stride,
            } => {
                let inner =
                    ctx.type_vector(rows as i32, block as i32, row_stride as i32, MPI_BYTE)?;
                let dt = ctx.type_create_hvector(planes as i32, 1, plane_stride as i64, inner)?;
                Ok(Built::of(dt, &[inner]))
            }
        }
    }
}

/// The nine Hunold/Träff pattern families of the repo's guidelines zoo,
/// each in the construction a real application would use.
pub fn zoo() -> Vec<Recipe> {
    vec![
        Recipe::contiguous(64 << 10),
        Recipe::two_d_exact(8, 256, 2048, Construction::Vector), // col/256x8@2048
        Recipe::two_d_exact(64, 1024, 64 << 10, Construction::Vector), // col/1024x64@65536
        Recipe::indexed_block(512, 128, 512),
        Recipe::soa(8, 2048, 64 << 10),
        Recipe::nested(32, 8192, 16, 64, 256),
        Recipe::two_d_exact(16, 512, 32, Construction::Hvector), // fig2d/1|16|512
        Recipe::two_d_exact(4096, 64, 8192, Construction::Hvector), // fig2d/1|4096|64
        Recipe::three_d(128, 32, 16, 16, Construction::Subarray),
    ]
}

/// The Fig. 6 object set: the Fig. 2 objects in three constructions each,
/// and a contiguous megabyte.
pub fn fig6() -> Vec<Recipe> {
    let mut v = Vec::new();
    for how in Construction::TWO_D {
        v.push(Recipe::two_d_exact(100, 13, 256, how).in_group(0));
    }
    for how in Construction::THREE_D {
        v.push(Recipe::three_d(256, 100, 13, 47, how).in_group(1));
    }
    v.push(Recipe::contiguous(1 << 20));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::datatype::typemap::{data_bytes, segments};
    use mpi_sim::WorldConfig;

    fn all() -> Vec<Recipe> {
        let mut v = zoo();
        v.extend(fig6());
        for how in Construction::TWO_D {
            v.push(Recipe::two_d(1 << 10, 8, how));
        }
        v
    }

    #[test]
    fn geometry_agrees_with_the_typemap() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        for r in all() {
            let b = r.build(&mut ctx).unwrap();
            let (segs, extent) = {
                let reg = ctx.registry().read();
                (segments(&reg, b.dt).unwrap(), reg.attrs(b.dt).unwrap())
            };
            assert_eq!(data_bytes(&segs) as usize, r.data_bytes(), "{}", r.label);
            let reach = segs
                .iter()
                .map(|s| (s.off + s.len as i64) as usize)
                .max()
                .unwrap();
            assert!(
                reach <= r.span(),
                "{}: reach {reach} > span {}",
                r.label,
                r.span()
            );
            assert!(
                extent.extent() as usize <= r.span().max(r.data_bytes()),
                "{}",
                r.label
            );
            b.free(&mut ctx).unwrap();
        }
    }

    #[test]
    fn grouped_recipes_denote_the_same_bytes() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let recipes = fig6();
        for g in [0, 1] {
            let lists: Vec<_> = recipes
                .iter()
                .filter(|r| r.group == Some(g))
                .map(|r| {
                    let b = r.build(&mut ctx).unwrap();
                    let reg = ctx.registry().read();
                    segments(&reg, b.dt).unwrap()
                })
                .collect();
            assert_eq!(lists.len(), 3);
            assert!(lists.windows(2).all(|w| w[0] == w[1]), "group {g}");
        }
    }

    #[test]
    fn build_frees_back_to_the_named_types() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let named = ctx.registry().read().live();
        for r in all() {
            r.build(&mut ctx).unwrap().free(&mut ctx).unwrap();
        }
        assert_eq!(ctx.registry().read().live(), named);
    }
}
