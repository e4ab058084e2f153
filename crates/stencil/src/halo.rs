//! Halo region geometry and datatype construction.
//!
//! The local array on each rank is `(lx+2r) × (ly+2r) × (lz+2r)` floats
//! (interior plus a ghost shell of radius `r`). For each of the 26
//! directions the paper's stencil defines the *send* region (the interior
//! cells the neighbor's ghost shell needs) and the *recv* region (this
//! rank's ghost cells) — each "defined in a separate MPI derived datatype"
//! (§6.4), built here as `MPI_Type_create_subarray` over the local array.

use mpi_sim::consts::MPI_FLOAT;
use mpi_sim::datatype::Order;
use mpi_sim::{Datatype, MpiError, MpiResult, RankCtx};

use crate::decomp::DIRS;

/// Stencil geometry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloConfig {
    /// Interior extent per rank (x, y, z) in gridpoints.
    pub local: [usize; 3],
    /// Ghost-shell radius (the paper uses 2).
    pub radius: usize,
}

impl HaloConfig {
    /// The paper's configuration: `512³` gridpoints per rank, radius 2.
    pub fn paper() -> Self {
        HaloConfig {
            local: [512, 512, 512],
            radius: 2,
        }
    }

    /// A scaled-down configuration for tests and CI-sized runs.
    pub fn small(n: usize) -> Self {
        HaloConfig {
            local: [n, n, n],
            radius: 2,
        }
    }

    /// Allocated extent per dimension (interior + ghosts).
    pub fn alloc_dims(&self) -> [usize; 3] {
        [
            self.local[0] + 2 * self.radius,
            self.local[1] + 2 * self.radius,
            self.local[2] + 2 * self.radius,
        ]
    }

    /// Bytes of the local allocation (f32 cells).
    pub fn alloc_bytes(&self) -> usize {
        let a = self.alloc_dims();
        a[0] * a[1] * a[2] * 4
    }

    /// Linear cell index of `(x, y, z)` in the local allocation
    /// (x fastest).
    pub fn cell_index(&self, x: usize, y: usize, z: usize) -> usize {
        let a = self.alloc_dims();
        x + a[0] * (y + a[1] * z)
    }

    /// The subarray `(subsizes, starts)` of the *send* region for
    /// direction `d` (per dimension: the first `r` interior cells for −1,
    /// the whole interior for 0, the last `r` interior cells for +1).
    pub fn send_region(&self, d: [i32; 3]) -> ([usize; 3], [usize; 3]) {
        let r = self.radius;
        let mut sub = [0usize; 3];
        let mut start = [0usize; 3];
        for i in 0..3 {
            match d[i] {
                -1 => {
                    sub[i] = r;
                    start[i] = r;
                }
                0 => {
                    sub[i] = self.local[i];
                    start[i] = r;
                }
                1 => {
                    sub[i] = r;
                    start[i] = self.local[i]; // last r interior cells
                }
                _ => unreachable!("directions are in {{-1,0,1}}"),
            }
        }
        (sub, start)
    }

    /// The subarray `(subsizes, starts)` of the *recv* (ghost) region for
    /// direction `d`.
    pub fn recv_region(&self, d: [i32; 3]) -> ([usize; 3], [usize; 3]) {
        let r = self.radius;
        let mut sub = [0usize; 3];
        let mut start = [0usize; 3];
        for i in 0..3 {
            match d[i] {
                -1 => {
                    sub[i] = r;
                    start[i] = 0;
                }
                0 => {
                    sub[i] = self.local[i];
                    start[i] = r;
                }
                1 => {
                    sub[i] = r;
                    start[i] = self.local[i] + r;
                }
                _ => unreachable!(),
            }
        }
        (sub, start)
    }

    /// The subarray `(subsizes, starts)` of the whole interior — the
    /// region a checkpoint snapshots (ghost cells are reconstructed by the
    /// next exchange, so they are never persisted).
    pub fn interior_region(&self) -> ([usize; 3], [usize; 3]) {
        let r = self.radius;
        (self.local, [r, r, r])
    }

    /// Packed bytes of the send region for direction `d` (f32 cells).
    pub fn send_bytes(&self, d: [i32; 3]) -> usize {
        Self::region_cells(self.send_region(d).0) * 4
    }

    /// Number of cells in a region.
    pub fn region_cells(sub: [usize; 3]) -> usize {
        sub[0] * sub[1] * sub[2]
    }
}

/// The 26 send and 26 recv datatypes of one rank (`MPI_FLOAT` subarrays in
/// C order: dimension 0 slowest, so we pass (z, y, x)), and the two types
/// an exchange communicates with: all 26 of a side as one datatype.
#[derive(Debug, Clone)]
pub struct HaloTypes {
    /// Send datatype per direction, in [`DIRS`] order.
    pub send: Vec<Datatype>,
    /// Recv datatype per direction, in [`DIRS`] order.
    pub recv: Vec<Datatype>,
    /// Every send region, in the order they are packed: a struct of `send`
    /// members at displacement 0.
    pub fused_send: Datatype,
    /// Every recv region, in the order they are unpacked.
    pub fused_recv: Datatype,
}

/// The `MPI_FLOAT` subarray of `cfg`'s local allocation that covers
/// `region`, a `(subsizes, starts)` pair.
pub(crate) fn region_type(
    ctx: &mut RankCtx,
    cfg: &HaloConfig,
    (sub, start): ([usize; 3], [usize; 3]),
) -> MpiResult<Datatype> {
    let zyx = |v: [usize; 3]| -> MpiResult<[i32; 3]> {
        let int = |n: usize| {
            i32::try_from(n)
                .map_err(|_| MpiError::InvalidArg(format!("halo extent {n} is no MPI int")))
        };
        Ok([int(v[2])?, int(v[1])?, int(v[0])?])
    };
    let (sizes, sub, start) = (zyx(cfg.alloc_dims())?, zyx(sub)?, zyx(start)?);
    ctx.type_create_subarray(&sizes, &sub, &start, Order::C, MPI_FLOAT)
}

impl HaloTypes {
    /// Build and (natively) create the 52 per-direction datatypes and the
    /// fused pair, the send side's members in `pack_order` and the recv
    /// side's in `unpack_order` (direction indices). The caller commits,
    /// through whichever `MPI_Type_commit` is interposed, the types it
    /// communicates with.
    pub fn create(
        ctx: &mut RankCtx,
        cfg: &HaloConfig,
        pack_order: &[usize],
        unpack_order: &[usize],
    ) -> MpiResult<HaloTypes> {
        let mut send = Vec::with_capacity(26);
        let mut recv = Vec::with_capacity(26);
        for &d in &DIRS {
            send.push(region_type(ctx, cfg, cfg.send_region(d))?);
            recv.push(region_type(ctx, cfg, cfg.recv_region(d))?);
        }
        let mut fuse = |of: &[Datatype], order: &[usize]| {
            // the members on the stack: the struct copies its lists
            let mut members = [Datatype(0); 26];
            members.iter_mut().zip(order).for_each(|(m, &k)| *m = of[k]);
            let n = order.len();
            let members = members.get(..n).ok_or_else(|| {
                MpiError::InvalidArg(format!("{n} members fuse more than 26 directions"))
            })?;
            ctx.type_create_struct(&[1; 26][..n], &[0; 26][..n], members)
        };
        Ok(HaloTypes {
            fused_send: fuse(&send, pack_order)?,
            fused_recv: fuse(&recv, unpack_order)?,
            send,
            recv,
        })
    }

    /// `MPI_Type_free` all 54 datatypes. Recovery code frees the types
    /// built against the old decomposition before rebuilding against the
    /// shrunken communicator, so repeated shrinks do not accumulate
    /// registry entries.
    pub fn free(&self, ctx: &mut RankCtx) -> MpiResult<()> {
        let fused = [self.fused_send, self.fused_recv];
        for &dt in fused.iter().chain(&self.send).chain(&self.recv) {
            ctx.type_free(dt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{dir_index, opposite};
    use mpi_sim::WorldConfig;

    #[test]
    fn regions_have_matching_sizes_for_opposite_dirs() {
        let cfg = HaloConfig::small(8);
        for &d in &DIRS {
            let (ssub, _) = cfg.send_region(d);
            let (rsub, _) = cfg.recv_region(opposite(d));
            assert_eq!(ssub, rsub, "send {d:?} must fill recv {:?}", opposite(d));
        }
    }

    #[test]
    fn face_edge_corner_cell_counts() {
        let cfg = HaloConfig::small(8); // 8³ interior, r=2
                                        // face (+x): 2×8×8 = 128 cells
        let (sub, _) = cfg.send_region([1, 0, 0]);
        assert_eq!(HaloConfig::region_cells(sub), 2 * 8 * 8);
        // edge (+x,+y): 2×2×8
        let (sub, _) = cfg.send_region([1, 1, 0]);
        assert_eq!(HaloConfig::region_cells(sub), 2 * 2 * 8);
        // corner: 2×2×2
        let (sub, _) = cfg.send_region([1, 1, 1]);
        assert_eq!(HaloConfig::region_cells(sub), 8);
    }

    #[test]
    fn send_and_recv_regions_are_disjoint_in_each_direction() {
        // send regions live in the interior, recv regions in the ghost
        let cfg = HaloConfig::small(4);
        let r = cfg.radius;
        for &d in &DIRS {
            let (ssub, sstart) = cfg.send_region(d);
            let (rsub, rstart) = cfg.recv_region(d);
            for i in 0..3 {
                // send entirely within interior
                assert!(sstart[i] >= r);
                assert!(sstart[i] + ssub[i] <= r + cfg.local[i]);
                // recv entirely within allocation
                assert!(rstart[i] + rsub[i] <= cfg.alloc_dims()[i]);
            }
            // recv region for a ±1 component lies in the ghost shell
            for i in 0..3 {
                if d[i] == -1 {
                    assert_eq!(rstart[i], 0);
                }
                if d[i] == 1 {
                    assert_eq!(rstart[i], cfg.local[i] + r);
                }
            }
        }
    }

    #[test]
    fn types_commit_and_have_right_sizes() {
        let mut ctx = mpi_sim::RankCtx::standalone(&WorldConfig::summit(1));
        let cfg = HaloConfig::small(4);
        let order: Vec<usize> = (0..26).collect();
        let types = HaloTypes::create(&mut ctx, &cfg, &order, &order).unwrap();
        assert_eq!(types.send.len(), 26);
        for (i, &d) in DIRS.iter().enumerate() {
            let sz = ctx.attrs(types.send[i]).unwrap().size as usize;
            assert_eq!(sz, cfg.send_bytes(d), "direction {d:?}");
            let rz = ctx
                .attrs(types.recv[dir_index(opposite(d)).unwrap()])
                .unwrap()
                .size as usize;
            assert_eq!(rz, sz);
        }
        // +x face with l=4, r=2: 2×4×4 = 32 cells = 128 bytes
        assert_eq!(cfg.send_bytes([1, 0, 0]), 32 * 4);
    }

    #[test]
    fn free_releases_all_types() {
        let mut ctx = mpi_sim::RankCtx::standalone(&WorldConfig::summit(1));
        let cfg = HaloConfig::small(4);
        let types = HaloTypes::create(&mut ctx, &cfg, &[3, 1], &[2]).unwrap();
        types.free(&mut ctx).unwrap();
        for probe in [
            types.send[0],
            types.recv[25],
            types.fused_send,
            types.fused_recv,
        ] {
            assert!(ctx.attrs(probe).is_err());
        }
    }

    #[test]
    fn interior_region_covers_exactly_the_interior() {
        let cfg = HaloConfig::small(6);
        let (sub, start) = cfg.interior_region();
        assert_eq!(sub, [6, 6, 6]);
        assert_eq!(start, [2, 2, 2]);
        assert_eq!(HaloConfig::region_cells(sub), 216);
    }

    #[test]
    fn alloc_dims_and_indexing() {
        let cfg = HaloConfig::small(4);
        assert_eq!(cfg.alloc_dims(), [8, 8, 8]);
        assert_eq!(cfg.alloc_bytes(), 8 * 8 * 8 * 4);
        assert_eq!(cfg.cell_index(0, 0, 0), 0);
        assert_eq!(cfg.cell_index(1, 0, 0), 1);
        assert_eq!(cfg.cell_index(0, 1, 0), 8);
        assert_eq!(cfg.cell_index(0, 0, 1), 64);
    }

    #[test]
    fn paper_config_is_512_cubed_radius_2() {
        let p = HaloConfig::paper();
        assert_eq!(p.local, [512, 512, 512]);
        assert_eq!(p.radius, 2);
        assert_eq!(p.alloc_dims(), [516, 516, 516]);
    }
}
