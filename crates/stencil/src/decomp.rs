//! 3-D Cartesian decomposition of ranks.
//!
//! Mirrors `MPI_Dims_create` + `MPI_Cart_create` with periodic boundaries:
//! `P` ranks are factored into a balanced 3-D grid; every rank has exactly
//! 26 logical neighbors (with wraparound, several directions may resolve
//! to the same rank — including self — when an axis has few ranks).

/// The 26 halo directions, in the fixed global order both sender and
/// receiver iterate (x fastest). Excludes (0,0,0).
pub const DIRS: [[i32; 3]; 26] = {
    let mut dirs = [[0i32; 3]; 26];
    let mut n = 0;
    let mut dz = -1;
    while dz <= 1 {
        let mut dy = -1;
        while dy <= 1 {
            let mut dx = -1;
            while dx <= 1 {
                if !(dx == 0 && dy == 0 && dz == 0) {
                    dirs[n] = [dx, dy, dz];
                    n += 1;
                }
                dx += 1;
            }
            dy += 1;
        }
        dz += 1;
    }
    dirs
};

/// Index of a direction in [`DIRS`], or `None` if `d` is not one of the
/// 26 nonzero offsets.
pub fn dir_index(d: [i32; 3]) -> Option<usize> {
    DIRS.iter().position(|&x| x == d)
}

/// The opposite direction.
pub fn opposite(d: [i32; 3]) -> [i32; 3] {
    [-d[0], -d[1], -d[2]]
}

/// A balanced 3-D factorization of `size` ranks with periodic neighbor
/// lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomp {
    /// Ranks along x, y, z.
    pub dims: [usize; 3],
}

impl Decomp {
    /// Factor `size` into three dimensions as evenly as possible
    /// (`MPI_Dims_create` behavior: dims non-increasing from z to x is not
    /// required; we keep them as balanced as possible).
    pub fn new(size: usize) -> Decomp {
        assert!(size > 0);
        let mut best = [size, 1, 1];
        let mut best_score = usize::MAX;
        let mut a = 1;
        while a * a * a <= size {
            if size % a == 0 {
                let rest = size / a;
                let mut b = a;
                while b * b <= rest {
                    if rest % b == 0 {
                        let c = rest / b;
                        // minimize surface ~ spread of factors
                        let score = c - a;
                        if score < best_score {
                            best_score = score;
                            best = [a, b, c];
                        }
                    }
                    b += 1;
                }
            }
            a += 1;
        }
        Decomp { dims: best }
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Cartesian coordinates of a rank (x fastest).
    pub fn coords(&self, rank: usize) -> [usize; 3] {
        let x = rank % self.dims[0];
        let y = (rank / self.dims[0]) % self.dims[1];
        let z = rank / (self.dims[0] * self.dims[1]);
        [x, y, z]
    }

    /// Rank at given coordinates.
    pub fn rank_of(&self, c: [usize; 3]) -> usize {
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// Periodic neighbor of `rank` in direction `d`.
    pub fn neighbor(&self, rank: usize, d: [i32; 3]) -> usize {
        let c = self.coords(rank);
        let mut n = [0usize; 3];
        for i in 0..3 {
            let dim = self.dims[i] as i64;
            n[i] = ((c[i] as i64 + d[i] as i64).rem_euclid(dim)) as usize;
        }
        self.rank_of(n)
    }

    /// Global gridpoint of `rank`'s local cell `cell` (coordinates within
    /// the rank's interior, ghost shell excluded), for a decomposition of
    /// `local`-sized blocks per rank. The inverse mapping recovery code
    /// uses to re-derive oracle values after a shrink re-decomposes the
    /// grid.
    pub fn global(&self, rank: usize, local: [usize; 3], cell: [usize; 3]) -> [usize; 3] {
        let c = self.coords(rank);
        [
            c[0] * local[0] + cell[0],
            c[1] * local[1] + cell[1],
            c[2] * local[2] + cell[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_has_26_unique_nonzero_entries() {
        assert_eq!(DIRS.len(), 26);
        for (i, a) in DIRS.iter().enumerate() {
            assert_ne!(*a, [0, 0, 0]);
            for b in &DIRS[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn opposite_roundtrips() {
        for &d in &DIRS {
            assert_eq!(opposite(opposite(d)), d);
            assert!(dir_index(opposite(d)).unwrap() < 26);
        }
        // DIRS is symmetric: index i and 25-i are opposites
        for (i, &d) in DIRS.iter().enumerate() {
            assert_eq!(dir_index(opposite(d)), Some(25 - i));
        }
    }

    #[test]
    fn factorization_is_exact_and_balanced() {
        for p in [1usize, 2, 3, 4, 6, 8, 12, 16, 27, 32, 64, 100] {
            let d = Decomp::new(p);
            assert_eq!(d.size(), p, "dims {:?}", d.dims);
        }
        assert_eq!(Decomp::new(8).dims, [2, 2, 2]);
        assert_eq!(Decomp::new(64).dims, [4, 4, 4]);
        assert_eq!(Decomp::new(12).dims, [2, 2, 3]);
    }

    #[test]
    fn coords_roundtrip() {
        let d = Decomp::new(24);
        for r in 0..24 {
            assert_eq!(d.rank_of(d.coords(r)), r);
        }
    }

    #[test]
    fn neighbors_wrap_periodically() {
        let d = Decomp::new(8); // 2×2×2
                                // from rank 0 at (0,0,0), -x wraps to (1,0,0) = rank 1
        assert_eq!(d.neighbor(0, [-1, 0, 0]), 1);
        assert_eq!(d.neighbor(0, [1, 0, 0]), 1); // wraps the same place
        assert_eq!(d.neighbor(0, [0, 1, 0]), 2);
        assert_eq!(d.neighbor(0, [1, 1, 1]), 7);
    }

    #[test]
    fn single_rank_is_its_own_neighbor_everywhere() {
        let d = Decomp::new(1);
        for &dir in &DIRS {
            assert_eq!(d.neighbor(0, dir), 0);
        }
    }

    #[test]
    fn global_coordinates_offset_by_rank_block() {
        let d = Decomp::new(8); // 2×2×2
        assert_eq!(d.global(0, [4, 4, 4], [1, 2, 3]), [1, 2, 3]);
        let r = d.rank_of([1, 0, 1]);
        assert_eq!(d.global(r, [4, 4, 4], [0, 0, 0]), [4, 0, 4]);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let d = Decomp::new(12);
        for r in 0..12 {
            for &dir in &DIRS {
                let n = d.neighbor(r, dir);
                assert_eq!(d.neighbor(n, opposite(dir)), r);
            }
        }
    }
}
