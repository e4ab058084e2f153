//! Kernel launch geometry.
//!
//! The simulator does not emulate individual threads — kernel *bodies* are
//! Rust closures that perform the whole data movement — but launch geometry
//! is still computed, validated against device limits, and used by the cost
//! model, because TEMPI's kernel-selection logic (Section 3.3) is about
//! choosing exactly these dimensions.

use std::fmt;

/// A CUDA-style 3-component extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// Extent in x (fastest-varying).
    pub x: u32,
    /// Extent in y.
    pub y: u32,
    /// Extent in z (slowest-varying).
    pub z: u32,
}

impl Dim3 {
    /// A 1×1×1 extent.
    pub const ONE: Dim3 = Dim3 { x: 1, y: 1, z: 1 };

    /// Construct from three extents.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total number of elements (`x * y * z`).
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// Grid + block geometry for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of blocks in each dimension.
    pub grid: Dim3,
    /// Threads per block in each dimension.
    pub block: Dim3,
}

impl fmt::Display for LaunchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<<<{}, {}>>>", self.grid, self.block)
    }
}

/// Smallest power of two ≥ `n` (and ≥ 1). Used by TEMPI's block-dimension
/// fill rule: "each kernel dimension is filled from X to Z by the largest
/// power of two that encompasses the structure".
pub fn next_pow2(n: u64) -> u64 {
    n.max(1).next_power_of_two()
}

/// Ceiling division for grid sizing.
pub fn div_ceil(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_count() {
        assert_eq!(Dim3::new(4, 3, 2).count(), 24);
        assert_eq!(Dim3::ONE.count(), 1);
    }

    #[test]
    fn next_pow2_basics() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(100), 128);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
    }

    #[test]
    fn display_formats() {
        let cfg = LaunchConfig {
            grid: Dim3::new(2, 1, 1),
            block: Dim3::new(128, 8, 1),
        };
        assert_eq!(format!("{cfg}"), "<<<(2, 1, 1), (128, 8, 1)>>>");
    }
}
