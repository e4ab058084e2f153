//! TEMPI's internal representation of datatypes (paper Section 3.1).
//!
//! The paper draws a [`Type`] as a tree of two kinds of node:
//!
//! * [`DenseData`] — a run of contiguous bytes (the role MPI named types
//!   play); the leaf.
//! * [`StreamData`] — a strided sequence of `count` elements of the single
//!   child type, `stride` bytes apart, starting `off` bytes from the
//!   parent's origin.
//!
//! Every stream has exactly one child, so the tree is always a chain, and
//! that is how it is stored: one leaf and one flat list of the streams
//! above it — one allocation per translated type, however deep.
//!
//! Every composition of contiguous / vector / hvector / subarray types
//! translates to such a chain ([`translate`]); canonicalization
//! ([`transform`]) then collapses equivalent chains to an identical form,
//! which converts to the [`strided_block::StridedBlock`] the packing
//! kernels consume.

pub mod strided_block;
pub mod transform;
pub mod translate;

use std::fmt;

/// A contiguous run of bytes (paper §3.1, "DenseData").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DenseData {
    /// Bytes between the lower bound and the first byte of the run.
    pub off: i64,
    /// Number of contiguous bytes.
    pub extent: i64,
}

/// A strided sequence of elements of the child type (paper §3.1,
/// "StreamData").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamData {
    /// Bytes between the lower bound and the first element.
    pub off: i64,
    /// Bytes between consecutive elements; 0 in a one-element stream
    /// whose element's extent translation never asked MPI for.
    pub stride: i64,
    /// Number of elements.
    pub count: i64,
}

/// The IR of one datatype: a dense leaf under zero or more streams.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Type {
    /// The contiguous run at the bottom of the chain.
    pub leaf: DenseData,
    /// The streams above the leaf, innermost (the leaf's parent) first.
    pub streams: Vec<StreamData>,
}

impl Type {
    /// A dense leaf.
    pub fn dense(off: i64, extent: i64) -> Type {
        Type {
            leaf: DenseData { off, extent },
            streams: Vec::new(),
        }
    }

    /// A stream node over `child`: the new root of its chain.
    pub fn stream(off: i64, stride: i64, count: i64, mut child: Type) -> Type {
        child.streams.push(StreamData { off, stride, count });
        child
    }

    /// Is this a lone dense leaf?
    pub fn is_dense(&self) -> bool {
        self.streams.is_empty()
    }

    /// Number of nodes: the streams and the leaf.
    pub fn node_count(&self) -> usize {
        self.streams.len() + 1
    }

    /// Total bytes of data the type denotes (product of stream counts times
    /// the leaf extent).
    pub fn data_bytes(&self) -> i64 {
        self.streams
            .iter()
            .fold(self.leaf.extent, |bytes, s| bytes * s.count)
    }
}

impl fmt::Display for Type {
    /// Renders like the paper's Fig. 2 annotations, parent above child.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (depth, s) in self.streams.iter().rev().enumerate() {
            writeln!(
                f,
                "{:indent$}StreamData{{offset:{}, count:{}, stride:{}}}",
                "",
                s.off,
                s.count,
                s.stride,
                indent = 2 * depth
            )?;
        }
        writeln!(
            f,
            "{:indent$}DenseData{{offset:{}, extent:{}}}",
            "",
            self.leaf.off,
            self.leaf.extent,
            indent = 2 * self.streams.len()
        )
    }
}

/// A flat list of `(offset, length)` byte runs — the representation TEMPI
/// uses for indexed-family types that are not nested strided patterns
/// (paper §8 extension; prior work reduces *everything* to this, TEMPI only
/// what cannot be expressed as a [`strided_block::StridedBlock`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockList {
    /// `(byte offset from origin, length)` in typemap order.
    pub blocks: Vec<(i64, u64)>,
}

impl BlockList {
    /// Total data bytes.
    pub fn data_bytes(&self) -> u64 {
        self.blocks.iter().map(|&(_, l)| l).sum()
    }

    /// Largest contiguous block.
    pub fn max_block(&self) -> u64 {
        self.blocks.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_tree() -> Type {
        // cuboid: 47 planes × 13 rows × 100 bytes in a 256×512×1024 alloc
        Type::stream(0, 131072, 47, Type::stream(0, 256, 13, Type::dense(0, 100)))
    }

    #[test]
    fn constructors_and_shape() {
        let t = fig2_tree();
        assert!(!t.is_dense());
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.data_bytes(), 47 * 13 * 100);
        // stored flat: the leaf, then its streams innermost first
        assert_eq!(t.leaf.extent, 100);
        assert_eq!(t.streams[0].count, 13);
        assert_eq!(t.streams[1].count, 47);
    }

    #[test]
    fn display_matches_paper_layout() {
        let s = format!("{}", fig2_tree());
        assert!(s.contains("StreamData{offset:0, count:47, stride:131072}"));
        assert!(s.contains("  StreamData{offset:0, count:13, stride:256}"));
        assert!(s.contains("    DenseData{offset:0, extent:100}"));
    }

    #[test]
    fn blocklist_stats() {
        let b = BlockList {
            blocks: vec![(0, 8), (100, 16), (50, 4)],
        };
        assert_eq!(b.data_bytes(), 28);
        assert_eq!(b.max_block(), 16);
        assert_eq!(BlockList::default().max_block(), 0);
    }

    #[test]
    fn dense_leaf_data_bytes() {
        assert_eq!(Type::dense(10, 64).data_bytes(), 64);
    }
}
