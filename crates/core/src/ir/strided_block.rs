//! Conversion of a canonical IR tree to a `StridedBlock` (paper §3.3,
//! Algorithm 8).
//!
//! A [`StridedBlock`] is "semantically similar to an MPI subarray": a
//! `start` byte offset, plus per-dimension `counts` and `strides`.
//! Dimension 0 is the contiguous innermost run — `counts[0]` is its byte
//! length and `strides[0]` is always 1 — and each higher dimension `d`
//! repeats the structure below it `counts[d]` times, `strides[d]` bytes
//! apart. It exists only to parameterize kernel selection: no tree or
//! metadata ever reaches the (simulated) GPU, just these scalars.

use super::{DenseData, StreamData, Type};

/// The canonical N-dimensional strided object (paper §3.3).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct StridedBlock {
    /// Byte offset between the type's lower bound and the first byte.
    pub start: i64,
    /// `counts[0]` is bytes in the contiguous innermost run; `counts[d]`
    /// (d ≥ 1) is the element count of dimension `d`.
    pub counts: Vec<i64>,
    /// `strides[0] == 1`; `strides[d]` is bytes between the starts of
    /// dimension `d`'s repetitions.
    pub strides: Vec<i64>,
}

impl StridedBlock {
    /// Number of dimensions (1 = fully contiguous).
    pub fn ndims(&self) -> usize {
        self.counts.len()
    }

    /// Is the object a single contiguous run?
    pub fn is_contiguous(&self) -> bool {
        self.ndims() == 1
    }

    /// Total data bytes of one object.
    pub fn data_bytes(&self) -> i64 {
        self.counts.iter().product()
    }

    /// Byte length of the contiguous innermost block.
    pub fn block_bytes(&self) -> i64 {
        self.counts[0]
    }

    /// Number of contiguous blocks in one object.
    pub fn block_count(&self) -> i64 {
        self.counts[1..].iter().product()
    }

    /// A row — dimension 1, the kernel's Y — as its number of blocks and
    /// the stride between them: `(1, 0)` for a 1-D object.
    pub fn row(&self) -> (i64, i64) {
        match self.ndims() {
            1 => (1, 0),
            _ => (self.counts[1], self.strides[1]),
        }
    }

    /// Byte offset (from the type origin) of the first block of the `r`-th
    /// row in layout order — the mixed-radix decomposition of `r` over
    /// `counts[2..]` (dimension 2 fastest). Used by the pipelined path to
    /// address block sub-ranges.
    pub fn row_offset(&self, r: i64) -> i64 {
        let mut off = self.start;
        let mut rest = r;
        for d in 2..self.ndims() {
            off += (rest % self.counts[d]) * self.strides[d];
            rest /= self.counts[d];
        }
        debug_assert_eq!(rest, 0, "row index {r} out of range");
        off
    }

    /// Visit the byte offset (from the type origin) of every row's first
    /// block, in layout order — the loop structure the packing kernels
    /// execute around their rows.
    pub fn for_each_row(&self, mut f: impl FnMut(i64)) {
        self.visit_rows(self.ndims() - 1, self.start, &mut f);
    }

    /// Visit the byte offset (from the type origin) of every contiguous
    /// innermost run, in layout order: each row's blocks in turn.
    pub fn for_each_block(&self, mut f: impl FnMut(i64)) {
        let (n, stride) = self.row();
        self.for_each_row(|off| (0..n).for_each(|i| f(off + i * stride)));
    }

    /// Dimension `d`'s loop of [`StridedBlock::for_each_row`]: the loop
    /// nest over dimensions 2 and up is the call stack, so dimension 2 runs
    /// fastest (as a plain loop the compiler can see through) and nothing
    /// is allocated per traversal.
    fn visit_rows<F: FnMut(i64)>(&self, d: usize, off: i64, f: &mut F) {
        match d {
            0 | 1 => f(off),
            2 => {
                for i in 0..self.counts[2] {
                    f(off + i * self.strides[2]);
                }
            }
            _ => {
                for i in 0..self.counts[d] {
                    self.visit_rows(d - 1, off + i * self.strides[d], f);
                }
            }
        }
    }
}

/// Most dimensions a [`Member`] holds.
pub const MEMBER_DIMS: usize = 4;

/// Most members a member list holds: with them it is the 4 KiB a CUDA
/// kernel takes as parameters.
pub const MAX_MEMBERS: usize = 4096 / std::mem::size_of::<Member>();

/// One strided member of a struct: a [`StridedBlock`] of at most
/// [`MEMBER_DIMS`] dimensions, from the struct's origin, held inline — so a
/// list of members is one allocation, and a few dozen scalars per member
/// however large the member is (§3.3: no object metadata on the GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Member {
    /// As [`StridedBlock::start`].
    pub start: i64,
    /// As [`StridedBlock::counts`]; 1 in the dimensions not in use.
    pub counts: [i64; MEMBER_DIMS],
    /// As [`StridedBlock::strides`]; 0 in the dimensions not in use.
    pub strides: [i64; MEMBER_DIMS],
    /// Dimensions in use.
    pub ndims: u8,
    /// The word size `W` kernel selection gave the member; 1 before it.
    pub word: u8,
}

impl Member {
    /// One run of `len` bytes.
    pub fn run(start: i64, len: i64) -> Member {
        Member {
            start,
            counts: [len, 1, 1, 1],
            strides: [1, 0, 0, 0],
            ndims: 1,
            word: 1,
        }
    }

    /// `bl` objects `sb`, `ex` bytes apart from byte `disp`: one more
    /// dimension than `sb` if there are several. `None` if that is more
    /// than [`MEMBER_DIMS`], or reaches a byte no 64-bit offset names —
    /// checked here, once, so that enumerating the blocks need not.
    pub fn of(sb: &StridedBlock, bl: i64, ex: i64, disp: i64) -> Option<Member> {
        let (inner, ndims) = (sb.ndims(), sb.ndims() + usize::from(bl > 1));
        let mut m = Member::run(disp.checked_add(sb.start)?, 0);
        // a dimension there is no room for is the `None`
        m.counts.get_mut(..inner)?.copy_from_slice(&sb.counts);
        m.strides.get_mut(..inner)?.copy_from_slice(&sb.strides);
        if bl > 1 {
            (*m.counts.get_mut(inner)?, *m.strides.get_mut(inner)?) = (bl, ex);
        }
        m.ndims = ndims as u8;
        let (mut lo, mut hi) = (m.start, m.start.checked_add(m.counts[0])?);
        for d in 1..ndims {
            let far = (m.counts[d] - 1).checked_mul(m.strides[d])?;
            (lo, hi) = (lo.checked_add(far.min(0))?, hi.checked_add(far.max(0))?);
        }
        Some(m)
    }

    /// The member as a canonical chain.
    pub fn chain(&self) -> Type {
        let mut ty = Type::default();
        self.chain_into(&mut ty);
        ty
    }

    /// [`Member::chain`] written over `ty`, whose list is reused.
    pub fn chain_into(&self, ty: &mut Type) {
        ty.leaf = DenseData {
            off: self.start,
            extent: self.counts[0],
        };
        ty.streams.clear();
        ty.streams
            .extend((1..self.ndims as usize).map(|d| StreamData {
                off: 0,
                stride: self.strides[d],
                count: self.counts[d],
            }));
    }

    /// As [`StridedBlock::block_count`].
    pub fn block_count(&self) -> i64 {
        self.counts[1..].iter().product()
    }

    /// As [`StridedBlock::data_bytes`].
    pub fn data_bytes(&self) -> i64 {
        self.counts.iter().product()
    }

    /// As [`StridedBlock::for_each_row`].
    pub fn for_each_row(&self, mut f: impl FnMut(i64)) {
        let (c, s) = (&self.counts, &self.strides);
        for k in 0..c[3] {
            for j in 0..c[2] {
                f(self.start + k * s[3] + j * s[2]);
            }
        }
    }

    /// As [`StridedBlock::for_each_block`], each with its length.
    pub fn for_each_block(&self, mut f: impl FnMut(i64, usize)) {
        let (len, n, stride) = (self.counts[0] as usize, self.counts[1], self.strides[1]);
        self.for_each_row(|off| (0..n).for_each(|i| f(off + i * stride, len)));
    }
}

/// Algorithm 8: convert a chain (dense leaf under zero or more streams)
/// into a [`StridedBlock`]. The paper's "Not strided" cannot arise — the IR
/// holds nothing but chains — so `None` is left with one meaning: the
/// offsets do not sum to a representable `start`, and the type falls back
/// to other handling.
pub fn strided_block(ty: &Type) -> Option<StridedBlock> {
    let mut sb = StridedBlock::default();
    strided_block_into(ty, &mut sb).then_some(sb)
}

/// [`strided_block`] written over `sb`, whose arrays are reused: `false`
/// where that is `None`, with `sb` left partly written.
pub fn strided_block_into(ty: &Type, sb: &mut StridedBlock) -> bool {
    let ndims = ty.node_count();
    for list in [&mut sb.counts, &mut sb.strides] {
        list.clear();
        list.reserve_exact(ndims);
    }
    // dimension 0 is the dense leaf, the rest the streams above it
    sb.start = ty.leaf.off;
    sb.counts.push(ty.leaf.extent);
    sb.strides.push(1);
    for s in &ty.streams {
        let Some(start) = sb.start.checked_add(s.off) else {
            return false;
        };
        sb.start = start;
        sb.counts.push(s.count);
        sb.strides.push(s.stride);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::transform::simplify;

    #[test]
    fn dense_leaf_is_1d() {
        let sb = strided_block(&Type::dense(16, 400)).unwrap();
        assert_eq!(
            sb,
            StridedBlock {
                start: 16,
                counts: vec![400],
                strides: vec![1]
            }
        );
        assert!(sb.is_contiguous());
        assert_eq!(sb.data_bytes(), 400);
        assert_eq!(sb.block_count(), 1);
    }

    #[test]
    fn two_level_chain_is_2d() {
        let t = Type::stream(0, 512, 13, Type::dense(0, 400));
        let sb = strided_block(&t).unwrap();
        assert_eq!(sb.counts, vec![400, 13]);
        assert_eq!(sb.strides, vec![1, 512]);
        assert_eq!(sb.block_bytes(), 400);
        assert_eq!(sb.block_count(), 13);
        assert_eq!(sb.data_bytes(), 5200);
    }

    #[test]
    fn three_level_chain_is_3d_with_offsets_accumulated() {
        let t = Type::stream(
            1024,
            131072,
            47,
            Type::stream(8, 256, 13, Type::dense(2, 100)),
        );
        let sb = strided_block(&t).unwrap();
        assert_eq!(sb.start, 1024 + 8 + 2);
        assert_eq!(sb.counts, vec![100, 13, 47]);
        assert_eq!(sb.strides, vec![1, 256, 131072]);
    }

    #[test]
    fn canonicalized_fig2_constructions_yield_identical_blocks() {
        let top = Type::stream(
            0,
            131072,
            47,
            Type::stream(
                0,
                131072,
                1,
                Type::stream(0, 256, 13, Type::stream(0, 1, 100, Type::dense(0, 1))),
            ),
        );
        let bottom = Type::stream(
            0,
            131072,
            47,
            Type::stream(0, 256, 13, Type::stream(0, 1, 100, Type::dense(0, 1))),
        );
        let a = strided_block(&simplify(top).0).unwrap();
        let b = strided_block(&simplify(bottom).0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.counts, vec![100, 13, 47]);
    }

    #[test]
    fn unrepresentable_start_rejected() {
        let t = Type::stream(i64::MAX, 8, 2, Type::dense(1, 4));
        assert_eq!(strided_block(&t), None);
    }

    #[test]
    fn row_offset_matches_for_each_row_and_rows_hold_the_blocks() {
        let sb = StridedBlock {
            start: 7,
            counts: vec![16, 3, 4, 2],
            strides: vec![1, 100, 1000, -5000],
        };
        let mut rows = Vec::new();
        sb.for_each_row(|o| rows.push(o));
        assert_eq!(rows.len(), 8);
        for (r, &o) in rows.iter().enumerate() {
            assert_eq!(sb.row_offset(r as i64), o, "row {r}");
        }
        let mut blocks = Vec::new();
        sb.for_each_block(|o| blocks.push(o));
        let (n, stride) = sb.row();
        let expanded: Vec<i64> = (rows.iter())
            .flat_map(|&o| (0..n).map(move |i| o + i * stride))
            .collect();
        assert_eq!(blocks, expanded);
        assert_eq!(blocks[..4], [7, 107, 207, 1007]);
    }

    #[test]
    fn a_member_is_its_block_inline_and_several_are_one_more_dimension() {
        let sb = StridedBlock {
            start: 7,
            counts: vec![16, 3, 4],
            strides: vec![1, 100, 1000],
        };
        // one object, 50 bytes in: the block, shifted
        let one = Member::of(&sb, 1, 9999, 50).unwrap();
        assert_eq!((one.start, one.ndims, one.word), (57, 3, 1));
        assert_eq!(
            (one.counts, one.strides),
            ([16, 3, 4, 1], [1, 100, 1000, 0])
        );
        assert_eq!((one.block_count(), one.data_bytes()), (12, 192));
        let mut blocks = Vec::new();
        sb.for_each_block(|off| blocks.push((50 + off, 16)));
        let mut seen = Vec::new();
        one.for_each_block(|off, len| seen.push((off, len)));
        assert_eq!(seen, blocks);
        assert_eq!(strided_block(&simplify(one.chain()).0).unwrap().start, 57);
        assert_eq!(
            simplify(one.chain()).0,
            one.chain(),
            "a member is canonical"
        );

        // two objects an extent apart: the fourth dimension, and no fifth
        let two = Member::of(&sb, 2, 5000, 0).unwrap();
        assert_eq!(
            (two.counts, two.strides),
            ([16, 3, 4, 2], [1, 100, 1000, 5000])
        );
        assert_eq!((two.ndims, two.block_count()), (4, 24));
        assert_eq!(
            Member::of(&strided_block(&two.chain()).unwrap(), 2, 1 << 20, 0),
            None
        );
        // a reach no offset names, up or down
        assert_eq!(Member::of(&sb, 2, i64::MAX / 2, i64::MAX / 2), None);
        assert_eq!(Member::of(&sb, 2, i64::MIN + 8, -16), None);
        assert_eq!(Member::of(&sb, 1, 0, i64::MAX - 8), None);
        // one run
        let run = Member::run(40, 8);
        assert_eq!((run.ndims, run.block_count(), run.data_bytes()), (1, 1, 8));
        assert_eq!(run.chain(), Type::dense(40, 8));
        assert!(std::mem::size_of::<Member>() * MAX_MEMBERS <= 4096 && MAX_MEMBERS >= 26);
    }

    #[test]
    fn uncanonicalized_tree_still_converts_with_extra_dims() {
        // Without simplify, a vector's inner count-1 stream adds a
        // dimension — legal, just worse (the canonicalization ablation
        // measures exactly this).
        let t = Type::stream(0, 256, 13, Type::stream(0, 1, 1, Type::dense(0, 1)));
        let sb = strided_block(&t).unwrap();
        assert_eq!(sb.counts, vec![1, 1, 13]);
        assert_eq!(sb.strides, vec![1, 1, 256]);
    }
}
