//! Type transformation: canonicalizing the IR tree (paper §3.2,
//! Algorithms 5–7).
//!
//! Two rewrites run to a fixed point:
//!
//! * **Dense folding** (Alg. 6, Fig. 3): a `Stream` whose `Dense` child's
//!   extent equals the stream's stride is a larger contiguous run — replace
//!   the pair with one `Dense` of `count × stride` bytes.
//! * **Stream elision** (Alg. 7, Fig. 4): a `Stream` of a single element
//!   contributes nothing — remove it, folding its offset into its child.
//!
//! One deliberate strengthening over the paper's pseudocode: Alg. 7 as
//! printed elides only count-1 *children* of a stream, which leaves a
//! count-1 node at the *root* (e.g. `MPI_Type_vector(1, E0, 1, …)`)
//! uncanonicalized and would make equivalent constructions select
//! different kernels. We elide count-1 stream nodes wherever they appear,
//! adding the node's offset to its child — semantically identical, and
//! required for the paper's own claim that equivalent objects get equal
//! treatment.

use super::{DenseData, Type};

/// Dense folding (Algorithm 6), applied bottom-up across the whole chain:
/// each fold makes a larger leaf, which the next stream up may fold in
/// turn. Returns the rewritten chain and whether anything changed.
pub fn dense_folding(mut ty: Type) -> (Type, bool) {
    let mut folds = 0;
    while let Some(p) = ty.streams.get(folds) {
        let c = ty.leaf;
        if c.extent != p.stride || c.extent <= 0 {
            break;
        }
        // replace the pair with one larger dense run
        ty.leaf = DenseData {
            off: p.off + c.off,
            extent: p.count * p.stride,
        };
        folds += 1;
    }
    ty.streams.drain(..folds);
    (ty, folds > 0)
}

/// Stream elision (Algorithm 7, strengthened as documented above), applied
/// bottom-up. Returns the rewritten chain and whether anything changed.
pub fn stream_elision(mut ty: Type) -> (Type, bool) {
    let mut kept = 0usize;
    for i in 0..ty.streams.len() {
        let s = ty.streams[i];
        if s.count == 1 {
            // a single-element stream is its child, shifted by the
            // stream's offset
            match kept.checked_sub(1) {
                Some(child) => ty.streams[child].off += s.off,
                None => ty.leaf.off += s.off,
            }
        } else {
            ty.streams[kept] = s;
            kept += 1;
        }
    }
    let changed = kept < ty.streams.len();
    ty.streams.truncate(kept);
    (ty, changed)
}

/// The fixed-point driver (Algorithm 5): alternate folding and elision
/// until neither changes the tree. Returns the canonical tree and the
/// number of passes taken.
pub fn simplify(mut ty: Type) -> (Type, usize) {
    let mut passes = 0;
    loop {
        passes += 1;
        let (t1, c1) = dense_folding(ty);
        let (t2, c2) = stream_elision(t1);
        ty = t2;
        if !c1 && !c2 {
            return (ty, passes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_contiguous_of_named() {
        // Fig. 3: Stream{stride 4, count 100} over Dense{extent 4} →
        // Dense{extent 400}
        let t = Type::stream(0, 4, 100, Type::dense(0, 4));
        let (t, changed) = dense_folding(t);
        assert!(changed);
        assert_eq!(t, Type::dense(0, 400));
    }

    #[test]
    fn fold_accumulates_offsets() {
        let t = Type::stream(8, 4, 10, Type::dense(3, 4));
        let (t, _) = dense_folding(t);
        assert_eq!(t, Type::dense(11, 40));
    }

    #[test]
    fn fold_requires_exact_stride_match() {
        let t = Type::stream(0, 8, 10, Type::dense(0, 4)); // holes: no fold
        let (t2, changed) = dense_folding(t.clone());
        assert!(!changed);
        assert_eq!(t2, t);
    }

    #[test]
    fn fold_cascades_up_the_tree() {
        // contiguous(4, contiguous(8, BYTE)): two foldable levels
        let t = Type::stream(0, 8, 4, Type::stream(0, 1, 8, Type::dense(0, 1)));
        let (t, passes) = simplify(t);
        assert_eq!(t, Type::dense(0, 32));
        assert!(passes <= 3);
    }

    #[test]
    fn elide_count_one_child() {
        // Fig. 4: vector with blocklength 1 produces an inner count-1 stream
        let t = Type::stream(0, 256, 13, Type::stream(0, 1, 1, Type::dense(0, 1)));
        let (t, changed) = stream_elision(t);
        assert!(changed);
        assert_eq!(t, Type::stream(0, 256, 13, Type::dense(0, 1)));
    }

    #[test]
    fn elide_count_one_root() {
        // vector(1, E0, 1, FLOAT): root stream has count 1 — the
        // strengthened rule removes it
        let t = Type::stream(0, 4, 1, Type::stream(0, 4, 100, Type::dense(0, 4)));
        let (t, _) = simplify(t);
        assert_eq!(t, Type::dense(0, 400));
    }

    #[test]
    fn elision_preserves_offset() {
        let t = Type::stream(64, 1, 1, Type::dense(3, 8));
        let (t, changed) = stream_elision(t);
        assert!(changed);
        assert_eq!(t, Type::dense(67, 8));
    }

    #[test]
    fn elision_preserves_offset_onto_stream_child() {
        let t = Type::stream(64, 999, 1, Type::stream(8, 16, 4, Type::dense(0, 4)));
        let (t, _) = stream_elision(t);
        assert_eq!(t, Type::stream(72, 16, 4, Type::dense(0, 4)));
    }

    #[test]
    fn fig2_all_three_constructions_converge() {
        // The three translated trees from Fig. 2 (asserted in translate.rs)
        // must all canonicalize to the identical form.
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
        let middle = Type::stream(
            0,
            131072,
            47,
            Type::stream(
                0,
                3172,
                1,
                Type::stream(
                    0,
                    256,
                    13,
                    Type::stream(0, 100, 1, Type::stream(0, 1, 100, Type::dense(0, 1))),
                ),
            ),
        );
        let bottom = Type::stream(
            0,
            131072,
            47,
            Type::stream(0, 256, 13, Type::stream(0, 1, 100, Type::dense(0, 1))),
        );
        let want = Type::stream(0, 131072, 47, Type::stream(0, 256, 13, Type::dense(0, 100)));
        assert_eq!(simplify(top).0, want);
        assert_eq!(simplify(middle).0, want);
        assert_eq!(simplify(bottom).0, want);
    }

    #[test]
    fn simplify_is_idempotent() {
        let t = Type::stream(
            0,
            131072,
            47,
            Type::stream(0, 256, 13, Type::stream(0, 1, 100, Type::dense(0, 1))),
        );
        let (once, _) = simplify(t);
        let (twice, passes) = simplify(once.clone());
        assert_eq!(once, twice);
        assert_eq!(passes, 1); // second run makes no changes
    }

    #[test]
    fn canonical_form_preserves_data_bytes() {
        let t = Type::stream(
            0,
            131072,
            47,
            Type::stream(
                0,
                3172,
                1,
                Type::stream(
                    0,
                    256,
                    13,
                    Type::stream(0, 100, 1, Type::stream(0, 1, 100, Type::dense(0, 1))),
                ),
            ),
        );
        let before = t.data_bytes();
        let (canon, _) = simplify(t);
        assert_eq!(canon.data_bytes(), before);
    }

    #[test]
    fn already_canonical_is_untouched() {
        let t = Type::stream(0, 256, 13, Type::dense(0, 100));
        let (got, passes) = simplify(t.clone());
        assert_eq!(got, t);
        assert_eq!(passes, 1);
    }

    #[test]
    fn zero_count_stream_not_elided() {
        // count 0 denotes no data; it is not a single element and must
        // survive (pack treats it as a no-op)
        let t = Type::stream(0, 8, 0, Type::dense(0, 4));
        let (got, changed) = stream_elision(t.clone());
        assert!(!changed);
        assert_eq!(got, t);
    }

    #[test]
    fn negative_stride_stream_never_folds() {
        let t = Type::stream(0, -4, 4, Type::dense(0, 4));
        let (got, changed) = dense_folding(t);
        assert!(!changed, "{got}");
    }
}
