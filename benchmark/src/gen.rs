//! The seeded load generator: everything a workload's inputs depend on
//! comes from `--seed` through this module, and nothing else does.

/// SplitMix64: small, seedable, and good enough to order ops and fill
/// buffers. Not the library's RNG — the tuner has its own, seeded through
/// `TempiConfig::tuner_seed` from a value drawn here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// One generated operation: which cell of the workload it exercises and a
/// workload-defined variant (direction, re-commit, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    pub cell: u32,
    pub variant: u32,
}

/// A balanced, seeded op list: every `(cell, variant)` pair appears exactly
/// `reps` times, in an order the seed decides. Balance keeps the op
/// *multiset* the same for every seed, so per-op means compare across
/// seeds; the order (and with it every cache's history) is what varies.
pub fn balanced_ops(rng: &mut Rng, cells: usize, variants: usize, reps: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(cells * variants * reps);
    for _ in 0..reps {
        for cell in 0..cells as u32 {
            for variant in 0..variants as u32 {
                ops.push(Op { cell, variant });
            }
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// FNV-1a over the op list: the identity of a generated input.
pub fn ops_hash(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in ops {
        for b in op
            .cell
            .to_le_bytes()
            .into_iter()
            .chain(op.variant.to_le_bytes())
        {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        let gen = |seed| balanced_ops(&mut Rng::new(seed), 17, 2, 5);
        assert_eq!(ops_hash(&gen(1)), ops_hash(&gen(1)));
        assert_ne!(ops_hash(&gen(1)), ops_hash(&gen(2)));
        assert_eq!(Rng::new(9).bytes(13), Rng::new(9).bytes(13));
        assert_ne!(Rng::new(9).bytes(13), Rng::new(10).bytes(13));
    }

    #[test]
    fn ops_are_balanced_for_every_seed() {
        for seed in [0, 1, 0xdead_beef] {
            let ops = balanced_ops(&mut Rng::new(seed), 5, 3, 4);
            assert_eq!(ops.len(), 60);
            for cell in 0..5 {
                for variant in 0..3 {
                    let n = ops.iter().filter(|o| **o == Op { cell, variant }).count();
                    assert_eq!(n, 4, "seed {seed} cell {cell} variant {variant}");
                }
            }
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(3);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
