//! The path of a walk over a datatype's constructors, kept off the call
//! stack's recursion: [`WalkPath`].
//!
//! MPI puts no limit on how deep constructors nest, so a walk that
//! recursed once per level would need a stack sized for the deepest type
//! it might meet — and a rank's fiber stack is fixed. The walks over a
//! user datatype that run on a rank (the system MPI's typemap walk, TEMPI's
//! translation) therefore loop, and keep the levels waiting on a child on
//! a `WalkPath`: its first [`INLINE_LEVELS`] in the value itself, on the
//! walk's own frame, so a type of ordinary depth touches no heap at all,
//! and the rest in a `Vec` its owner keeps from one walk to the next.

/// Levels a [`WalkPath`] holds without its spill vector: the paper's
/// types, the benchmark zoo and the tests' generated types nest at most
/// three deep. Each level is a slot of the walk's frame on a rank's fiber
/// stack, so no more are held than those types use.
pub const INLINE_LEVELS: usize = 4;

/// A stack of walk levels: the bottom [`INLINE_LEVELS`] in place, the rest
/// in a spill vector whose capacity outlives the walk ([`WalkPath::new`],
/// [`WalkPath::into_spill`]).
#[derive(Debug)]
pub struct WalkPath<T> {
    head: [T; INLINE_LEVELS],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy> WalkPath<T> {
    /// An empty path over `spill`'s storage (its contents are dropped);
    /// `fill` stands in the unused inline slots.
    pub fn new(fill: T, mut spill: Vec<T>) -> WalkPath<T> {
        spill.clear();
        WalkPath {
            head: [fill; INLINE_LEVELS],
            len: 0,
            spill,
        }
    }

    /// The spill vector, for the next walk.
    pub fn into_spill(self) -> Vec<T> {
        self.spill
    }

    /// Put `level` on top.
    pub fn push(&mut self, level: T) {
        match self.head.get_mut(self.len) {
            Some(slot) => *slot = level,
            None => self.spill.push(level),
        }
        self.len += 1;
    }

    /// Take the top level off.
    pub fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        match self.head.get(self.len) {
            Some(&level) => Some(level),
            None => self.spill.pop(),
        }
    }

    /// The top level.
    pub fn last_mut(&mut self) -> Option<&mut T> {
        match self.len {
            0 => None,
            n if n <= INLINE_LEVELS => Some(&mut self.head[n - 1]),
            _ => self.spill.last_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_past_the_inline_ones_spill_and_come_back_in_order() {
        let mut path = WalkPath::new(0, Vec::new());
        let deep = 3 * INLINE_LEVELS;
        for level in 0..deep {
            path.push(level);
            assert_eq!(path.last_mut().copied(), Some(level));
        }
        *path.last_mut().unwrap() += 100;
        assert_eq!(path.pop(), Some(deep - 1 + 100));
        for level in (0..deep - 1).rev() {
            assert_eq!(path.pop(), Some(level));
        }
        assert_eq!((path.pop(), path.last_mut()), (None, None));
        // the spill's storage is handed back, empty, for the next walk
        let spill = path.into_spill();
        assert!(spill.is_empty() && spill.capacity() >= 2 * INLINE_LEVELS);
        let mut again = WalkPath::new(0, spill);
        again.push(7);
        assert_eq!(again.pop(), Some(7));
    }
}
